//! Pins the committed `data/` artifacts: the running example's KB, rules,
//! and table must stay loadable and must clean end to end, exactly like
//! `clean_csv` consumes them.

use dr_core::fast_repair;
use dr_core::{parse_rules, ApplyOptions, MatchContext};
use dr_kb::ntriples;
use dr_relation::csv;
use std::path::PathBuf;

fn data(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .join("data")
        .join(file)
}

#[test]
fn committed_artifacts_clean_table1() {
    let kb = ntriples::load_file(data("figure1.nt")).expect("figure1.nt loads");
    assert_eq!(kb.num_instances(), 28);

    let mut relation = csv::load_file(data("table1.csv")).expect("table1.csv loads");
    assert_eq!(relation.len(), 4);
    assert_eq!(relation.schema().arity(), 6);

    let rule_text = std::fs::read_to_string(data("figure4.dr")).expect("figure4.dr reads");
    let rules = parse_rules(&rule_text, relation.schema(), &kb).expect("figure4.dr parses");
    assert_eq!(rules.len(), 4);

    let ctx = MatchContext::new(&kb);
    let report = fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
    assert!(report.total_changes() >= 6, "Table I has repairs to make");

    // The cleaned table matches the published corrections.
    let clean = dr_core::fixtures::table1_clean();
    for (row, expect) in clean.tuples().iter().enumerate() {
        assert_eq!(
            relation.tuple(row).cells(),
            expect.cells(),
            "row {row} diverges from Table I's bracketed corrections"
        );
    }
}

#[test]
fn committed_rules_roundtrip_through_the_dsl() {
    let kb = ntriples::load_file(data("figure1.nt")).unwrap();
    let schema = dr_core::fixtures::nobel_schema();
    let text = std::fs::read_to_string(data("figure4.dr")).unwrap();
    let rules = parse_rules(&text, &schema, &kb).unwrap();
    let rendered = dr_core::rules_to_text(&rules, &schema, &kb);
    let back = parse_rules(&rendered, &schema, &kb).unwrap();
    assert_eq!(rules.len(), back.len());
    for (a, b) in rules.iter().zip(&back) {
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.evidence(), b.evidence());
    }
}
