//! The paper's running example, end to end across crates: Figure 1 (KB),
//! Table I (relation), Figure 4 (rules), Examples 5–10 (semantics), scored
//! with the §V metrics.

use dr_core::fast_repair;
use dr_core::fixtures::{figure4_rules, nobel_schema, table1_clean, table1_dirty};
use dr_core::repair::multi::{multi_repair_tuple, MultiOptions};
use dr_core::rule::consistency::check_consistency;
use dr_core::{ApplyOptions, MatchContext};
use dr_eval::{evaluate, RepairExtras};
use dr_kb::fixtures::nobel_mini_kb;

#[test]
fn table1_repairs_with_perfect_quality() {
    let kb = nobel_mini_kb();
    let rules = figure4_rules(&kb);
    let ctx = MatchContext::new(&kb);

    let clean = table1_clean();
    let dirty = table1_dirty();
    let mut repaired = dirty.clone();
    let report = fast_repair(&ctx, &rules, &mut repaired, &ApplyOptions::default());

    let extras = RepairExtras::from_report(&report);
    let quality = evaluate(&clean, &dirty, &repaired, &extras);
    assert_eq!(quality.precision, 1.0, "{quality:?}");
    assert_eq!(quality.recall, 1.0, "{quality:?}");
    assert_eq!(quality.errors, 7, "Table I has seven highlighted errors");

    // Every cell of every tuple ends positively marked (Examples 7 and 9).
    assert_eq!(repaired.positive_count(), 24);
}

#[test]
fn figure4_rules_are_consistent() {
    let kb = nobel_mini_kb();
    let rules = figure4_rules(&kb);
    let ctx = MatchContext::new(&kb);
    let verdict = check_consistency(&ctx, &rules, &table1_dirty(), &ApplyOptions::default());
    assert!(verdict.is_consistent());
}

#[test]
fn example10_multi_version_fixpoints() {
    let kb = nobel_mini_kb();
    let rules = figure4_rules(&kb);
    let ctx = MatchContext::new(&kb);
    let schema = nobel_schema();
    let r4 = table1_dirty().tuple(3).clone();
    let versions = multi_repair_tuple(&ctx, &rules, &r4, &MultiOptions::default());
    assert_eq!(versions.len(), 2);
    let inst = schema.attr_expect("Institution");
    let cities: Vec<&str> = versions
        .iter()
        .map(|v| v.get(schema.attr_expect("City")))
        .collect();
    let insts: Vec<&str> = versions.iter().map(|v| v.get(inst)).collect();
    assert!(insts.contains(&"UC Berkeley") && insts.contains(&"University of Manchester"));
    assert!(cities.contains(&"Berkeley") && cities.contains(&"Manchester"));
}

#[test]
fn katara_on_table1_matches_paper_behaviour() {
    // KATARA full-matches nothing in the dirty Table I (every row has an
    // error) and repairs via partial matches.
    let kb = nobel_mini_kb();
    let ctx = MatchContext::new(&kb);
    let schema = nobel_schema();
    let pattern = dr_baselines::nobel_table_pattern(&kb, &schema);
    let katara = dr_baselines::Katara::new(&ctx, &pattern);
    let mut working = table1_dirty();
    let report = katara.clean(&mut working);
    assert_eq!(report.marked_positive, 0, "no dirty row fully matches");
    assert!(!report.repairs.is_empty());

    // On the clean table, everything full-matches.
    let mut clean = table1_clean();
    let report = katara.clean(&mut clean);
    assert_eq!(report.marked_positive, 24);
}
