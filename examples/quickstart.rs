//! Quickstart: the paper's running example end to end.
//!
//! Builds the Figure-1 knowledge base, the Table-I relation, and the four
//! detective rules of Figure 4, then repairs the table and prints every
//! step — reproducing Examples 5–9 of the paper.
//!
//! Run with: `cargo run -p dr-examples --bin quickstart`

use dr_core::fixtures::{figure4_rules, nobel_schema, table1_clean, table1_dirty};
use dr_core::{fast_repair, ApplyOptions, MatchContext, RuleApplication};
use dr_kb::fixtures::nobel_mini_kb;
use dr_relation::GroundTruth;

fn main() {
    // 1. The knowledge base: the Figure-1 excerpt extended to all four
    //    laureates of Table I.
    let kb = nobel_mini_kb();
    println!("knowledge base: {kb:?}\n");

    // 2. The dirty relation (Table I as published).
    let schema = nobel_schema();
    let mut relation = table1_dirty();
    println!("dirty relation:");
    for tuple in relation.tuples() {
        println!("  {}", tuple.display(&schema));
    }

    // 3. The four detective rules of Figure 4.
    let rules = figure4_rules(&kb);
    println!("\nrules:");
    for rule in &rules {
        print!("{}", rule.render(&kb, &schema));
    }

    // 4. Repair with the fast algorithm (Algorithm 2).
    let ctx = MatchContext::new(&kb);
    let report = fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());

    println!("\nrepair trace:");
    for (row, tuple_report) in report.tuples.iter().enumerate() {
        for step in &tuple_report.steps {
            match &step.application {
                RuleApplication::Repaired { col, old, new, .. } => println!(
                    "  r{}: {} repaired {} \"{}\" -> \"{}\"",
                    row + 1,
                    step.rule_name,
                    schema.attr_name(*col),
                    old,
                    new
                ),
                RuleApplication::ProofPositive { newly_marked, .. } => println!(
                    "  r{}: {} marked {:?} positive",
                    row + 1,
                    step.rule_name,
                    newly_marked
                        .iter()
                        .map(|&c| schema.attr_name(c))
                        .collect::<Vec<_>>()
                ),
                RuleApplication::DetectedWrong { col, .. } => println!(
                    "  r{}: {} flagged {} as wrong (no repair in KB)",
                    row + 1,
                    step.rule_name,
                    schema.attr_name(*col)
                ),
                RuleApplication::NotApplicable => {}
            }
        }
    }

    println!("\nrepaired relation:");
    for tuple in relation.tuples() {
        println!("  {}", tuple.display(&schema));
    }

    // 5. Check against the published corrections.
    let gt = GroundTruth::new(table1_clean());
    let leftover = gt.error_count(&relation);
    println!("\nremaining errors vs Table I ground truth: {leftover}");
    assert_eq!(leftover, 0, "the running example repairs completely");
}
