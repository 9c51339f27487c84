//! Differential repair tests: the three repair engines — `bRepair`
//! (Algorithm 1), `fRepair` (Algorithm 2), and the work-stealing parallel
//! repairer — must produce identical relations on the Nobel and UIS
//! fixtures.
//!
//! The comparison is tiered by what each pair actually guarantees:
//!
//! * **basic vs fast** — the chase is Church–Rosser, so the *fixpoint* is
//!   shared but the per-tuple step order may differ. Compared on final
//!   values, positive marks, and the set of rewritten cells.
//! * **fast vs parallel** — `fRepair` is the work-stealing scheduler with
//!   one worker, so at any worker count the full [`RelationReport`] (steps
//!   included) must match.

use dr_core::repair::basic::basic_repair;
use dr_core::{
    fast_repair, parallel_repair, ApplyOptions, MatchContext, ParallelOptions, RelationReport,
};
use dr_datasets::{KbFlavor, KbProfile, NobelWorld, UisWorld};
use dr_kb::KnowledgeBase;
use dr_relation::noise::{inject, NoiseSpec};
use dr_relation::{AttrId, Relation};

/// The cells each tuple's trace rewrote, as a sorted per-row list.
fn rewritten_cells(report: &RelationReport) -> Vec<Vec<AttrId>> {
    report
        .tuples
        .iter()
        .map(|t| {
            let mut cols: Vec<AttrId> = t.rewrites().iter().map(|(col, _, _)| *col).collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect()
}

fn assert_same_relation(a: &Relation, b: &Relation, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: row counts diverged");
    for cell in a.cell_refs() {
        assert_eq!(a.value(cell), b.value(cell), "{label}: value at {cell:?}");
        assert_eq!(
            a.tuple(cell.row).is_positive(cell.attr),
            b.tuple(cell.row).is_positive(cell.attr),
            "{label}: positive mark at {cell:?}"
        );
    }
}

/// Runs all three engines on `(kb, rules, dirty)` and cross-checks them.
fn differential_check(kb: &KnowledgeBase, rules: &[dr_core::DetectiveRule], dirty: &Relation) {
    let ctx = MatchContext::new(kb);
    let opts = ApplyOptions::default();

    let mut basic = dirty.clone();
    let basic_report = basic_repair(&ctx, rules, &mut basic, &opts);

    let mut fast = dirty.clone();
    let fast_report = fast_repair(&ctx, rules, &mut fast, &opts);

    // Tier 1: same fixpoint, same marks, same rewritten cells.
    assert_same_relation(&basic, &fast, "basic vs fast");
    assert_eq!(
        rewritten_cells(&basic_report),
        rewritten_cells(&fast_report),
        "basic vs fast: rewritten cells diverged"
    );
    assert_eq!(
        basic_report.total_applications(),
        fast_report.total_applications(),
        "basic vs fast: application counts diverged"
    );
    assert_eq!(
        basic_report.total_changes(),
        fast_report.total_changes(),
        "basic vs fast: change counts diverged"
    );

    // Tier 2: the parallel repairer must reproduce the fast repairer's
    // report verbatim, at several worker counts.
    for threads in [2usize, 4] {
        let mut parallel = dirty.clone();
        let par_report = parallel_repair(
            &ctx,
            rules,
            &mut parallel,
            &ParallelOptions {
                threads,
                ..Default::default()
            },
        );
        let label = format!("fast vs parallel({threads} threads)");
        assert_same_relation(&fast, &parallel, &label);
        assert_eq!(
            fast_report.tuples, par_report.tuples,
            "{label}: reports diverged"
        );
    }
}

#[test]
fn engines_agree_on_nobel() {
    let world = NobelWorld::generate(120, 23);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(0.12, 23).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let kb = world.kb(&KbProfile::of(flavor));
        let rules = NobelWorld::rules(&kb);
        differential_check(&kb, &rules, &dirty);
    }
}

#[test]
fn engines_agree_on_uis() {
    let world = UisWorld::generate(150, 29);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(0.12, 29).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let kb = world.kb(&KbProfile::of(flavor));
        let rules = UisWorld::rules(&kb);
        differential_check(&kb, &rules, &dirty);
    }
}

/// The paper's own running example (Table I) through all three engines.
#[test]
fn engines_agree_on_table1() {
    let kb = dr_kb::fixtures::nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    differential_check(&kb, &rules, &dr_core::fixtures::table1_dirty());
}
