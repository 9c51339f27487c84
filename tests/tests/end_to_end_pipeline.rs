//! End-to-end pipeline tests spanning every crate: generate a world, build
//! its KBs, inject noise, check consistency, repair with both algorithms,
//! and score — the complete §V methodology at test scale.

use dr_core::fast_repair;
use dr_core::repair::basic::basic_repair;
use dr_core::rule::consistency::check_consistency;
use dr_core::{ApplyOptions, MatchContext};
use dr_datasets::{KbFlavor, KbProfile, NobelWorld, UisWorld};
use dr_eval::{evaluate, RepairExtras};
use dr_relation::noise::{inject, NoiseSpec};

#[test]
fn nobel_pipeline_both_algorithms_agree_cell_for_cell() {
    let world = NobelWorld::generate(150, 42);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(0.12, 42).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let kb = world.kb(&KbProfile::of(flavor));
        let rules = NobelWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);

        let mut via_basic = dirty.clone();
        basic_repair(&ctx, &rules, &mut via_basic, &ApplyOptions::default());
        let mut via_fast = dirty.clone();
        fast_repair(&ctx, &rules, &mut via_fast, &ApplyOptions::default());

        for cell in dirty.cell_refs() {
            assert_eq!(
                via_basic.value(cell),
                via_fast.value(cell),
                "{flavor:?}: algorithms diverged at {cell:?}"
            );
            assert_eq!(
                via_basic.tuple(cell.row).is_positive(cell.attr),
                via_fast.tuple(cell.row).is_positive(cell.attr),
                "{flavor:?}: marks diverged at {cell:?}"
            );
        }
    }
}

#[test]
fn uis_pipeline_quality_and_consistency() {
    let world = UisWorld::generate(300, 77);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(0.10, 77).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    let kb = world.kb(&KbProfile::yago());
    let rules = UisWorld::rules(&kb);
    let ctx = MatchContext::new(&kb);

    let verdict = check_consistency(&ctx, &rules, &dirty, &ApplyOptions::default());
    assert!(verdict.is_consistent(), "{verdict:?}");

    let mut repaired = dirty.clone();
    let report = fast_repair(&ctx, &rules, &mut repaired, &ApplyOptions::default());
    let extras = RepairExtras::from_report(&report);
    let quality = evaluate(&clean, &dirty, &repaired, &extras);
    assert!(quality.precision > 0.98, "{quality:?}");
    assert!(quality.recall > 0.6, "{quality:?}");
    assert!(repaired.positive_count() > dirty.len() * 3, "rich marking");
}

#[test]
fn repair_is_idempotent() {
    // Running the repairer twice changes nothing the second time: the
    // fixpoint is stable (termination, §III-B).
    let world = NobelWorld::generate(80, 5);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(0.15, 5).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    let kb = world.kb(&KbProfile::yago());
    let rules = NobelWorld::rules(&kb);
    let ctx = MatchContext::new(&kb);

    let mut once = dirty.clone();
    fast_repair(&ctx, &rules, &mut once, &ApplyOptions::default());
    let mut twice = once.clone();
    let second_report = fast_repair(&ctx, &rules, &mut twice, &ApplyOptions::default());
    for cell in once.cell_refs() {
        assert_eq!(once.value(cell), twice.value(cell));
    }
    // The second pass may re-mark (marks aren't persisted as rule state),
    // but must not rewrite any value.
    assert_eq!(second_report.total_changes(), 0);
}

#[test]
fn marks_only_grow_and_are_never_overwritten() {
    let world = NobelWorld::generate(60, 11);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(0.2, 11).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    let kb = world.kb(&KbProfile::yago());
    let rules = NobelWorld::rules(&kb);
    let ctx = MatchContext::new(&kb);

    let mut relation = dirty.clone();
    let report = fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
    // Every repair step's rewritten column must not have been positive
    // before that step within the same tuple.
    for (row, tuple_report) in report.tuples.iter().enumerate() {
        let mut marked: Vec<dr_relation::AttrId> = Vec::new();
        for step in &tuple_report.steps {
            if let dr_core::RuleApplication::Repaired { col, .. } = &step.application {
                assert!(
                    !marked.contains(col),
                    "row {row}: rewrote a previously marked column"
                );
            }
            match &step.application {
                dr_core::RuleApplication::Repaired { newly_marked, .. }
                | dr_core::RuleApplication::ProofPositive { newly_marked, .. } => {
                    for &c in newly_marked {
                        assert!(!marked.contains(&c), "double-marking {c:?}");
                        marked.push(c);
                    }
                }
                dr_core::RuleApplication::DetectedWrong { newly_marked, .. } => {
                    for &c in newly_marked {
                        assert!(!marked.contains(&c), "double-marking {c:?}");
                        marked.push(c);
                    }
                }
                dr_core::RuleApplication::NotApplicable => {}
            }
        }
    }
}
