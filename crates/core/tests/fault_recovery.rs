//! Fault-injection recovery tests (DESIGN.md §4c; `--features
//! fault-injection`): a deterministic [`FaultPlan`] drives the *real*
//! work-stealing scheduler through panics, stragglers, and forced budget
//! exhaustion, and the run must degrade per-row — never per-relation.

#![cfg(feature = "fault-injection")]

use dr_core::fixtures::{figure4_rules, nobel_schema, table1_dirty};
use dr_core::repair::fault::silence_injected_panics;
use dr_core::{
    fast_repair, parallel_repair, ApplyOptions, CacheRegistry, ExhaustCause, Fault, FaultPlan,
    FaultSpec, MatchContext, ParallelOptions, RelationReport, TupleOutcome,
};
use dr_relation::Relation;
use proptest::prelude::*;
use std::sync::Arc;

/// Table I repeated `copies` times.
fn stacked_table1(copies: usize) -> Relation {
    let base = table1_dirty();
    let mut relation = Relation::new(nobel_schema());
    for _ in 0..copies {
        for t in base.tuples() {
            relation.push(t.clone());
        }
    }
    relation
}

fn faulted_opts(threads: usize, plan: FaultPlan) -> ParallelOptions {
    ParallelOptions {
        threads,
        fault_plan: Some(Arc::new(plan)),
        ..Default::default()
    }
}

/// Row-set of tuples reported `Failed`.
fn failed_rows(report: &RelationReport) -> Vec<usize> {
    report
        .tuples
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t.outcome, TupleOutcome::Failed { .. }))
        .map(|(row, _)| row)
        .collect()
}

/// The ISSUE acceptance scenario: a seeded plan panics ~10% of rows at 8
/// threads. The relation completes, every row is claimed exactly once,
/// exactly the planned rows report `Failed` (payload preserved), every
/// other row is bit-identical to a fault-free run, and the shared
/// `CacheRegistry` still serves warm hits to the next relation.
#[test]
fn seeded_ten_percent_panics_at_eight_threads() {
    silence_injected_panics();
    let kb = dr_kb::fixtures::nobel_mini_kb();
    let rules = figure4_rules(&kb);

    // Fault-free reference, no registry.
    let free_ctx = MatchContext::new(&kb);
    let mut free = stacked_table1(20); // 80 rows
    let free_report = fast_repair(&free_ctx, &rules, &mut free, &ApplyOptions::default());

    let plan = FaultPlan::seeded(0xDEAD_BEEF, free.len(), FaultSpec::panics(0.10));
    let panicking = plan.panicking_rows();
    assert!(
        (4..=16).contains(&panicking.len()),
        "~10% of 80 rows: {panicking:?}"
    );

    let registry = Arc::new(CacheRegistry::default());
    let obs = Arc::new(dr_obs::Obs::new());
    let ctx = MatchContext::with_registry(&kb, Arc::clone(&registry));
    let pristine = stacked_table1(20);
    let mut faulted = stacked_table1(20);
    let report = parallel_repair(
        &ctx.fork().with_obs(Arc::clone(&obs)),
        &rules,
        &mut faulted,
        &faulted_opts(8, plan),
    );

    // The relation completed; exactly the planned rows failed, and each
    // row (panicked or not) ran once.
    assert_eq!(report.tuples.len(), free.len());
    assert_eq!(failed_rows(&report), panicking);
    assert_eq!(report.resilience.failed, panicking.len());
    assert_eq!(
        obs.metrics()
            .snapshot()
            .counter_total("scheduler_rows_claimed_total"),
        free.len() as u64,
        "a panicked row is reported Failed once, never re-run"
    );
    assert_eq!(report.resilience.degraded, 0);
    for &row in &panicking {
        match &report.tuples[row].outcome {
            TupleOutcome::Failed { message } => {
                assert!(
                    message.contains(&format!("row {row}")),
                    "payload names the row: {message}"
                );
            }
            other => panic!("row {row}: {other:?}"),
        }
    }
    // The fault fires before the tuple is touched: panicked rows are left
    // exactly as loaded.
    for cell in pristine.cell_refs() {
        if panicking.contains(&cell.row) {
            assert_eq!(
                pristine.value(cell),
                faulted.value(cell),
                "panicked row {} left as loaded",
                cell.row
            );
        }
    }
    // All other rows: bit-identical tuples and traces.
    for cell in free.cell_refs() {
        if panicking.contains(&cell.row) {
            continue;
        }
        assert_eq!(free.value(cell), faulted.value(cell), "{cell:?}");
        assert_eq!(
            free.tuple(cell.row).is_positive(cell.attr),
            faulted.tuple(cell.row).is_positive(cell.attr)
        );
    }
    for (row, (a, b)) in free_report.tuples.iter().zip(&report.tuples).enumerate() {
        if !panicking.contains(&row) {
            assert_eq!(a, b, "row {row} trace diverged");
        }
    }

    // The registry survived the panics: the next same-schema relation gets
    // the warm cache and repairs identically to the fault-free reference.
    let before_hits = registry.stats().warm_hits;
    let mut next = stacked_table1(20);
    let next_report = parallel_repair(
        &ctx,
        &rules,
        &mut next,
        &ParallelOptions {
            threads: 8,
            ..Default::default()
        },
    );
    assert!(
        registry.stats().warm_hits > before_hits,
        "registry serves warm hits after a faulted run: {:?}",
        registry.stats()
    );
    assert!(
        next_report.cache.hits() > 0,
        "warm cache actually reused: {:?}",
        next_report.cache
    );
    assert!(next_report.resilience.is_clean());
    for cell in free.cell_refs() {
        assert_eq!(free.value(cell), next.value(cell), "warm run diverged");
    }
}

/// A `Fault::Panic` row runs once at every thread count: it reports
/// `Failed` (payload preserved, tuple left as loaded), the scheduler claims
/// each row exactly once, and the outcome counters match the report.
#[test]
fn panicked_rows_run_once() {
    silence_injected_panics();
    let kb = dr_kb::fixtures::nobel_mini_kb();
    let rules = figure4_rules(&kb);
    let pristine = stacked_table1(3); // 12 rows

    for threads in [1usize, 2, 4, 8] {
        let obs = Arc::new(dr_obs::Obs::new());
        let ctx = MatchContext::new(&kb).with_obs(Arc::clone(&obs));
        let plan = FaultPlan::new()
            .with_fault(1, Fault::Panic)
            .with_fault(6, Fault::Panic);
        let mut relation = stacked_table1(3);
        let report = parallel_repair(&ctx, &rules, &mut relation, &faulted_opts(threads, plan));

        assert_eq!(failed_rows(&report), vec![1, 6], "{threads} threads");
        assert_eq!(report.resilience.failed, 2);
        for row in [1usize, 6] {
            match &report.tuples[row].outcome {
                TupleOutcome::Failed { message } => {
                    assert!(message.contains(&format!("row {row}")), "{message}");
                }
                other => panic!("row {row}: {other:?}"),
            }
        }
        for cell in pristine.cell_refs() {
            if [1usize, 6].contains(&cell.row) {
                assert_eq!(
                    pristine.value(cell),
                    relation.value(cell),
                    "panicked row {} left as loaded",
                    cell.row
                );
            }
        }

        let snap = obs.metrics().snapshot();
        assert_eq!(
            snap.counter_total("scheduler_rows_claimed_total"),
            relation.len() as u64,
            "{threads} threads: every row claimed exactly once"
        );
        assert_eq!(
            snap.counter("repair_tuples_total", "algo=\"fast\",outcome=\"completed\""),
            Some((relation.len() - 2) as u64)
        );
        assert_eq!(
            snap.counter("repair_tuples_total", "algo=\"fast\",outcome=\"failed\""),
            Some(2)
        );
        assert_eq!(snap.counter_total("repair_quarantined_total"), 0);
    }
}

/// Slow rows are stragglers, not failures: the run completes with every
/// outcome `Completed` and results bit-identical to fault-free.
#[test]
fn slow_rows_complete_identically() {
    silence_injected_panics();
    let kb = dr_kb::fixtures::nobel_mini_kb();
    let rules = figure4_rules(&kb);
    let ctx = MatchContext::new(&kb);

    let mut free = stacked_table1(4);
    let free_report = fast_repair(&ctx, &rules, &mut free, &ApplyOptions::default());

    let plan = FaultPlan::new()
        .with_fault(0, Fault::Slow(std::time::Duration::from_millis(30)))
        .with_fault(7, Fault::Slow(std::time::Duration::from_millis(30)));
    let mut slow = stacked_table1(4);
    let report = parallel_repair(&ctx, &rules, &mut slow, &faulted_opts(4, plan));
    assert!(report.tuples.iter().all(|t| t.outcome.is_completed()));
    assert_eq!(free_report.tuples, report.tuples);
    for cell in free.cell_refs() {
        assert_eq!(free.value(cell), slow.value(cell));
    }
}

/// Forced budget exhaustion degrades exactly the planned rows, with cause
/// `Forced`, zero steps spent, and the tuple left as loaded.
#[test]
fn forced_exhaustion_degrades_planned_rows() {
    silence_injected_panics();
    let kb = dr_kb::fixtures::nobel_mini_kb();
    let rules = figure4_rules(&kb);
    let ctx = MatchContext::new(&kb);

    let plan = FaultPlan::new()
        .with_fault(2, Fault::ExhaustBudget)
        .with_fault(5, Fault::ExhaustBudget);
    let pristine = stacked_table1(3);
    let mut relation = stacked_table1(3);
    let report = parallel_repair(&ctx, &rules, &mut relation, &faulted_opts(4, plan));

    assert_eq!(report.resilience.degraded, 2);
    assert_eq!(report.resilience.failed, 0);
    for row in [2usize, 5] {
        match &report.tuples[row].outcome {
            TupleOutcome::Degraded { reason } => {
                assert_eq!(reason.cause, ExhaustCause::Forced);
                assert_eq!(reason.steps, 0, "tripped before any work");
            }
            other => panic!("row {row}: {other:?}"),
        }
        assert!(report.tuples[row].steps.is_empty());
    }
    for cell in pristine.cell_refs() {
        if [2usize, 5].contains(&cell.row) {
            assert_eq!(
                pristine.value(cell),
                relation.value(cell),
                "degraded row {} left as loaded",
                cell.row
            );
        }
    }
}

/// An empty plan routes through the scheduler unchanged.
#[test]
fn empty_plan_is_transparent() {
    let kb = dr_kb::fixtures::nobel_mini_kb();
    let rules = figure4_rules(&kb);
    let ctx = MatchContext::new(&kb);
    let mut free = stacked_table1(2);
    let free_report = fast_repair(&ctx, &rules, &mut free, &ApplyOptions::default());
    let mut faulted = stacked_table1(2);
    let report = parallel_repair(
        &ctx,
        &rules,
        &mut faulted,
        &faulted_opts(2, FaultPlan::new()),
    );
    assert_eq!(free_report.tuples, report.tuples);
    assert!(report.resilience.is_clean());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: random per-row faults (panic or forced
    /// exhaustion) at any thread count leave every *unaffected* row
    /// bit-identical to a fault-free run — and the registry's warm-cache
    /// equivalence (PR 2) still holds after the faulted run.
    #[test]
    fn faulted_runs_isolate_damage(
        seed in any::<u64>(),
        panic_rate in 0.0f64..0.25,
        exhaust_rate in 0.0f64..0.35,
        threads_idx in 0usize..4,
    ) {
        let threads = [1usize, 2, 4, 8][threads_idx];
        silence_injected_panics();
        let kb = dr_kb::fixtures::nobel_mini_kb();
        let rules = figure4_rules(&kb);

        let free_ctx = MatchContext::new(&kb);
        let mut free = stacked_table1(6); // 24 rows
        let free_report = fast_repair(&free_ctx, &rules, &mut free, &ApplyOptions::default());

        let plan = FaultPlan::seeded(seed, free.len(), FaultSpec {
            panic_rate,
            exhaust_rate,
            ..Default::default()
        });
        let disturbed = plan.disturbed_rows();
        let panicking = plan.panicking_rows();
        let exhausted = plan.exhausted_rows();

        let registry = Arc::new(CacheRegistry::default());
        let ctx = MatchContext::with_registry(&kb, Arc::clone(&registry));
        let mut faulted = stacked_table1(6);
        let report = parallel_repair(&ctx, &rules, &mut faulted, &faulted_opts(threads, plan));

        // Outcome bookkeeping matches the plan exactly.
        prop_assert_eq!(failed_rows(&report), panicking.clone());
        prop_assert_eq!(report.resilience.failed, panicking.len());
        prop_assert_eq!(report.resilience.degraded, exhausted.len());

        // Unaffected rows: bit-identical tuples and traces.
        for cell in free.cell_refs() {
            if disturbed.contains(&cell.row) {
                continue;
            }
            prop_assert_eq!(free.value(cell), faulted.value(cell));
            prop_assert_eq!(
                free.tuple(cell.row).is_positive(cell.attr),
                faulted.tuple(cell.row).is_positive(cell.attr)
            );
        }
        for (row, (a, b)) in free_report.tuples.iter().zip(&report.tuples).enumerate() {
            if !disturbed.contains(&row) {
                prop_assert_eq!(a, b, "row {} trace diverged", row);
            }
        }

        // PR 2's warm-cache equivalence, post-fault: a fault-free repair
        // through the surviving registry equals the registry-free one.
        let mut warm = stacked_table1(6);
        let warm_report = fast_repair(&ctx, &rules, &mut warm, &ApplyOptions::default());
        prop_assert_eq!(&free_report.tuples, &warm_report.tuples);
        for cell in free.cell_refs() {
            prop_assert_eq!(free.value(cell), warm.value(cell));
        }
    }
}
