//! Acceptance test for the observability layer (DESIGN.md §4d): a
//! `table3` run with `--metrics` semantics produces counter totals that
//! reconcile EXACTLY with its rows' resilience and snapshot counters.
//! There is no second bookkeeping path to drift: the report counters and
//! the metric cells are the same storage.

use dr_eval::exp1::{table3, Exp1Config};
use dr_obs::{MetricsSnapshot, Obs};
use std::sync::Arc;

fn outcome_total(snap: &MetricsSnapshot, outcome: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|c| {
            c.name == "repair_tuples_total" && c.labels.contains(&format!("outcome=\"{outcome}\""))
        })
        .map(|c| c.value)
        .sum()
}

#[test]
fn table3_metrics_reconcile_with_report_columns() {
    let dir = std::env::temp_dir().join(format!("dr-obs-reconcile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let obs = Arc::new(Obs::new());
    let cfg = Exp1Config {
        nobel_size: 120,
        uis_size: 150,
        error_rate: 0.10,
        seed: 17,
        cache_dir: Some(dir.clone()),
        obs: Some(Arc::clone(&obs)),
    };
    let rows = table3(&cfg);
    std::fs::remove_dir_all(&dir).ok();
    let snap = obs.metrics().snapshot();

    // Resilience counters, summed over every row: KATARA rows are
    // all-zero by construction, DR rows carry the real counters.
    let degraded: u64 = rows.iter().map(|r| r.resilience.degraded as u64).sum();
    let failed: u64 = rows.iter().map(|r| r.resilience.failed as u64).sum();
    let quarantined: u64 = rows.iter().map(|r| r.resilience.quarantined as u64).sum();
    assert_eq!(outcome_total(&snap, "degraded"), degraded);
    assert_eq!(outcome_total(&snap, "failed"), failed);
    assert_eq!(snap.counter_total("repair_quarantined_total"), quarantined);

    // Snapshot counters: every registry the run built is registered into
    // the same metric store, so the lifetime totals match the per-row sums
    // exactly.
    let warm: u64 = rows.iter().map(|r| r.snapshot.warm_loads).sum();
    let cold: u64 = rows.iter().map(|r| r.snapshot.cold_loads).sum();
    let rejected: u64 = rows.iter().map(|r| r.snapshot.rejected).sum();
    let saves: u64 = rows.iter().map(|r| r.snapshot.saves).sum();
    assert_eq!(snap.counter_total("snapshot_warm_loads_total"), warm);
    assert_eq!(snap.counter_total("snapshot_cold_loads_total"), cold);
    assert_eq!(snap.counter_total("snapshot_rejected_total"), rejected);
    assert_eq!(snap.counter_total("snapshot_saves_total"), saves);
    assert!(saves >= 1, "a cache-dir run persists snapshots");

    // The run repaired real tuples and timed its phases.
    assert!(snap.counter_total("repair_tuples_total") > 0);
    let repair_nanos = snap
        .counter("repair_phase_seconds", "phase=\"repair\"")
        .unwrap_or(0);
    assert!(repair_nanos > 0, "repair phase time recorded");

    // And the Prometheus rendering carries the same families the CI leg
    // greps for.
    let prom = snap.render_prom();
    assert!(prom.contains("repair_phase_seconds"));
    assert!(prom.contains("repair_tuples_total"));
    assert!(prom.contains("snapshot_saves_total"));
}

/// The same reconciliation discipline on a run that actually *faults*:
/// injected panics force per-row failure isolation, and the metric totals
/// must still mirror the stitched report exactly, with every row run once
/// (`--features fault-injection`).
#[cfg(feature = "fault-injection")]
mod faulted {
    use super::outcome_total;
    use dr_core::fixtures::{figure4_rules, nobel_schema, table1_dirty};
    use dr_core::repair::fault::silence_injected_panics;
    use dr_core::{
        parallel_repair, Fault, FaultPlan, FaultSpec, MatchContext, ParallelOptions, TupleOutcome,
    };
    use dr_obs::Obs;
    use dr_relation::Relation;
    use std::sync::Arc;

    #[test]
    fn faulted_run_reconciles_metrics_with_report() {
        silence_injected_panics();
        let kb = dr_kb::fixtures::nobel_mini_kb();
        let rules = figure4_rules(&kb);

        // Table I stacked to 80 rows.
        let base = table1_dirty();
        let mut relation = Relation::new(nobel_schema());
        for _ in 0..20 {
            for t in base.tuples() {
                relation.push(t.clone());
            }
        }
        let rows = relation.len();

        // ~20% of rows panic, plus rows 1 and 5.
        let plan = FaultPlan::seeded(0xC0FFEE, rows, FaultSpec::panics(0.20))
            .with_fault(1, Fault::Panic)
            .with_fault(5, Fault::Panic);
        let panicking = plan.panicking_rows().len();
        assert!(panicking > 2, "seeded plan must draw panics of its own");

        let obs = Arc::new(Obs::new());
        let ctx = MatchContext::new(&kb).with_obs(Arc::clone(&obs));
        let opts = ParallelOptions {
            threads: 4,
            fault_plan: Some(Arc::new(plan)),
            ..Default::default()
        };
        let report = parallel_repair(&ctx, &rules, &mut relation, &opts);
        let snap = obs.metrics().snapshot();

        // Outcome counters mirror the report, and every row is accounted
        // for exactly once.
        let completed = report
            .tuples
            .iter()
            .filter(|t| t.outcome.is_completed())
            .count() as u64;
        assert_eq!(outcome_total(&snap, "completed"), completed);
        assert_eq!(
            outcome_total(&snap, "degraded"),
            report.resilience.degraded as u64
        );
        assert_eq!(
            outcome_total(&snap, "failed"),
            report.resilience.failed as u64
        );
        assert_eq!(
            snap.counter_total("repair_tuples_total"),
            rows as u64,
            "every row counted exactly once"
        );

        // Exactly the planned rows failed, rows 1 and 5 among them.
        assert_eq!(report.resilience.failed, panicking);
        assert!(
            matches!(report.tuples[1].outcome, TupleOutcome::Failed { .. })
                && matches!(report.tuples[5].outcome, TupleOutcome::Failed { .. })
        );

        // Rule applications: the per-rule counters sum to the steps the
        // report carries.
        let steps: u64 = report.tuples.iter().map(|t| t.steps.len() as u64).sum();
        assert_eq!(snap.counter_total("repair_rules_applied_total"), steps);

        // Per-tuple latency histogram: failed rows never record (a
        // panicked row unwinds before the sample), so count == completed +
        // degraded.
        let tuple_hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "repair_tuple_seconds")
            .expect("repair_tuple_seconds recorded");
        assert_eq!(
            tuple_hist.count,
            completed + report.resilience.degraded as u64,
            "histogram count == completed + degraded (no Failed samples)"
        );

        // Scheduler accounting: each row is claimed once, panicked or not.
        assert_eq!(
            snap.counter_total("scheduler_rows_claimed_total"),
            rows as u64
        );
    }
}
