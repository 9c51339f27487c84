//! Reconciliation tests between the metric registry and the report-side
//! stat structs (DESIGN.md §4d).
//!
//! The obs layer exists to kill dual bookkeeping: the `ValueCache` and
//! `CacheRegistry` counters *are* the registered metric cells, and the
//! repair counters are recorded from the tallied `RelationReport`. These
//! tests drive real repairs at thread counts 1/2/4/8 and assert the merged
//! per-worker metric totals equal the sequentially-accumulated report
//! totals exactly — the drift a `ResilienceReport::+=` /
//! `CacheStats::delta_since` mismatch would produce.

use dr_core::{parallel_repair, MatchContext, ParallelOptions, RelationReport};
use dr_kb::fixtures::nobel_mini_kb;
use dr_obs::Obs;
use proptest::prelude::*;
use std::sync::Arc;

fn duplicated_table(copies: usize) -> dr_relation::Relation {
    let mut relation = dr_relation::Relation::new(dr_core::fixtures::nobel_schema());
    let base = dr_core::fixtures::table1_dirty();
    for _ in 0..copies {
        for t in base.tuples() {
            relation.push(t.clone());
        }
    }
    relation
}

/// Sums the per-worker `scheduler_rows_claimed_total{worker=...}` series.
fn rows_claimed(snap: &dr_obs::MetricsSnapshot) -> u64 {
    snap.counter_total("scheduler_rows_claimed_total")
}

fn assert_reconciles(obs: &Obs, report: &RelationReport, threads: usize) {
    let snap = obs.metrics().snapshot();
    let tuples = report.tuples.len() as u64;
    assert_eq!(
        snap.counter_total("repair_tuples_total"),
        tuples,
        "threads={threads}: outcome counters must cover every tuple"
    );
    let completed = tuples - report.resilience.degraded as u64 - report.resilience.failed as u64;
    assert_eq!(
        snap.counter("repair_tuples_total", "algo=\"fast\",outcome=\"completed\"")
            .unwrap_or(0),
        completed,
        "threads={threads}"
    );
    assert_eq!(
        snap.counter_total("repair_quarantined_total"),
        report.resilience.quarantined as u64
    );
    // Cache counters: the context had no registry, so the relation-scoped
    // cache is fresh and its lifetime cells equal the report's delta.
    assert_eq!(
        snap.counter_total("value_cache_node_hits_total"),
        report.cache.node_hits
    );
    assert_eq!(
        snap.counter_total("value_cache_node_misses_total"),
        report.cache.node_misses
    );
    assert_eq!(
        snap.counter_total("value_cache_edge_hits_total"),
        report.cache.edge_hits
    );
    assert_eq!(
        snap.counter_total("value_cache_edge_misses_total"),
        report.cache.edge_misses
    );
    // Rule applications: one counter advance per recorded step.
    assert_eq!(
        snap.counter_total("repair_rules_applied_total"),
        report.total_applications() as u64
    );
    // Phase seconds mirror the report's timings (stored as nanoseconds).
    assert_eq!(
        snap.counter("repair_phase_seconds", "phase=\"repair\"")
            .unwrap_or(0),
        report.timing.repair.as_nanos() as u64
    );
    // One scheduler runs at every thread count: `min(threads, rows)`
    // workers, every row claimed exactly once, and the per-tuple latency
    // histogram saw every row.
    let workers = snap
        .gauges
        .iter()
        .find(|g| g.name == "scheduler_workers")
        .map(|g| g.value);
    assert_eq!(
        workers,
        Some(threads.min(report.tuples.len()) as u64),
        "threads={threads}"
    );
    assert_eq!(rows_claimed(&snap), tuples, "threads={threads}");
    let steals = snap.counter_total("scheduler_steal_attempts_total");
    assert!(steals > 0, "threads={threads}: workers made claim attempts");
    let hist = snap
        .histograms
        .iter()
        .find(|h| h.name == "repair_tuple_seconds")
        .expect("tuple latency histogram registered");
    assert_eq!(hist.count, tuples);
}

#[test]
fn metrics_reconcile_with_reports_at_every_thread_count() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    for threads in [1usize, 2, 4, 8] {
        let obs = Arc::new(Obs::new());
        let ctx = MatchContext::new(&kb).with_obs(Arc::clone(&obs));
        let mut relation = duplicated_table(6);
        let report = parallel_repair(
            &ctx,
            &rules,
            &mut relation,
            &ParallelOptions {
                threads,
                ..Default::default()
            },
        );
        assert_reconciles(&obs, &report, threads);
    }
}

/// Accumulating several relations into one registry matches the
/// `+=`-style sequential accumulation of their reports.
#[test]
fn metrics_accumulate_across_relations() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let obs = Arc::new(Obs::new());
    let mut total_tuples = 0u64;
    let mut total_apps = 0u64;
    for copies in [1usize, 2, 3] {
        let ctx = MatchContext::new(&kb).with_obs(Arc::clone(&obs));
        let mut relation = duplicated_table(copies);
        let report = parallel_repair(
            &ctx,
            &rules,
            &mut relation,
            &ParallelOptions {
                threads: 4,
                ..Default::default()
            },
        );
        total_tuples += report.tuples.len() as u64;
        total_apps += report.total_applications() as u64;
    }
    let snap = obs.metrics().snapshot();
    assert_eq!(snap.counter_total("repair_tuples_total"), total_tuples);
    assert_eq!(snap.counter_total("repair_rules_applied_total"), total_apps);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded counters merged across worker threads equal the sequential
    /// sum, for any increment schedule and thread count in {1, 2, 4, 8}.
    #[test]
    fn sharded_counters_merge_exactly(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(1u64..1000, 0..50),
            1..=8,
        ),
    ) {
        for threads in [1usize, 2, 4, 8] {
            let registry = dr_obs::MetricRegistry::new();
            let counter = registry.counter("merge_test_total", &[]);
            let schedules: Vec<Vec<u64>> = per_thread
                .iter()
                .cycle()
                .take(threads)
                .cloned()
                .collect();
            let expected: u64 = schedules.iter().flatten().sum();
            std::thread::scope(|scope| {
                for schedule in &schedules {
                    let counter = counter.clone();
                    scope.spawn(move || {
                        for &n in schedule {
                            counter.add(n);
                        }
                    });
                }
            });
            prop_assert_eq!(counter.get(), expected);
            prop_assert_eq!(
                registry.snapshot().counter_total("merge_test_total"),
                expected
            );
        }
    }

    /// Thread count never changes the merged totals of a real repair —
    /// the parallel merge is exact, not approximate.
    #[test]
    fn repair_totals_are_thread_count_invariant(threads_idx in 0usize..4) {
        let threads = [1usize, 2, 4, 8][threads_idx];
        let kb = nobel_mini_kb();
        let rules = dr_core::fixtures::figure4_rules(&kb);

        let baseline_obs = Arc::new(Obs::new());
        let ctx = MatchContext::new(&kb).with_obs(Arc::clone(&baseline_obs));
        let mut relation = duplicated_table(4);
        let baseline = parallel_repair(&ctx, &rules, &mut relation, &ParallelOptions::default());

        let obs = Arc::new(Obs::new());
        let ctx = MatchContext::new(&kb).with_obs(Arc::clone(&obs));
        let mut relation = duplicated_table(4);
        let report = parallel_repair(
            &ctx,
            &rules,
            &mut relation,
            &ParallelOptions { threads, ..Default::default() },
        );
        let snap = obs.metrics().snapshot();
        prop_assert_eq!(report.total_applications(), baseline.total_applications());
        prop_assert_eq!(
            snap.counter_total("repair_tuples_total"),
            report.tuples.len() as u64
        );
        prop_assert_eq!(
            snap.counter_total("repair_rules_applied_total"),
            report.total_applications() as u64
        );
        // Total cache traffic (hits + misses) is a deterministic function
        // of the data and rules; only the hit/miss split is scheduling-
        // dependent. The registered cells must agree with the report on
        // both the split and the total.
        prop_assert_eq!(
            snap.counter_total("value_cache_node_hits_total")
                + snap.counter_total("value_cache_node_misses_total"),
            report.cache.node_hits + report.cache.node_misses
        );
        prop_assert_eq!(
            snap.counter_total("value_cache_edge_hits_total"),
            report.cache.edge_hits
        );
        prop_assert_eq!(
            snap.counter_total("value_cache_edge_misses_total"),
            report.cache.edge_misses
        );
    }
}
