//! Relation repair: the one driver of Algorithm 2 at any thread count.
//!
//! The paper's scalability argument (§V summary) is that "repairing one
//! tuple is irrelevant to any other tuple": tuples share nothing mutable —
//! only the immutable KB, the [`MatchContext`] indexes (prewarmed up front
//! so workers never stall on an index build), and a relation-scoped
//! [`ValueCache`](crate::ValueCache) whose value-keyed entries are pure functions of the KB.
//!
//! Scheduling is work-stealing by atomic counter: every worker claims the
//! next unclaimed row with a `fetch_add`, so a worker that lands on cheap
//! rows simply claims more of them — no fixed partitioning, no stragglers
//! pinned to an expensive chunk. The calling thread is worker 0; only
//! workers `1..n` are spawned, so a one-worker repair runs entirely on the
//! caller. Per-tuple reports are written into row-indexed slots, so the
//! stitched report is in row order and the result is bit-identical at
//! every thread count.
//!
//! A row whose worker panicked is reported [`TupleOutcome::Failed`] once
//! and never re-run (DESIGN.md §4c): repairing a tuple is a pure function
//! of the KB, the rules and the tuple, so a second attempt would panic the
//! same way.
//!
//! The same independence makes a KB delta's re-repair O(delta)
//! ([`parallel_repair_selective`], DESIGN.md §10): only the rows whose
//! recorded reads the delta reaches run again, found through the prior
//! report's region → row index, and every other row of the result is the
//! prior result's own `Arc<Tuple>`. Relations share rows by reference;
//! the scheduler copies a shared row on the calling thread before the
//! workers start, so a worker never pays for copy-on-write.

use crate::context::{MatchContext, ReadSet};
use crate::repair::basic::{PhaseTimings, RelationReport, TupleReport};
use crate::repair::cache::ElementCache;
use crate::repair::fast::{FastRepairer, TupleScratch};
use crate::repair::resilience::TupleOutcome;
use crate::rule::apply::ApplyOptions;
use crate::rule::DetectiveRule;
use dr_kb::KbFootprint;
use dr_obs::{Histogram, SpanCtx, WindowHistogram};
use dr_relation::{Relation, Tuple};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Relation repair configuration.
#[derive(Debug, Clone, Default)]
pub struct ParallelOptions {
    /// Rule-application options.
    pub apply: ApplyOptions,
    /// Worker threads (0 = one per available core). The calling thread is
    /// one of them.
    pub threads: usize,
    /// Deterministic per-row faults to inject (tests only;
    /// see [`FaultPlan`](crate::repair::fault::FaultPlan)). `None` injects
    /// nothing. Every thread count runs the same scheduler, so injection
    /// behaves identically at all of them.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<std::sync::Arc<crate::repair::fault::FaultPlan>>,
}

/// One row's scheduler slot: the row's tuple, and its report and footprint
/// once a worker has repaired it.
type RowSlot<'t> = (&'t mut Tuple, Option<(TupleReport, KbFootprint)>);

/// The number of cores this process may run on, read once: reading it
/// opens cgroup files, which costs tens of microseconds per call.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Repairs `relation` with up to `threads` workers, the calling thread
/// being worker 0. The result is row for row the same at every thread
/// count.
pub fn parallel_repair(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    relation: &mut Relation,
    opts: &ParallelOptions,
) -> RelationReport {
    let threads = match opts.threads {
        0 => available_cores(),
        n => n,
    };
    let repairer = FastRepairer::new(rules);

    let obs = ctx.obs();
    // One relation span with prewarm/repair phase spans beneath it, per-row
    // spans under the repair phase, and rule spans under detailed rows
    // (`crate::obs`). Absent a traced request or a JSONL sink, every hook
    // below is one branch.
    let relation_span = crate::obs::RelationSpan::open(ctx, "fast", relation.len(), rules.len());
    let prewarm_span = relation_span.phase("prewarm");
    let prewarm_start = Instant::now();
    match &prewarm_span {
        // Prewarm under a forked context carrying the prewarm span, so
        // the index builds it triggers nest under it.
        Some(sp) => ctx.fork().with_span(sp.ctx()).prewarm(rules),
        None => ctx.prewarm(rules),
    }
    let prewarm = prewarm_start.elapsed();
    if let Some(sp) = prewarm_span {
        sp.finish();
    }
    // Every index the rules read now exists: workers read them from a
    // snapshot instead of locking the context's memo.
    let pinned = ctx.pinned();
    let ctx = &pinned;
    let tuple_hist = obs.map(|o| {
        (
            o.metrics().histogram("repair_tuple_seconds", &[]),
            o.metrics()
                .window_histogram("repair_tuple_seconds_window", &[]),
        )
    });

    let shared = ctx.value_cache_for(relation.schema());
    let before = shared.stats();
    // One "repair" phase span covers the scheduler pass; row spans parent
    // onto it through `row_span`.
    let repair_span = relation_span.phase("repair");
    let row_span = repair_span.as_ref().map(|s| s.ctx());
    let repair_start = Instant::now();
    // Each row index is claimed exactly once via `fetch_add`, so the
    // per-row mutexes are never contended — they exist to hand a
    // `&mut Tuple` through a `Sync` type. A claimed row's report and
    // footprint land in the same row-indexed slot, keeping the stitched
    // report in row order. Collecting `tuples_mut` copies every row another
    // relation still shares here, on the calling thread, before any worker
    // starts.
    let slots: Vec<Mutex<RowSlot<'_>>> = relation
        .tuples_mut()
        .map(|tuple| Mutex::new((tuple, None)))
        .collect();
    let workers = threads.min(slots.len());
    // Per-worker claim tallies: `attempts` counts every `fetch_add` on the
    // claim counter (including the final, failing one that ends the loop),
    // `claimed` counts rows actually won. A worker counts in locals and
    // publishes once, so workers share no counter line per row; exported
    // as `scheduler_*` metrics when observability is attached.
    let claimed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let attempts: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let next = AtomicUsize::new(0);
    let work = |w: usize| {
        // The worker's reusable state: one element cache (holding the
        // row's read set, which records for the report's footprints) and
        // kernel buffers for all the rows it claims.
        let mut cache = ElementCache::with_shared(&shared);
        cache.reads = ReadSet::recording();
        let mut scratch = TupleScratch::new(cache);
        let (mut won, mut tries) = (0u64, 0u64);
        loop {
            tries += 1;
            let row = next.fetch_add(1, Ordering::Relaxed);
            if row >= slots.len() {
                break;
            }
            won += 1;
            let mut slot = slots[row].lock();
            let (tuple, result) = &mut *slot;
            *result = Some(repair_row(
                &repairer,
                ctx,
                opts,
                &mut scratch,
                tuple,
                row,
                row_span.as_ref(),
                tuple_hist.as_ref(),
            ));
        }
        claimed[w].store(won, Ordering::Relaxed);
        attempts[w].store(tries, Ordering::Relaxed);
    };
    std::thread::scope(|scope| {
        let work = &work;
        for w in 1..workers {
            scope.spawn(move || work(w));
        }
        // The caller is worker 0: a one-worker repair spawns no thread.
        if workers > 0 {
            work(0);
        }
    });

    if let Some(mut sp) = repair_span {
        sp.attr_num("rows", slots.len() as u64);
        sp.attr_num("workers", workers as u64);
        sp.attr_num("value_cache_entries", shared.len() as u64);
        sp.finish();
    }

    let mut tuples = Vec::with_capacity(slots.len());
    let mut footprints = Vec::with_capacity(slots.len());
    for (row, slot) in slots.into_iter().enumerate() {
        // Every claimed row writes its slot (even a panicked one —
        // `repair_row` converts the panic to a `Failed` report), so
        // an empty slot can only mean a scheduler hole. Surface it
        // as a failed row instead of panicking the whole stitch.
        let (tuple_report, fp) = slot.into_inner().1.unwrap_or_else(|| {
            (
                TupleReport {
                    outcome: TupleOutcome::Failed {
                        message: format!("row {row} was never claimed by a worker"),
                    },
                    ..TupleReport::default()
                },
                KbFootprint::default(),
            )
        });
        tuples.push(Arc::new(tuple_report));
        footprints.push(fp);
    }
    let mut report = RelationReport {
        tuples,
        footprints,
        cache: shared.stats().delta_since(&before),
        timing: PhaseTimings {
            prewarm,
            repair: repair_start.elapsed(),
        },
        ..RelationReport::default()
    };
    report.tally_resilience();
    if let Some(obs) = obs {
        let m = obs.metrics();
        m.gauge("scheduler_workers", &[]).set(workers as u64);
        for w in 0..workers {
            let label = w.to_string();
            let labels = [("worker", label.as_str())];
            m.counter("scheduler_rows_claimed_total", &labels)
                .add(claimed[w].load(Ordering::Relaxed));
            m.counter("scheduler_steal_attempts_total", &labels)
                .add(attempts[w].load(Ordering::Relaxed));
        }
        crate::obs::record_relation(obs, "fast", &report);
    }
    relation_span.finish();
    report
}

/// Re-repairs only the rows a KB delta could have affected, and shares
/// every other row's tuple, report and footprint with the prior run by
/// reference.
///
/// A row is selected when its recorded [`KbFootprint`] in `prior` is
/// stale under `delta_fp`, or when its prior outcome never settled
/// (non-`Completed` rows carry no trustworthy result, so they always
/// re-run). Selection looks the delta's regions up in the prior report's
/// region → row index (built on the report's first selective call, then
/// shared with the report this call returns) and checks each row it
/// reaches against that row's own footprint, so its cost follows the
/// delta, not the relation. Unselected rows take their repaired tuple
/// from `prior_repaired` as a shared `Arc`: tuples are mutually
/// independent and the footprint over-approximates every KB read the row
/// made, so a row whose reads the delta did not touch reproduces its
/// prior result exactly — the delta≡rebuild differential suite holds this
/// to byte equality.
///
/// `relation` must be the same dirty input (same rows, same order) the
/// prior run started from; only its selected rows are read. If the shapes
/// disagree — row count mismatch, or `prior` carries no per-row
/// footprints — the call degrades to a full [`parallel_repair`],
/// reporting `selected_rows = Some(len)`.
pub fn parallel_repair_selective(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    relation: &mut Relation,
    opts: &ParallelOptions,
    prior: &RelationReport,
    prior_repaired: &Relation,
    delta_fp: &KbFootprint,
) -> RelationReport {
    let len = relation.len();
    if prior.tuples.len() != len || prior.footprints.len() != len || prior_repaired.len() != len {
        let mut report = parallel_repair(ctx, rules, relation, opts);
        report.selected_rows = Some(len);
        return report;
    }
    let selected = prior.rows_to_rerun(delta_fp);

    // Repair the selected rows as their own sub-relation through the same
    // scheduler — tuple independence makes the sub-run indistinguishable
    // from those rows' share of a full re-repair. The sub-relation shares
    // the dirty rows; the scheduler copies them before it writes.
    let schema = Arc::clone(relation.schema());
    let dirty = relation.tuples();
    let mut sub = Relation::from_tuples(
        Arc::clone(&schema),
        selected
            .iter()
            .map(|&row| Arc::clone(&dirty[row]))
            .collect(),
    );
    let sub_report = parallel_repair(ctx, rules, &mut sub, opts);

    let mut rows = prior_repaired.tuples().to_vec();
    for (&row, repaired) in selected.iter().zip(sub.tuples()) {
        rows[row] = Arc::clone(repaired);
    }
    *relation = Relation::from_tuples(schema, rows);
    let report = prior.splice(&selected, sub_report);
    if let Some(obs) = ctx.obs() {
        obs.metrics()
            .counter("rerepair_selected_rows", &[])
            .add(selected.len() as u64);
    }
    report
}

/// Repairs one claimed row with panic isolation: a panic anywhere in the
/// row's repair (injected or genuine) is caught at this boundary and
/// converted into a [`TupleOutcome::Failed`] report carrying the payload
/// message, so the other rows — and the shared caches, whose locks recover
/// from poisoning (see `vendor/parking_lot`) — continue unharmed.
#[allow(clippy::too_many_arguments)] // scheduler plumbing, all call-local
fn repair_row<'kb>(
    repairer: &FastRepairer<'_>,
    ctx: &MatchContext<'kb>,
    opts: &ParallelOptions,
    scratch: &mut TupleScratch<'_, 'kb>,
    tuple: &mut Tuple,
    row: usize,
    span: Option<&SpanCtx>,
    hist: Option<&(Histogram, WindowHistogram)>,
) -> (TupleReport, KbFootprint) {
    // Every KB read the row makes lands in the worker's read set, so the
    // stitched report carries a per-row footprint for selective re-repair
    // (a panicked row keeps whatever was recorded before the unwind —
    // conservative, since failed rows are always re-selected anyway).
    let row_span = crate::obs::RowSpan::open(span, row);
    let row_ctx = ctx.fork().with_span_opt(row_span.ctx());
    // The closure captures `&mut Tuple`, which is not `UnwindSafe` by type;
    // it is unwind-safe by construction: a fault is injected *before* the
    // tuple is touched, and a genuine mid-repair panic leaves at worst a
    // tuple whose completed rule applications stand (each application
    // mutates only after its enumeration finished) — and the row is
    // reported `Failed`, so consumers know not to trust it.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let meter = ctx.budget().meter();
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &opts.fault_plan {
            plan.trigger(row, &meter);
        }
        let started = hist.map(|_| Instant::now());
        let report = repairer.repair_tuple_with(&row_ctx, tuple, &opts.apply, scratch, &meter);
        // A panicked row unwinds before this sample, so
        // `repair_tuple_seconds_count` is exactly completed + degraded.
        if let (Some((hist, window)), Some(started)) = (hist, started) {
            let elapsed = started.elapsed();
            hist.record(elapsed);
            window.record(elapsed);
        }
        (report, scratch.cache.level_stats())
    }));
    let (report, cache_stats) = match result {
        Ok((report, stats)) => (report, Some(stats)),
        Err(payload) => (
            TupleReport {
                outcome: TupleOutcome::Failed {
                    message: panic_message(payload.as_ref()),
                },
                ..TupleReport::default()
            },
            None,
        ),
    };
    row_span.finish(&report, cache_stats);
    (report, scratch.cache.reads.take())
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure4_rules, table1_dirty};
    use crate::repair::fast::fast_repair;
    use crate::repair::registry::CacheRegistry;
    use dr_kb::fixtures::nobel_mini_kb;
    use dr_kb::Region;

    #[test]
    fn parallel_matches_sequential_on_table1() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);

        let mut sequential = table1_dirty();
        let seq_report = fast_repair(&ctx, &rules, &mut sequential, &ApplyOptions::default());

        for threads in [2, 4, 8] {
            let mut parallel = table1_dirty();
            let par_report = parallel_repair(
                &ctx,
                &rules,
                &mut parallel,
                &ParallelOptions {
                    threads,
                    ..Default::default()
                },
            );
            for cell in sequential.cell_refs() {
                assert_eq!(
                    sequential.value(cell),
                    parallel.value(cell),
                    "{threads} threads diverged at {cell:?}"
                );
                assert_eq!(
                    sequential.tuple(cell.row).is_positive(cell.attr),
                    parallel.tuple(cell.row).is_positive(cell.attr),
                );
            }
            assert_eq!(
                seq_report.total_applications(),
                par_report.total_applications()
            );
            // Reports line up row for row.
            assert_eq!(seq_report.tuples.len(), par_report.tuples.len());
            for (a, b) in seq_report.tuples.iter().zip(&par_report.tuples) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn empty_relation_is_fine() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let mut relation = dr_relation::Relation::new(crate::fixtures::nobel_schema());
        let report = parallel_repair(&ctx, &rules, &mut relation, &ParallelOptions::default());
        assert!(report.tuples.is_empty());
    }

    /// One row needs one worker whatever the thread count: the caller
    /// claims it, and the scheduler metrics say so.
    #[test]
    fn single_row_runs_one_worker() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let obs = Arc::new(dr_obs::Obs::new());
        let ctx = MatchContext::new(&kb).with_obs(Arc::clone(&obs));
        let mut relation = dr_relation::Relation::new(crate::fixtures::nobel_schema());
        relation.push(table1_dirty().tuple(0).clone());
        let report = parallel_repair(
            &ctx,
            &rules,
            &mut relation,
            &ParallelOptions {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(report.tuples.len(), 1);
        assert_eq!(report.tuples[0].steps.len(), 4);
        let snap = obs.metrics().snapshot();
        let workers = snap.gauges.iter().find(|g| g.name == "scheduler_workers");
        assert_eq!(workers.map(|g| g.value), Some(1));
        assert_eq!(
            snap.counter("scheduler_rows_claimed_total", "worker=\"0\""),
            Some(1)
        );
    }

    /// Duplicated rows make the shared `ValueCache` pay off across tuples:
    /// the second copy of a row resolves its element checks from the cache.
    #[test]
    fn duplicate_rows_hit_the_shared_cache() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let mut relation = dr_relation::Relation::new(crate::fixtures::nobel_schema());
        let base = table1_dirty();
        for _ in 0..4 {
            for t in base.tuples() {
                relation.push(t.clone());
            }
        }
        let report = parallel_repair(
            &ctx,
            &rules,
            &mut relation,
            &ParallelOptions {
                threads: 4,
                ..Default::default()
            },
        );
        assert!(
            report.cache.hits() > 0,
            "duplicate rows must produce cross-tuple cache hits: {:?}",
            report.cache
        );
        // The four duplicated copies converge on the same repaired values.
        let n = table1_dirty().len();
        for cell in relation.cell_refs() {
            let base = dr_relation::CellRef {
                row: cell.row % n,
                attr: cell.attr,
            };
            assert_eq!(relation.value(cell), relation.value(base));
        }
        // Prewarm happened before the repair loop: every index the rule set
        // needs exists, and the timing phases are populated.
        assert!(ctx.index_count() > 0);
        assert!(report.timing.repair > std::time::Duration::ZERO);
    }

    /// A delta that touches nothing any row read selects zero rows: the
    /// selective path splices every tuple and report from the prior run
    /// byte for byte.
    #[test]
    fn selective_with_disjoint_delta_reuses_every_row() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let opts = ParallelOptions {
            threads: 4,
            ..Default::default()
        };

        let mut prior_repaired = table1_dirty();
        let prior = parallel_repair(&ctx, &rules, &mut prior_repaired, &opts);
        assert_eq!(prior.footprints.len(), prior_repaired.len());
        assert!(
            prior.footprints.iter().any(|fp| !fp.is_empty()),
            "table1 rows read the KB, so footprints must be recorded"
        );

        let mut again = table1_dirty();
        let report = parallel_repair_selective(
            &ctx,
            &rules,
            &mut again,
            &opts,
            &prior,
            &prior_repaired,
            &KbFootprint::default(),
        );
        assert_eq!(report.selected_rows, Some(0));
        assert_eq!(report.tuples, prior.tuples);
        for cell in again.cell_refs() {
            assert_eq!(again.value(cell), prior_repaired.value(cell));
            assert_eq!(
                again.tuple(cell.row).is_positive(cell.attr),
                prior_repaired.tuple(cell.row).is_positive(cell.attr),
            );
        }
    }

    /// Repairing a clone writes through copy-on-write: the original
    /// relation keeps every value and mark byte for byte.
    #[test]
    fn repairing_a_clone_leaves_the_original_intact() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let original = table1_dirty();
        let before: Vec<Tuple> = original.tuples().iter().map(|t| (**t).clone()).collect();
        let mut repaired = original.clone();
        let opts = ParallelOptions {
            threads: 2,
            ..Default::default()
        };
        let report = parallel_repair(&ctx, &rules, &mut repaired, &opts);
        assert!(report.total_changes() > 0, "table1 has errors to repair");
        assert_eq!(&before[..], original.tuples());
        assert!(original
            .tuples()
            .iter()
            .zip(repaired.tuples())
            .any(|(a, b)| a != b));
    }

    /// A selective re-repair shares every unselected row with the prior
    /// result instead of copying it; the re-run rows are new tuples.
    #[test]
    fn selective_shares_unselected_rows_with_the_prior_result() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let opts = ParallelOptions::default();
        let mut prior_repaired = table1_dirty();
        let prior = parallel_repair(&ctx, &rules, &mut prior_repaired, &opts);

        // Re-run exactly the rows that read one of the first row's edges.
        let pair = *prior.footprints[0]
            .regions()
            .iter()
            .find(|region| matches!(region, Region::Out(..)))
            .expect("row 0 reads an edge");
        let delta_fp = KbFootprint::from_iter([pair]);
        let selected: Vec<usize> = (0..prior.footprints.len())
            .filter(|&row| prior.footprints[row].stale(&delta_fp))
            .collect();
        assert!(!selected.is_empty() && selected.len() < prior_repaired.len());

        let mut again = table1_dirty();
        let report = parallel_repair_selective(
            &ctx,
            &rules,
            &mut again,
            &opts,
            &prior,
            &prior_repaired,
            &delta_fp,
        );
        assert_eq!(report.selected_rows, Some(selected.len()));
        assert!(report.row_index.shared_with(&prior.row_index));
        for row in 0..again.len() {
            let shared = Arc::ptr_eq(&again.tuples()[row], &prior_repaired.tuples()[row]);
            assert_eq!(shared, !selected.contains(&row), "row {row}");
            assert_eq!(again.tuple(row), prior_repaired.tuple(row));
        }
    }

    /// A taxonomy-wide delta ([`Region::AllClasses`]) reaches every
    /// class-reading row: the selective result still matches a full
    /// re-repair exactly.
    #[test]
    fn selective_with_global_delta_matches_full_rerepair() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let opts = ParallelOptions {
            threads: 4,
            ..Default::default()
        };

        let mut prior_repaired = table1_dirty();
        let prior = parallel_repair(&ctx, &rules, &mut prior_repaired, &opts);

        let mut full = table1_dirty();
        let full_report = parallel_repair(&ctx, &rules, &mut full, &opts);

        let delta_fp = KbFootprint::from_iter([Region::AllClasses]);
        let mut selective = table1_dirty();
        let report = parallel_repair_selective(
            &ctx,
            &rules,
            &mut selective,
            &opts,
            &prior,
            &prior_repaired,
            &delta_fp,
        );
        let selected = report.selected_rows.expect("selective sets the count");
        assert!(selected > 0, "class-reading rows must be re-selected");
        assert_eq!(report.tuples, full_report.tuples);
        for cell in full.cell_refs() {
            assert_eq!(selective.value(cell), full.value(cell));
        }
    }

    /// A row's footprint depends only on the row and the KB: it is the
    /// same whether the row is repaired alone, at any position of a
    /// one-worker pass (where repeated rows hit the value cache), in a
    /// warm registry pass, or at two threads. A worker whose read set kept
    /// one row's reads into the next would fail this.
    #[test]
    fn a_rows_footprint_depends_only_on_the_row_and_the_kb() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let base = table1_dirty();
        let rows: Vec<Arc<Tuple>> = (0..8).flat_map(|_| base.tuples().to_vec()).collect();
        let footprints = |ctx: &MatchContext<'_>, rows: &[Arc<Tuple>], threads: usize| {
            let mut relation = Relation::from_tuples(Arc::clone(base.schema()), rows.to_vec());
            let opts = ParallelOptions {
                threads,
                ..Default::default()
            };
            parallel_repair(ctx, &rules, &mut relation, &opts).footprints
        };
        let plain = MatchContext::new(&kb);
        let alone: Vec<KbFootprint> = rows
            .iter()
            .map(|row| footprints(&plain, std::slice::from_ref(row), 1).remove(0))
            .collect();
        assert!(alone.iter().all(|fp| !fp.is_empty()));
        assert_eq!(footprints(&plain, &rows, 1), alone, "one worker");
        assert_eq!(footprints(&plain, &rows, 2), alone, "two threads");
        let warm = MatchContext::with_registry(&kb, Arc::new(CacheRegistry::default()));
        assert_eq!(footprints(&warm, &rows, 1), alone, "cold registry pass");
        assert_eq!(footprints(&warm, &rows, 1), alone, "warm registry pass");
    }

    /// A prior report with no footprints (e.g. from a build predating the
    /// incremental subsystem) degrades to a full re-repair.
    #[test]
    fn selective_without_footprints_falls_back_to_full() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let opts = ParallelOptions::default();

        let mut prior_repaired = table1_dirty();
        let mut prior = parallel_repair(&ctx, &rules, &mut prior_repaired, &opts);
        prior.footprints.clear();

        let mut again = table1_dirty();
        let report = parallel_repair_selective(
            &ctx,
            &rules,
            &mut again,
            &opts,
            &prior,
            &prior_repaired,
            &KbFootprint::default(),
        );
        assert_eq!(report.selected_rows, Some(again.len()));
        assert_eq!(report.tuples, prior.tuples);
    }

    /// More workers than rows: the claim counter just runs out early.
    #[test]
    fn more_threads_than_rows() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let mut relation = table1_dirty();
        let report = parallel_repair(
            &ctx,
            &rules,
            &mut relation,
            &ParallelOptions {
                threads: 64,
                ..Default::default()
            },
        );
        assert_eq!(report.tuples.len(), table1_dirty().len());
        assert!(report.tuples.iter().all(|t| !t.steps.is_empty()));
    }
}
