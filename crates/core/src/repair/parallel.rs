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
//! Rows whose worker panicked are re-run under a configurable
//! [`RetryPolicy`] (DESIGN.md §4c/§9), on fresh worker threads spawned
//! after each pass drains: transient faults heal to the fault-free result,
//! deterministic ones report [`TupleOutcome::Failed`] once the attempt cap
//! is reached, and every retry attempt lands in
//! [`ResilienceReport::retried`](crate::repair::resilience::ResilienceReport)
//! and the `retry_attempts_total{attempt}` counter. The default policy is
//! the historical behavior — one retry, no backoff.

use crate::context::{FootprintRecorder, MatchContext};
use crate::repair::basic::{PhaseTimings, RelationReport, TupleReport};
use crate::repair::cache::ElementCache;
use crate::repair::fast::FastRepairer;
use crate::repair::resilience::TupleOutcome;
use crate::repair::retry::RetryPolicy;
use crate::rule::apply::ApplyOptions;
use crate::rule::DetectiveRule;
use dr_kb::KbFootprint;
use dr_obs::{Histogram, SpanCtx, WindowHistogram};
use dr_relation::{Relation, Tuple};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Relation repair configuration.
#[derive(Debug, Clone, Default)]
pub struct ParallelOptions {
    /// Rule-application options.
    pub apply: ApplyOptions,
    /// Worker threads (0 = one per available core). The calling thread is
    /// one of them.
    pub threads: usize,
    /// Retry/backoff policy for rows whose worker panicked. The default is
    /// the historical one-shot retry with no backoff.
    pub retry: RetryPolicy,
    /// Deterministic per-row faults to inject (tests/chaos harnesses only;
    /// see [`FaultPlan`](crate::repair::fault::FaultPlan)). `None` injects
    /// nothing. Every thread count runs the same scheduler, so injection
    /// behaves identically at all of them.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<std::sync::Arc<crate::repair::fault::FaultPlan>>,
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
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        opts.threads
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
    let tuple_hist = obs.map(|o| {
        (
            o.metrics().histogram("repair_tuple_seconds", &[]),
            o.metrics()
                .window_histogram("repair_tuple_seconds_window", &[]),
        )
    });

    let shared = ctx.value_cache_for(relation.schema());
    let before = shared.stats();
    // One "repair" phase span covers the scheduler passes and retries;
    // row spans parent onto it through `row_span`.
    let repair_span = relation_span.phase("repair");
    let row_span = repair_span.as_ref().map(|s| s.ctx());
    let repair_start = Instant::now();
    // Each row index is claimed exactly once via `fetch_add`, so the
    // per-row mutexes are never contended — they exist to hand a
    // `&mut Tuple` through a `Sync` type. A claimed row's report lands in
    // its row-indexed slot, keeping the stitched report in row order.
    let rows: Vec<Mutex<&mut Tuple>> = relation.tuples_mut().iter_mut().map(Mutex::new).collect();
    let slots: Vec<Mutex<Option<(TupleReport, KbFootprint)>>> =
        (0..rows.len()).map(|_| Mutex::new(None)).collect();
    let workers = threads.min(rows.len());
    // Per-worker claim tallies: `attempts` counts every `fetch_add` on the
    // claim counter (including the final, failing one that ends the loop),
    // `claimed` counts rows actually won. Cheap plain atomics either way;
    // exported as `scheduler_*` metrics when observability is attached.
    let claimed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let attempts: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let next = AtomicUsize::new(0);
    let work = |w: usize| loop {
        attempts[w].fetch_add(1, Ordering::Relaxed);
        let row = next.fetch_add(1, Ordering::Relaxed);
        if row >= rows.len() {
            break;
        }
        claimed[w].fetch_add(1, Ordering::Relaxed);
        *slots[row].lock() = Some(repair_row(
            &repairer,
            ctx,
            opts,
            &shared,
            &rows,
            row,
            1,
            row_span.as_ref(),
            tuple_hist.as_ref(),
        ));
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

    // Retry policy (DESIGN.md §4c/§9): rows still `Failed` after a pass
    // are re-claimed by fresh worker threads, up to `opts.retry`'s total
    // attempt cap, with the policy's deterministic exponential backoff
    // slept by the claiming worker just before the re-run. A transient
    // fault (a poisoned thread-local, an injected `PanicOnce`) heals to
    // the same report a fault-free run produces — tuples are independent,
    // so running a row late changes nothing — while a deterministic panic
    // fails on every attempt and keeps its `Failed` outcome once the cap
    // is reached. The fault plan is triggered on every attempt too, so
    // injected faults decide for themselves whether they are transient. A
    // genuine mid-repair panic leaves at worst a prefix of atomic rule
    // applications; the retry continues the chase from that state toward
    // the same fixpoint.
    let mut retried = 0usize;
    let mut retry_attempt_counts: Vec<(u32, usize)> = Vec::new();
    for attempt in 2..=opts.retry.attempts() {
        let retry_rows: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| {
                matches!(
                    &*slot.lock(),
                    Some((
                        TupleReport {
                            outcome: TupleOutcome::Failed { .. },
                            ..
                        },
                        _,
                    ))
                )
            })
            .map(|(row, _)| row)
            .collect();
        if retry_rows.is_empty() {
            break;
        }
        retried += retry_rows.len();
        retry_attempt_counts.push((attempt, retry_rows.len()));
        let retry_next = AtomicUsize::new(0);
        let policy = &opts.retry;
        std::thread::scope(|scope| {
            // `retry_rows.len() <= rows.len()`, so retry worker indexes stay
            // within the per-worker tally arrays sized above.
            for w in 0..threads.min(retry_rows.len()) {
                let (claimed, attempts) = (&claimed, &attempts);
                let (rows, slots) = (&rows, &slots);
                let (retry_rows, retry_next) = (&retry_rows, &retry_next);
                let (repairer, shared, tuple_hist) = (&repairer, &shared, &tuple_hist);
                let row_span = &row_span;
                scope.spawn(move || loop {
                    attempts[w].fetch_add(1, Ordering::Relaxed);
                    let i = retry_next.fetch_add(1, Ordering::Relaxed);
                    let Some(&row) = retry_rows.get(i) else { break };
                    claimed[w].fetch_add(1, Ordering::Relaxed);
                    let backoff = policy.backoff(row, attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    *slots[row].lock() = Some(repair_row(
                        repairer,
                        ctx,
                        opts,
                        shared,
                        rows,
                        row,
                        attempt,
                        row_span.as_ref(),
                        tuple_hist.as_ref(),
                    ));
                });
            }
        });
    }

    if let Some(mut sp) = repair_span {
        sp.attr_num("rows", rows.len() as u64);
        sp.attr_num("workers", workers as u64);
        sp.attr_num("retried", retried as u64);
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
        let (tuple_report, fp) = slot.into_inner().unwrap_or_else(|| {
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
        footprints.push(Arc::new(fp));
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
    report.resilience.retried = retried;
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
        // Per-attempt retry counts; summed over attempts this equals
        // `ResilienceReport::retried` (and `repair_retries_total`).
        for (attempt, n) in &retry_attempt_counts {
            let label = attempt.to_string();
            m.counter("retry_attempts_total", &[("attempt", label.as_str())])
                .add(*n as u64);
        }
        crate::obs::record_relation(obs, "fast", &report);
    }
    relation_span.finish();
    report
}

/// Re-repairs only the rows a KB delta could have affected, splicing every
/// other row's tuple and report straight from the prior run: the tuple is
/// copied into `relation`'s buffers, the report and footprint are shared
/// by reference.
///
/// A row is selected when its recorded [`KbFootprint`] in `prior`
/// intersects `delta_fp`, or when its prior outcome never settled
/// (non-`Completed` rows carry no trustworthy result, so they always
/// re-run). Unselected rows copy their repaired tuple verbatim from
/// `prior_repaired`: tuples are mutually independent and the footprint
/// over-approximates every KB read the row made, so a row whose reads the
/// delta did not touch reproduces its prior result exactly — the
/// delta≡rebuild differential suite holds this to byte equality.
///
/// `relation` must be the same dirty input (same rows, same order) the
/// prior run started from. If the shapes disagree — row count mismatch, or
/// `prior` carries no per-row footprints — the call degrades to a full
/// [`parallel_repair`], reporting `selected_rows = Some(len)`.
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
    let selected: Vec<usize> = (0..len)
        .filter(|&row| {
            !prior.tuples[row].outcome.is_completed() || prior.footprints[row].intersects(delta_fp)
        })
        .collect();

    // Repair the selected rows as their own sub-relation through the same
    // scheduler — tuple independence makes the sub-run indistinguishable
    // from those rows' share of a full re-repair.
    let mut sub = Relation::new(Arc::clone(relation.schema()));
    for &row in &selected {
        sub.push(relation.tuple(row).clone());
    }
    let sub_report = parallel_repair(ctx, rules, &mut sub, opts);

    let mut report = RelationReport {
        tuples: Vec::with_capacity(len),
        footprints: Vec::with_capacity(len),
        cache: sub_report.cache,
        timing: sub_report.timing,
        selected_rows: Some(selected.len()),
        ..RelationReport::default()
    };
    report.resilience.retried = sub_report.resilience.retried;
    let mut sub_rows = selected
        .iter()
        .zip(sub.tuples_mut())
        .zip(sub_report.tuples.into_iter().zip(sub_report.footprints))
        .peekable();
    for row in 0..len {
        match sub_rows.next_if(|((&selected_row, _), _)| selected_row == row) {
            Some(((_, repaired), (tuple_report, fp))) => {
                std::mem::swap(relation.tuple_mut(row), repaired);
                report.tuples.push(tuple_report);
                report.footprints.push(fp);
            }
            None => {
                relation
                    .tuple_mut(row)
                    .clone_from(prior_repaired.tuple(row));
                report.tuples.push(Arc::clone(&prior.tuples[row]));
                report.footprints.push(Arc::clone(&prior.footprints[row]));
            }
        }
    }
    report.tally_resilience();
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
fn repair_row(
    repairer: &FastRepairer<'_>,
    ctx: &MatchContext<'_>,
    opts: &ParallelOptions,
    shared: &crate::repair::value_cache::ValueCache,
    rows: &[Mutex<&mut Tuple>],
    row: usize,
    attempt: u32,
    span: Option<&SpanCtx>,
    hist: Option<&(Histogram, WindowHistogram)>,
) -> (TupleReport, KbFootprint) {
    // Every KB read the row makes lands in its own recorder, so the
    // stitched report carries a per-row footprint for selective re-repair
    // (a panicked attempt keeps whatever was recorded before the unwind —
    // conservative, since failed rows are always re-selected anyway).
    let recorder = Arc::new(FootprintRecorder::new());
    let row_span = crate::obs::RowSpan::open(span, row, attempt);
    let row_ctx = ctx
        .fork()
        .with_recorder(Arc::clone(&recorder))
        .with_span_opt(row_span.ctx());
    // The closure captures `&mut Tuple` behind the row mutex, which is not
    // `UnwindSafe` by type; it is unwind-safe by construction: a fault is
    // injected *before* the tuple is touched, and a genuine mid-repair
    // panic leaves at worst a tuple whose completed rule applications stand
    // (each application mutates only after its enumeration finished) — and
    // the row is reported `Failed`, so consumers know not to trust it.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let meter = ctx.budget().meter();
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &opts.fault_plan {
            plan.trigger(row, &meter);
        }
        let mut tuple = rows[row].lock();
        let mut cache = ElementCache::with_shared(shared);
        let started = hist.map(|_| Instant::now());
        let report =
            repairer.repair_tuple_with(&row_ctx, &mut tuple, &opts.apply, &mut cache, &meter);
        // A `Failed` attempt must not contribute a latency sample: the row
        // will be retried, and recording here *and* on the retry would
        // double-count the tuple — `repair_tuple_seconds_count` is defined
        // as exactly completed + degraded, one sample per settled tuple.
        // (Panicked attempts skip this by unwinding; the guard covers any
        // `Failed` outcome produced without a panic.)
        if let (Some((hist, window)), Some(started)) = (hist, started) {
            if !matches!(report.outcome, TupleOutcome::Failed { .. }) {
                let elapsed = started.elapsed();
                hist.record(elapsed);
                window.record(elapsed);
            }
        }
        (report, cache.level_stats())
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
    (report, recorder.take())
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
    use dr_kb::fixtures::nobel_mini_kb;

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

    /// A taxonomy-wide delta (`all_classes`) intersects every class-reading
    /// row: the selective result still matches a full re-repair exactly.
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

        let delta_fp = KbFootprint {
            all_classes: true,
            ..Default::default()
        };
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
