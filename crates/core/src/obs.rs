//! Bridges between the repair pipeline and the `dr-obs` observability
//! layer (DESIGN.md §4d).
//!
//! Everything here is gated on the context carrying an
//! [`Obs`](dr_obs::Obs) handle: metric recording happens once per relation
//! from the same values the [`RelationReport`] carries (so the Prometheus
//! totals and the report columns cannot drift), and trace events are
//! derived from the per-tuple [`TupleReport`]s plus the per-tuple
//! [`ElementCacheStats`], never from a second bookkeeping path.
//!
//! ## Trace event schema
//!
//! One JSON object per line, no wall-clock fields (traces are reproducible
//! byte-for-byte under a fixed seed and sampling rate):
//!
//! | event            | fields                                                  |
//! |------------------|---------------------------------------------------------|
//! | `relation_start` | `algo`, `rows`, `rules`                                 |
//! | `phase_enter`    | `phase` (`prewarm` \| `repair`)                         |
//! | `phase_exit`     | `phase`                                                 |
//! | `tuple_start`    | `row`                                                   |
//! | `rule`           | `row`, `rule` (index), `name`, `outcome`                |
//! | `cache`          | `row`, `local_hits`, `local_misses`, `shared_hits`, `shared_misses` |
//! | `outcome`        | `row`, `outcome`, `steps`; degraded adds `budget_steps`, `cause`; failed adds `message` |
//! | `retry`          | `row`                                                   |
//! | `relation_end`   | `rows`                                                  |
//!
//! Per-tuple events (`tuple_start` through `outcome`, and `retry`) are
//! emitted only for rows the deterministic sampler keeps and are flushed
//! as one contiguous block per tuple; relation-level events are always
//! emitted.

use crate::repair::basic::RelationReport;
use crate::repair::basic::TupleReport;
use crate::repair::budget::ExhaustCause;
use crate::repair::cache::ElementCacheStats;
use crate::repair::resilience::TupleOutcome;
use crate::rule::apply::RuleApplication;
use dr_kb::FxHashMap;
use dr_obs::{JsonObj, Obs, SpanBuf, Tracer};

/// Row-span floor for *speculative* live captures (DESIGN.md §11): an
/// unforced capture records a row span only when the row ran at least
/// this long. Fast rows cost two clock reads and a branch — which is what
/// keeps the armed-but-unretained path inside the `exp_trace_overhead`
/// budget — while the rows that explain a slow- or error-retained trace
/// are far above this floor. Forced captures record every row.
pub(crate) const SPECULATIVE_ROW_FLOOR: std::time::Duration = std::time::Duration::from_micros(100);

/// Stable label for what a rule application did. Shared with the live
/// span surface, so the JSONL `rule.outcome` field and a rule span's
/// `result` attribute can never disagree.
pub(crate) fn application_kind(application: &RuleApplication) -> &'static str {
    match application {
        RuleApplication::Repaired { .. } => "repaired",
        RuleApplication::ProofPositive { .. } => "proof_positive",
        RuleApplication::DetectedWrong { .. } => "detected_wrong",
        RuleApplication::NotApplicable => "not_applicable",
    }
}

/// Stable label for a tuple's terminal outcome. Shared between the JSONL
/// `outcome` event and the live row span's `outcome` attribute.
pub(crate) fn outcome_label(outcome: &TupleOutcome) -> &'static str {
    match outcome {
        TupleOutcome::Completed => "completed",
        TupleOutcome::Degraded { .. } => "degraded",
        TupleOutcome::Failed { .. } => "failed",
    }
}

/// Stable label for a budget-exhaustion cause.
fn cause_label(cause: ExhaustCause) -> &'static str {
    match cause {
        ExhaustCause::StepCap => "step_cap",
        ExhaustCause::Deadline => "deadline",
        ExhaustCause::Forced => "forced",
    }
}

/// Records a finished relation repair into the metric registry. Called
/// once at the end of each relation driver (`basic` for Algorithm 1,
/// `fast` for the Algorithm 2 scheduler at any thread count), after
/// [`RelationReport::tally_resilience`], so every counter advance mirrors
/// exactly what the report carries.
pub(crate) fn record_relation(obs: &Obs, algo: &str, report: &RelationReport) {
    let m = obs.metrics();
    let (mut completed, mut degraded, mut failed) = (0u64, 0u64, 0u64);
    let mut per_rule: FxHashMap<&str, u64> = FxHashMap::default();
    let exhaustion = m.histogram("budget_exhaustion_steps", &[]);
    for tuple in &report.tuples {
        match &tuple.outcome {
            TupleOutcome::Completed => completed += 1,
            TupleOutcome::Degraded { reason } => {
                degraded += 1;
                exhaustion.record_nanos(reason.steps);
            }
            TupleOutcome::Failed { .. } => failed += 1,
        }
        for step in &tuple.steps {
            *per_rule.entry(step.rule_name.as_str()).or_default() += 1;
        }
    }
    for (outcome, n) in [
        ("completed", completed),
        ("degraded", degraded),
        ("failed", failed),
    ] {
        if n > 0 {
            m.counter(
                "repair_tuples_total",
                &[("algo", algo), ("outcome", outcome)],
            )
            .add(n);
        }
    }
    for (rule, n) in per_rule {
        m.counter("repair_rules_applied_total", &[("rule", rule)])
            .add(n);
    }
    if report.resilience.retried > 0 {
        m.counter("repair_retries_total", &[])
            .add(report.resilience.retried as u64);
    }
    if report.resilience.quarantined > 0 {
        m.counter("repair_quarantined_total", &[])
            .add(report.resilience.quarantined as u64);
    }
    m.counter("repair_phase_seconds", &[("phase", "prewarm")])
        .add(duration_nanos(report.timing.prewarm));
    m.counter("repair_phase_seconds", &[("phase", "repair")])
        .add(duration_nanos(report.timing.repair));
    m.counter("repair_relations_total", &[("algo", algo)]).inc();
}

fn duration_nanos(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Emits the `relation_start` event.
pub(crate) fn trace_relation_start(tracer: &Tracer, algo: &str, rows: usize, rules: usize) {
    tracer.emit(
        JsonObj::new()
            .str("ev", "relation_start")
            .str("algo", algo)
            .num("rows", rows as u64)
            .num("rules", rules as u64)
            .finish(),
    );
}

/// Emits a `phase_enter` or `phase_exit` event.
pub(crate) fn trace_phase(tracer: &Tracer, phase: &str, enter: bool) {
    let ev = if enter { "phase_enter" } else { "phase_exit" };
    tracer.emit(JsonObj::new().str("ev", ev).str("phase", phase).finish());
}

/// Emits the `relation_end` event.
pub(crate) fn trace_relation_end(tracer: &Tracer, rows: usize) {
    tracer.emit(
        JsonObj::new()
            .str("ev", "relation_end")
            .num("rows", rows as u64)
            .finish(),
    );
}

/// Emits a `retry` event for `row` if sampled.
pub(crate) fn trace_retry(tracer: &Tracer, row: usize) {
    if tracer.sampled(row as u64) {
        tracer.emit(
            JsonObj::new()
                .str("ev", "retry")
                .num("row", row as u64)
                .finish(),
        );
    }
}

/// Emits the full span for one repaired tuple if sampled: `tuple_start`,
/// one `rule` event per applied rule, a `cache` event when the per-tuple
/// cache stats are available, and the terminal `outcome` event. The span
/// is flushed as one contiguous block, so concurrent workers never
/// interleave within it. Takes the whole [`Obs`] handle so lines dropped
/// by the [`SpanBuf`] byte budget land in
/// `trace_dropped_spans_total{surface="jsonl"}`.
pub(crate) fn trace_tuple(
    obs: &Obs,
    row: usize,
    report: &TupleReport,
    cache: Option<ElementCacheStats>,
) {
    let Some(tracer) = obs.tracer() else { return };
    let row64 = row as u64;
    if !tracer.sampled(row64) {
        return;
    }
    let mut span = SpanBuf::new();
    span.push(
        JsonObj::new()
            .str("ev", "tuple_start")
            .num("row", row64)
            .finish(),
    );
    for step in &report.steps {
        span.push(
            JsonObj::new()
                .str("ev", "rule")
                .num("row", row64)
                .num("rule", step.rule_index as u64)
                .str("name", &step.rule_name)
                .str("outcome", application_kind(&step.application))
                .finish(),
        );
    }
    if let Some(stats) = cache {
        span.push(
            JsonObj::new()
                .str("ev", "cache")
                .num("row", row64)
                .num("local_hits", stats.local_hits as u64)
                .num("local_misses", stats.local_misses as u64)
                .num("shared_hits", stats.shared_hits as u64)
                .num("shared_misses", stats.shared_misses as u64)
                .finish(),
        );
    }
    let outcome = JsonObj::new()
        .str("ev", "outcome")
        .num("row", row64)
        .str("outcome", outcome_label(&report.outcome))
        .num("steps", report.steps.len() as u64);
    let outcome = match &report.outcome {
        TupleOutcome::Completed => outcome,
        TupleOutcome::Degraded { reason } => outcome
            .num("budget_steps", reason.steps)
            .str("cause", cause_label(reason.cause)),
        TupleOutcome::Failed { message } => outcome.str("message", message),
    };
    span.push(outcome.finish());
    if span.dropped() > 0 {
        obs.metrics()
            .counter("trace_dropped_spans_total", &[("surface", "jsonl")])
            .add(span.dropped() as u64);
    }
    tracer.flush_span(span);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::basic::RepairStep;
    use crate::repair::budget::BudgetExhaustion;
    use dr_obs::{memory_tracer, Sampler};

    fn lines(buf: &std::sync::Arc<parking_lot::Mutex<Vec<u8>>>) -> Vec<String> {
        String::from_utf8(buf.lock().clone())
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn record_relation_mirrors_the_report() {
        let obs = Obs::new();
        let report = RelationReport {
            tuples: vec![
                TupleReport::default(),
                TupleReport {
                    outcome: TupleOutcome::Degraded {
                        reason: BudgetExhaustion {
                            steps: 24,
                            cause: ExhaustCause::StepCap,
                        },
                    },
                    steps: vec![RepairStep {
                        rule_index: 0,
                        rule_name: "r1".into(),
                        application: RuleApplication::ProofPositive {
                            newly_marked: vec![],
                            normalized: vec![],
                        },
                    }],
                },
            ]
            .into_iter()
            .map(std::sync::Arc::new)
            .collect(),
            ..Default::default()
        };
        record_relation(&obs, "fast", &report);
        let snap = obs.metrics().snapshot();
        assert_eq!(
            snap.counter("repair_tuples_total", "algo=\"fast\",outcome=\"completed\""),
            Some(1)
        );
        assert_eq!(
            snap.counter("repair_tuples_total", "algo=\"fast\",outcome=\"degraded\""),
            Some(1)
        );
        assert_eq!(
            snap.counter("repair_rules_applied_total", "rule=\"r1\""),
            Some(1)
        );
        assert_eq!(snap.counter_total("repair_tuples_total"), 2);
    }

    #[test]
    fn unsampled_rows_emit_nothing() {
        let (tracer, buf) = memory_tracer(Sampler::new(3, 0.0));
        let obs = Obs::with_tracer(tracer);
        trace_tuple(&obs, 7, &TupleReport::default(), None);
        trace_retry(obs.tracer().unwrap(), 7);
        assert!(lines(&buf).is_empty());
    }

    #[test]
    fn tuple_span_follows_the_documented_sequence() {
        let (tracer, buf) = memory_tracer(Sampler::new(0, 1.0));
        let obs = Obs::with_tracer(tracer);
        let report = TupleReport {
            steps: vec![RepairStep {
                rule_index: 2,
                rule_name: "r3".into(),
                application: RuleApplication::DetectedWrong {
                    col: dr_relation::AttrId::from_index(0),
                    newly_marked: vec![],
                },
            }],
            outcome: TupleOutcome::Failed {
                message: "boom".into(),
            },
        };
        trace_tuple(
            &obs,
            5,
            &report,
            Some(ElementCacheStats {
                local_hits: 1,
                local_misses: 2,
                shared_hits: 3,
                shared_misses: 4,
            }),
        );
        let got = lines(&buf);
        assert_eq!(
            got,
            vec![
                r#"{"ev":"tuple_start","row":5}"#,
                r#"{"ev":"rule","row":5,"rule":2,"name":"r3","outcome":"detected_wrong"}"#,
                r#"{"ev":"cache","row":5,"local_hits":1,"local_misses":2,"shared_hits":3,"shared_misses":4}"#,
                r#"{"ev":"outcome","row":5,"outcome":"failed","steps":1,"message":"boom"}"#,
            ]
        );
    }
}
