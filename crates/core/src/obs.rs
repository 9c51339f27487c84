//! Bridges between the repair pipeline and the `dr-obs` observability
//! layer (DESIGN.md §4d, §11).
//!
//! Everything here is gated on the context carrying an
//! [`Obs`](dr_obs::Obs) handle or a live span. Metric recording happens
//! once per relation from the same values the [`RelationReport`] carries
//! (so the Prometheus totals and the report columns cannot drift). Spans
//! come from four hooks, one per loop of the repair drivers
//! (`basic_repair`, `parallel_repair` and `FastRepairer::try_rule`):
//! [`RelationSpan`] (with its phases), [`RowSpan`] and [`RuleSpan`]. The
//! JSONL trace file is a rendering of those spans
//! ([`dr_obs::render`]), never a second bookkeeping path.
//!
//! The rendered line schema is in DESIGN.md §11.

use crate::context::MatchContext;
use crate::repair::basic::RelationReport;
use crate::repair::basic::TupleReport;
use crate::repair::budget::{BudgetExhaustion, ExhaustCause};
use crate::repair::cache::ElementCacheStats;
use crate::repair::resilience::TupleOutcome;
use crate::rule::apply::RuleApplication;
use dr_kb::FxHashMap;
use dr_obs::{ActiveTrace, Obs, Span, SpanCtx};
use std::sync::Arc;
use std::time::Instant;

/// Row-span floor for *speculative* live captures (DESIGN.md §11): an
/// unforced capture records a row span only when the row ran at least
/// this long. Fast rows cost two clock reads and a branch — which is what
/// keeps the armed-but-unretained path inside the `exp_trace_overhead`
/// budget — while the rows that explain a slow- or error-retained trace
/// are far above this floor. Forced captures record every row.
pub(crate) const SPECULATIVE_ROW_FLOOR: std::time::Duration = std::time::Duration::from_micros(100);

/// Stable label for what a rule application did: a rule span's `result`.
pub(crate) fn application_kind(application: &RuleApplication) -> &'static str {
    match application {
        RuleApplication::Repaired { .. } => "repaired",
        RuleApplication::ProofPositive { .. } => "proof_positive",
        RuleApplication::DetectedWrong { .. } => "detected_wrong",
        RuleApplication::NotApplicable => "not_applicable",
    }
}

/// Stable label for a tuple's terminal outcome: a row span's `outcome`
/// and the `outcome` label of `repair_tuples_total`.
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
    if report.resilience.quarantined > 0 {
        m.counter("repair_quarantined_total", &[])
            .add(report.resilience.quarantined as u64);
    }
    m.counter("repair_phase_seconds", &[("phase", "prewarm")])
        .add(duration_nanos(report.timing.prewarm));
    m.counter("repair_phase_seconds", &[("phase", "repair")])
        .add(duration_nanos(report.timing.repair));
}

fn duration_nanos(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// The relation hook: one `relation` span per relation repair, with the
/// phase spans beneath it. It hangs under the context's live span when
/// the request is traced; otherwise, when the [`Obs`] handle carries a
/// JSONL sink, it starts a capture of its own and writes the rendered
/// relation to the sink on [`finish`](Self::finish).
pub(crate) struct RelationSpan {
    span: Option<Span>,
    capture: Option<(Arc<ActiveTrace>, Arc<Obs>)>,
}

impl RelationSpan {
    pub(crate) fn open(
        ctx: &MatchContext<'_>,
        algo: &'static str,
        rows: usize,
        rules: usize,
    ) -> Self {
        let mut capture = None;
        let parent = match ctx.span() {
            Some(parent) => Some(parent.clone()),
            None => ctx.obs().and_then(|obs| {
                let trace = obs.jsonl()?.capture();
                let root = SpanCtx::root(Arc::clone(&trace));
                capture = Some((trace, Arc::clone(obs)));
                Some(root)
            }),
        };
        let span = parent.map(|parent| {
            let mut span = parent.child("relation");
            span.attr_static("algo", algo);
            span.attr_num("rows", rows as u64);
            span.attr_num("rules", rules as u64);
            span
        });
        RelationSpan { span, capture }
    }

    /// The phase hook: a `prewarm` or `repair` span under the relation.
    pub(crate) fn phase(&self, name: &'static str) -> Option<Span> {
        self.span.as_ref().map(|span| span.child(name))
    }

    /// Ends the relation span and, for a JSONL capture, writes the
    /// rendering; lines the per-row byte budget dropped land in
    /// `trace_dropped_spans_total{surface="jsonl"}`.
    pub(crate) fn finish(self) {
        drop(self.span);
        let Some((trace, obs)) = self.capture else {
            return;
        };
        let Some(sink) = obs.jsonl() else { return };
        let dropped = sink.write(&trace);
        if dropped > 0 {
            obs.metrics()
                .counter("trace_dropped_spans_total", &[("surface", "jsonl")])
                .add(dropped);
        }
    }
}

/// The row hook. A row gets a detailed `row` span when its trace details
/// it (forced, or kept by the JSONL capture's sampler); on a speculative
/// live capture it gets only a start time, recorded retroactively if the
/// row turns out slow; otherwise nothing.
pub(crate) struct RowSpan<'p> {
    span: Option<Span>,
    speculative: Option<(&'p SpanCtx, Instant)>,
}

impl<'p> RowSpan<'p> {
    /// Opens row `row` under the `repair` phase span `parent`.
    pub(crate) fn open(parent: Option<&'p SpanCtx>, row: usize) -> Self {
        let mut hook = RowSpan {
            span: None,
            speculative: None,
        };
        let Some(parent) = parent else { return hook };
        if parent.trace().row_detailed(row as u64) {
            let mut span = parent.child("row");
            span.attr_num("row", row as u64);
            hook.span = Some(span);
        } else if parent.trace().speculative() {
            hook.speculative = Some((parent, Instant::now()));
        }
        hook
    }

    /// The parent for the row's rule spans: `Some` only on a detailed row,
    /// so rule spans exist exactly where their row's does.
    pub(crate) fn ctx(&self) -> Option<SpanCtx> {
        self.span.as_ref().map(Span::ctx)
    }

    /// Closes the row with what its repair did and, when the row ran
    /// through an [`ElementCache`](crate::repair::cache::ElementCache)
    /// overlay, which cache level answered its lookups.
    pub(crate) fn finish(self, report: &TupleReport, cache: Option<ElementCacheStats>) {
        if let Some(mut span) = self.span {
            span.attr_static("outcome", outcome_label(&report.outcome));
            span.attr_num("steps", report.steps.len() as u64);
            match &report.outcome {
                TupleOutcome::Completed => {}
                TupleOutcome::Degraded { reason } => {
                    span.attr_num("budget_steps", reason.steps);
                    span.attr_static("cause", cause_label(reason.cause));
                }
                TupleOutcome::Failed { message } => span.attr("message", message),
            }
            if let Some(stats) = cache {
                span.attr_num("local_hits", stats.local_hits as u64);
                span.attr_num("local_misses", stats.local_misses as u64);
                span.attr_num("shared_hits", stats.shared_hits as u64);
                span.attr_num("shared_misses", stats.shared_misses as u64);
            }
        } else if let Some((parent, started)) = self.speculative {
            let took = started.elapsed();
            if took >= SPECULATIVE_ROW_FLOOR {
                parent.record_completed("row", started, took);
            }
        }
    }
}

/// The rule hook: one `rule` span per rule check of a detailed row.
pub(crate) struct RuleSpan(Option<Span>);

impl RuleSpan {
    /// Opens the check of rule `index` under the row context `parent`.
    pub(crate) fn open(parent: Option<&SpanCtx>, index: usize, name: &str) -> Self {
        RuleSpan(parent.map(|parent| {
            let mut span = parent.child("rule");
            span.attr_num("rule", index as u64);
            span.attr("name", name);
            span
        }))
    }

    /// Closes the check with its result: the application kind, or
    /// `budget_exhausted` for the check that tripped the meter.
    pub(crate) fn finish(self, result: &Result<RuleApplication, BudgetExhaustion>) {
        if let Some(mut span) = self.0 {
            span.attr_static(
                "result",
                match result {
                    Ok(application) => application_kind(application),
                    Err(_) => "budget_exhausted",
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::basic::RepairStep;
    use dr_obs::{render, Sampler};

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

    /// Runs `rows` through the row hook of a JSONL capture sampling at
    /// `rate`, and renders the capture.
    fn render_rows(rate: f64, rows: &[(usize, TupleReport)]) -> Vec<String> {
        let trace = Arc::new(ActiveTrace::sampled(Sampler::new(3, rate)));
        let repair = SpanCtx::root(Arc::clone(&trace)).child("repair");
        let parent = repair.ctx();
        for (row, report) in rows {
            let hook = RowSpan::open(Some(&parent), *row);
            for step in &report.steps {
                RuleSpan::open(hook.ctx().as_ref(), step.rule_index, &step.rule_name)
                    .finish(&Ok(step.application.clone()));
            }
            hook.finish(report, Some(ElementCacheStats::default()));
        }
        repair.finish();
        let (text, dropped) = render(&trace.take_spans());
        assert_eq!(dropped, 0);
        text.lines().map(str::to_owned).collect()
    }

    fn failed(message: &str) -> TupleReport {
        TupleReport {
            outcome: TupleOutcome::Failed {
                message: message.into(),
            },
            ..TupleReport::default()
        }
    }

    #[test]
    fn unsampled_rows_emit_nothing() {
        let got = render_rows(0.0, &[(7, failed("boom")), (8, TupleReport::default())]);
        assert_eq!(got, [r#"{"ev":"repair"}"#]);
    }

    #[test]
    fn tuple_span_follows_the_documented_sequence() {
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
        let trace = Arc::new(ActiveTrace::sampled(Sampler::new(0, 1.0)));
        let repair = SpanCtx::root(Arc::clone(&trace)).child("repair");
        let parent = repair.ctx();
        let hook = RowSpan::open(Some(&parent), 5);
        RuleSpan::open(hook.ctx().as_ref(), 2, "r3")
            .finish(&Ok(report.steps[0].application.clone()));
        hook.finish(
            &report,
            Some(ElementCacheStats {
                local_hits: 1,
                local_misses: 2,
                shared_hits: 3,
                shared_misses: 4,
            }),
        );
        repair.finish();
        let (text, _) = render(&trace.take_spans());
        assert_eq!(
            text.lines().collect::<Vec<_>>(),
            [
                r#"{"ev":"repair"}"#,
                r#"{"ev":"row","row":5,"outcome":"failed","steps":1,"message":"boom","local_hits":1,"local_misses":2,"shared_hits":3,"shared_misses":4}"#,
                r#"{"ev":"rule","rule":2,"name":"r3","result":"detected_wrong"}"#,
            ]
        );
    }

    #[test]
    fn degraded_row_renders_its_budget_and_cause() {
        let degraded = TupleReport {
            outcome: TupleOutcome::Degraded {
                reason: BudgetExhaustion {
                    steps: 24,
                    cause: ExhaustCause::Deadline,
                },
            },
            ..TupleReport::default()
        };
        let got = render_rows(1.0, &[(0, degraded)]);
        assert_eq!(
            got[1],
            r#"{"ev":"row","row":0,"outcome":"degraded","steps":0,"budget_steps":24,"cause":"deadline","local_hits":0,"local_misses":0,"shared_hits":0,"shared_misses":0}"#
        );
    }
}
