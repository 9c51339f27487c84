//! The basic repair algorithm — Algorithm 1 of the paper (§IV-A).
//!
//! A chase: repeatedly pick any rule applicable to the tuple, apply it, and
//! remove it from the working set (each rule applies at most once). With a
//! consistent rule set the chase is Church–Rosser — every application order
//! reaches the same fixpoint. Termination is structural: every application
//! strictly grows the set of positively marked attributes, so at most `|R|`
//! rules can fire.

use crate::context::MatchContext;
use crate::repair::cache::ElementCache;
use crate::repair::read_index::RowIndex;
use crate::repair::resilience::{ResilienceReport, TupleOutcome};
use crate::rule::apply::{apply_with, ApplyOptions, RuleApplication, Scratch};
use crate::rule::DetectiveRule;
use dr_relation::{AttrId, Relation, Tuple};
use std::sync::Arc;

/// One applied rule in a tuple's repair trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairStep {
    /// Index of the rule in the rule slice passed to the repairer.
    pub rule_index: usize,
    /// Name of the rule.
    pub rule_name: String,
    /// What the rule did.
    pub application: RuleApplication,
}

/// The repair trace of one tuple.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TupleReport {
    /// Applied rules, in application order.
    pub steps: Vec<RepairStep>,
    /// How the repair ended ([`TupleOutcome::Completed`] unless the
    /// tuple's budget ran out or its worker panicked — DESIGN.md §4c).
    pub outcome: TupleOutcome,
}

impl TupleReport {
    /// Number of value rewrites (repairs + normalizations).
    pub fn changes(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match &s.application {
                RuleApplication::Repaired { normalized, .. } => 1 + normalized.len(),
                RuleApplication::ProofPositive { normalized, .. } => normalized.len(),
                RuleApplication::DetectedWrong { .. } | RuleApplication::NotApplicable => 0,
            })
            .sum()
    }

    /// Every `(col, old, new)` rewrite in order.
    pub fn rewrites(&self) -> Vec<(AttrId, String, String)> {
        let mut out = Vec::new();
        for step in &self.steps {
            match &step.application {
                RuleApplication::Repaired {
                    col,
                    old,
                    new,
                    normalized,
                    ..
                } => {
                    for n in normalized {
                        out.push((n.col, n.old.clone(), n.new.clone()));
                    }
                    out.push((*col, old.clone(), new.clone()));
                }
                RuleApplication::ProofPositive { normalized, .. } => {
                    for n in normalized {
                        out.push((n.col, n.old.clone(), n.new.clone()));
                    }
                }
                RuleApplication::DetectedWrong { .. } | RuleApplication::NotApplicable => {}
            }
        }
        out
    }
}

/// Wall-clock phase timings of a relation repair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Time spent building the `(type, sim)` match indexes up front
    /// ([`MatchContext::prewarm`]). Zero when the repairer did not prewarm.
    pub prewarm: std::time::Duration,
    /// Time spent in the per-tuple repair loop proper.
    pub repair: std::time::Duration,
}

impl std::ops::AddAssign for PhaseTimings {
    /// Phase-wise accumulation — used by experiment harnesses summing
    /// per-table reports into one row.
    fn add_assign(&mut self, rhs: Self) {
        self.prewarm += rhs.prewarm;
        self.repair += rhs.repair;
    }
}

/// The repair trace of a relation.
///
/// Per-row traces and footprints are shared by reference, so selective
/// re-repair takes an unchanged row's from the prior report without
/// copying them. The report also carries a reverse index from KB region to
/// row, built on its first selective re-repair and shared with the reports
/// that re-repair produces, so selection looks up a delta's regions instead
/// of testing every row's footprint. A clone starts without one, so
/// editing either copy cannot leave the other's index short of a row.
#[derive(Debug, Default)]
pub struct RelationReport {
    /// Per-tuple traces, indexed by row.
    pub tuples: Vec<Arc<TupleReport>>,
    /// Relation-scoped [`ValueCache`](crate::repair::value_cache::ValueCache)
    /// counters; all-zero for repairers that do not share one (e.g. the
    /// basic chase).
    pub cache: crate::repair::value_cache::CacheStats,
    /// Per-phase wall-clock timings; zero for the basic chase unless an
    /// observability handle is attached (the metrics need real numbers).
    pub timing: PhaseTimings,
    /// Degraded/failed/quarantined counters plus the budget-exhaustion
    /// histogram; all-zero on a healthy run (DESIGN.md §4c).
    pub resilience: ResilienceReport,
    /// Per-row KB read footprints, indexed like [`Self::tuples`] — what
    /// selective re-repair checks against a delta's footprint to decide
    /// which rows to re-run. Empty, or one per row when the context has a
    /// registry: only a registry-attached context has a next KB generation
    /// to re-repair against, so only its passes record (always empty for
    /// the basic chase). Read-only once the report has served a selective
    /// re-repair: its row index was built from them.
    pub footprints: Vec<dr_kb::KbFootprint>,
    /// `Some(n)` when this report came from
    /// [`parallel_repair_selective`](crate::repair::parallel::parallel_repair_selective):
    /// `n` rows were actually re-repaired, the rest reused prior results.
    /// `None` on full repairs.
    pub selected_rows: Option<usize>,
    /// Region → row index over [`Self::footprints`], built lazily.
    pub(crate) row_index: RowIndex,
}

impl Clone for RelationReport {
    fn clone(&self) -> Self {
        Self {
            tuples: self.tuples.clone(),
            cache: self.cache,
            timing: self.timing,
            resilience: self.resilience,
            footprints: self.footprints.clone(),
            selected_rows: self.selected_rows,
            row_index: RowIndex::default(),
        }
    }
}

impl RelationReport {
    /// Total rules applied across all tuples.
    pub fn total_applications(&self) -> usize {
        self.tuples.iter().map(|t| t.steps.len()).sum()
    }

    /// Total value rewrites across all tuples.
    pub fn total_changes(&self) -> usize {
        self.tuples.iter().map(|t| t.changes()).sum()
    }

    /// Recomputes [`Self::resilience`] from the per-tuple outcomes (the
    /// loader quarantine count is preserved — it is not derivable from the
    /// tuples).
    pub fn tally_resilience(&mut self) {
        let quarantined = self.resilience.quarantined;
        self.resilience = ResilienceReport::tally(self.tuples.iter().map(|t| &**t));
        self.resilience.quarantined = quarantined;
    }

    /// The rows a KB delta with write footprint `delta_fp` may have
    /// changed, ascending: every row whose footprint is stale under
    /// `delta_fp`, plus every row whose repair never settled (a
    /// non-`Completed` row carries no trustworthy result). Requires a
    /// footprint per row.
    pub(crate) fn rows_to_rerun(&self, delta_fp: &dr_kb::KbFootprint) -> Vec<usize> {
        self.row_index.select(self, delta_fp)
    }

    /// The report of a selective re-repair: `sub`'s per-row results at
    /// `rows` (ascending, one per row of `sub`), this report's shared ones
    /// everywhere else. Requires a footprint per row on both reports.
    pub(crate) fn splice(&self, rows: &[usize], sub: RelationReport) -> RelationReport {
        let mut tuples = self.tuples.clone();
        let mut footprints = self.footprints.clone();
        for ((&row, tuple), fp) in rows.iter().zip(sub.tuples).zip(sub.footprints) {
            tuples[row] = tuple;
            footprints[row] = fp;
        }
        let mut next = RelationReport {
            tuples,
            footprints,
            cache: sub.cache,
            timing: sub.timing,
            selected_rows: Some(rows.len()),
            ..RelationReport::default()
        };
        next.row_index = self.row_index.successor(self, rows, &next);
        next.tally_resilience();
        next
    }
}

/// Repairs one tuple with Algorithm 1: scan the remaining rules for an
/// applicable one, apply it, repeat to fixpoint.
///
/// The element cache is local to the call (the basic algorithm re-derives
/// candidates per rule, which is exactly the cost the fast variant removes —
/// see [`fast`](crate::repair::fast)); correctness is identical.
pub fn basic_repair_tuple(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    tuple: &mut Tuple,
    opts: &ApplyOptions,
) -> TupleReport {
    basic_repair_tuple_with(ctx, rules, tuple, opts, &mut Scratch::default())
}

/// [`basic_repair_tuple`] through rule-check buffers the caller keeps
/// across tuples.
fn basic_repair_tuple_with<'kb>(
    ctx: &MatchContext<'kb>,
    rules: &[DetectiveRule],
    tuple: &mut Tuple,
    opts: &ApplyOptions,
    scratch: &mut Scratch<'kb>,
) -> TupleReport {
    let meter = ctx.budget().meter();
    let mut remaining: Vec<usize> = (0..rules.len()).collect();
    let mut report = TupleReport::default();
    loop {
        let mut fired: Option<usize> = None;
        // Basic algorithm: no shared cache — every rule check recomputes its
        // element matches (a fresh cache per check).
        for (pos, &ri) in remaining.iter().enumerate() {
            let mut cache = ElementCache::new();
            let rule_span = crate::obs::RuleSpan::open(ctx.span(), ri, rules[ri].name());
            let result = apply_with(ctx, &rules[ri], tuple, opts, &mut cache, &meter, scratch);
            rule_span.finish(&result);
            match result {
                Ok(application) if application.applied() => {
                    report.steps.push(RepairStep {
                        rule_index: ri,
                        rule_name: rules[ri].name().to_owned(),
                        application,
                    });
                    fired = Some(pos);
                    break;
                }
                Ok(_) => {}
                Err(reason) => {
                    // Budget exhausted: keep the completed applications,
                    // skip the remaining rules, degrade the tuple.
                    report.outcome = TupleOutcome::Degraded { reason };
                    return report;
                }
            }
        }
        match fired {
            Some(pos) => {
                remaining.remove(pos);
            }
            None => break,
        }
    }
    report
}

/// Repairs every tuple of `relation` with Algorithm 1.
pub fn basic_repair(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    relation: &mut Relation,
    opts: &ApplyOptions,
) -> RelationReport {
    let obs = ctx.obs();
    // The same relation, phase, row and rule hooks as `parallel_repair`
    // (`crate::obs`), with no prewarm phase.
    let relation_span = crate::obs::RelationSpan::open(ctx, "basic", relation.len(), rules.len());
    let repair_span = relation_span.phase("repair");
    let rows_parent = repair_span.as_ref().map(|s| s.ctx());
    let tuple_hist = obs.map(|o| o.metrics().histogram("repair_tuple_seconds", &[]));
    let repair_start = std::time::Instant::now();
    let mut report = RelationReport::default();
    let mut scratch = Scratch::default();
    for row in 0..relation.len() {
        let tuple = relation.tuple_mut(row);
        let started = tuple_hist.as_ref().map(|_| std::time::Instant::now());
        let row_span = crate::obs::RowSpan::open(rows_parent.as_ref(), row);
        // A traced relation repairs each row under the row's own span, so
        // rule spans exist exactly under detailed rows.
        let row_ctx = rows_parent
            .as_ref()
            .map(|_| ctx.fork().with_span_opt(row_span.ctx()));
        let tuple_report = basic_repair_tuple_with(
            row_ctx.as_ref().unwrap_or(ctx),
            rules,
            tuple,
            opts,
            &mut scratch,
        );
        if let (Some(hist), Some(started)) = (&tuple_hist, started) {
            hist.record(started.elapsed());
        }
        row_span.finish(&tuple_report, None);
        report.tuples.push(Arc::new(tuple_report));
    }
    if let Some(span) = repair_span {
        span.finish();
    }
    report.tally_resilience();
    if let Some(obs) = obs {
        report.timing.repair = repair_start.elapsed();
        crate::obs::record_relation(obs, "basic", &report);
    }
    relation_span.finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure4_rules, nobel_schema, table1_clean, table1_dirty};
    use dr_kb::fixtures::nobel_mini_kb;
    use dr_relation::GroundTruth;

    /// Example 7: the fixpoint of r1 under all four rules is the fully
    /// repaired, fully marked tuple.
    #[test]
    fn example7_r1_reaches_fixpoint() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let mut r1 = table1_dirty().tuple(0).clone();

        let report = basic_repair_tuple(&ctx, &rules, &mut r1, &ApplyOptions::default());
        assert_eq!(report.steps.len(), 4, "all four rules fire on r1");

        let expect = [
            ("Name", "Avram Hershko"),
            ("DOB", "1937-12-31"),
            ("Country", "Israel"),
            ("Prize", "Nobel Prize in Chemistry"),
            ("Institution", "Israel Institute of Technology"),
            ("City", "Haifa"),
        ];
        for (col, value) in expect {
            let attr = schema.attr_expect(col);
            assert_eq!(r1.get(attr), value, "column {col}");
            assert!(r1.is_positive(attr), "column {col} marked positive");
        }
    }

    /// Whole-table repair of Table I reaches the published clean table
    /// (Calvin resolves to the UC Berkeley variant via candidate ordering).
    #[test]
    fn table1_repairs_to_clean() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let mut dirty = table1_dirty();
        let report = basic_repair(&ctx, &rules, &mut dirty, &ApplyOptions::default());
        assert!(report.total_applications() >= 12);

        let gt = GroundTruth::new(table1_clean());
        let leftover = gt.erroneous_cells(&dirty);
        assert!(
            leftover.is_empty(),
            "unrepaired cells: {:?} (values {:?})",
            leftover,
            leftover.iter().map(|&c| dirty.value(c)).collect::<Vec<_>>()
        );
    }

    /// Rule application order within the chase does not change the fixpoint
    /// (Church–Rosser for a consistent rule set).
    #[test]
    fn chase_is_order_insensitive_on_table1() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let opts = ApplyOptions::default();

        let mut baseline = table1_dirty();
        basic_repair(&ctx, &rules, &mut baseline, &opts);

        // All 24 permutations of the four rules.
        let perms = permutations(rules.len());
        for perm in perms {
            let reordered: Vec<_> = perm.iter().map(|&i| rules[i].clone()).collect();
            let mut relation = table1_dirty();
            basic_repair(&ctx, &reordered, &mut relation, &opts);
            for cell in relation.cell_refs() {
                assert_eq!(
                    relation.value(cell),
                    baseline.value(cell),
                    "order {perm:?} diverged at {cell:?}"
                );
            }
        }
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut items: Vec<usize> = (0..n).collect();
        heap_permute(&mut items, n, &mut out);
        out
    }

    fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap_permute(items, k - 1, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }

    /// An empty rule set leaves the relation untouched.
    #[test]
    fn empty_rules_do_nothing() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let mut dirty = table1_dirty();
        let report = basic_repair(&ctx, &[], &mut dirty, &ApplyOptions::default());
        assert_eq!(report.total_applications(), 0);
        assert_eq!(dirty.positive_count(), 0);
    }

    /// The trace records the rewrites actually performed.
    #[test]
    fn report_rewrites_match_diff() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let before = table1_dirty();
        let mut after = before.clone();
        let report = basic_repair(&ctx, &rules, &mut after, &ApplyOptions::default());
        for (row, tuple_report) in report.tuples.iter().enumerate() {
            for (col, old, new) in tuple_report.rewrites() {
                assert_eq!(before.tuple(row).get(col), old);
                // `new` must either persist or have been further repaired —
                // marks forbid the latter, so it persists.
                assert_eq!(after.tuple(row).get(col), new);
            }
        }
    }
}
