//! The fast repair algorithm — Algorithm 2 of the paper (§IV-B).
//!
//! [`FastRepairer`] is the per-tuple kernel; the relation loop around it
//! is [`parallel_repair`], which [`fast_repair`] runs with one worker on
//! the calling thread.
//!
//! Three optimizations over the basic chase, all observable in the Exp-3
//! benchmarks:
//!
//! 1. **Rule order selection** — rules are checked in a topological order of
//!    the [`RuleGraph`] condensation, so a rule
//!    outside a dependency cycle is checked exactly once instead of being
//!    re-scanned after every application.
//! 2. **Efficient instance matching** — all node lookups go through the
//!    [`MatchContext`] signature indexes (hash for `=`, PASS-JOIN for
//!    `ED,k`).
//! 3. **Shared computation** — node and edge checks are memoized in an
//!    [`ElementCache`] keyed by `(col, type, sim)` signatures, shared across
//!    rules; entries are invalidated only when a repair rewrites their
//!    column.

use crate::context::MatchContext;
use crate::repair::basic::{RelationReport, RepairStep, TupleReport};
use crate::repair::budget::BudgetMeter;
use crate::repair::cache::ElementCache;
use crate::repair::parallel::{parallel_repair, ParallelOptions};
use crate::repair::resilience::TupleOutcome;
use crate::repair::rule_graph::RuleGraph;
use crate::repair::value_cache::ValueCache;
use crate::rule::apply::{apply_with, ApplyOptions, RuleApplication, Scratch};
use crate::rule::DetectiveRule;
use dr_relation::{Relation, Tuple};

/// A prepared fast repairer: rule set + precomputed check order.
///
/// Construction sorts the rules once (`O(|Σ| + |Er|)`); the order is reused
/// for every tuple.
pub struct FastRepairer<'r> {
    rules: &'r [DetectiveRule],
    order: Vec<Vec<usize>>,
}

/// One repair worker's reusable per-tuple state: the element cache, reset
/// at the start of every tuple so its counters are that tuple's, and the
/// rule kernel's buffers.
pub(crate) struct TupleScratch<'v, 'kb> {
    pub(crate) cache: ElementCache<'v>,
    rules: Scratch<'kb>,
    /// The members of a dependency cycle that fired on this tuple.
    fired: Vec<bool>,
}

impl<'v> TupleScratch<'v, '_> {
    /// Fresh state around `cache`.
    pub(crate) fn new(cache: ElementCache<'v>) -> Self {
        Self {
            cache,
            rules: Scratch::default(),
            fired: Vec::new(),
        }
    }
}

impl<'r> FastRepairer<'r> {
    /// Prepares the repairer: builds the rule graph and its topological
    /// check order.
    pub fn new(rules: &'r [DetectiveRule]) -> Self {
        let order = RuleGraph::build(rules).check_order();
        Self { rules, order }
    }

    /// The SCC check order (diagnostics / tests).
    pub fn check_order(&self) -> &[Vec<usize>] {
        &self.order
    }

    /// Repairs one tuple, sharing element checks across rules.
    pub fn repair_tuple(
        &self,
        ctx: &MatchContext<'_>,
        tuple: &mut Tuple,
        opts: &ApplyOptions,
    ) -> TupleReport {
        let meter = ctx.budget().meter();
        let mut scratch = TupleScratch::new(ElementCache::new());
        self.repair_tuple_with(ctx, tuple, opts, &mut scratch, &meter)
    }

    /// [`Self::repair_tuple`] with the per-tuple overlay backed by a
    /// relation-scoped [`ValueCache`], so element checks also share across
    /// tuples (and across threads — see [`parallel_repair`]).
    pub fn repair_tuple_shared(
        &self,
        ctx: &MatchContext<'_>,
        tuple: &mut Tuple,
        opts: &ApplyOptions,
        shared: &ValueCache,
    ) -> TupleReport {
        let meter = ctx.budget().meter();
        let mut scratch = TupleScratch::new(ElementCache::with_shared(shared));
        self.repair_tuple_with(ctx, tuple, opts, &mut scratch, &meter)
    }

    /// Innermost entry point: repairs one tuple through a worker's
    /// reusable state and a budget meter. Crate-visible so the relation
    /// driver ([`parallel_repair`]) can keep the state across rows and
    /// read the element cache's per-tuple
    /// [`level_stats`](ElementCache::level_stats) for the row span.
    pub(crate) fn repair_tuple_with<'kb>(
        &self,
        ctx: &MatchContext<'kb>,
        tuple: &mut Tuple,
        opts: &ApplyOptions,
        scratch: &mut TupleScratch<'_, 'kb>,
        meter: &BudgetMeter,
    ) -> TupleReport {
        scratch.cache.reset();
        let mut report = TupleReport::default();
        for group in &self.order {
            if let [ri] = group[..] {
                if self
                    .try_rule(ctx, ri, tuple, opts, scratch, meter, &mut report)
                    .is_err()
                {
                    return report;
                }
                continue;
            }
            // A dependency cycle: re-scan the group until no member fires.
            // Each rule still applies at most once.
            scratch.fired.clear();
            scratch.fired.resize(group.len(), false);
            loop {
                let mut fired = false;
                for (pos, &ri) in group.iter().enumerate() {
                    if scratch.fired[pos] {
                        continue;
                    }
                    match self.try_rule(ctx, ri, tuple, opts, scratch, meter, &mut report) {
                        Ok(true) => {
                            scratch.fired[pos] = true;
                            fired = true;
                            break;
                        }
                        Ok(false) => {}
                        Err(()) => return report,
                    }
                }
                if !fired {
                    break;
                }
            }
        }
        report
    }

    /// Applies rule `ri` if applicable; maintains cache invalidation.
    /// `Ok(fired)` normally; `Err(())` when the budget ran out — the
    /// degraded outcome is already recorded on `report` and the caller
    /// must stop this tuple.
    #[allow(clippy::too_many_arguments)] // internal helper threading the meter
    fn try_rule<'kb>(
        &self,
        ctx: &MatchContext<'kb>,
        ri: usize,
        tuple: &mut Tuple,
        opts: &ApplyOptions,
        scratch: &mut TupleScratch<'_, 'kb>,
        meter: &BudgetMeter,
        report: &mut TupleReport,
    ) -> Result<bool, ()> {
        let rule = &self.rules[ri];
        let cache = &mut scratch.cache;
        // The rule hook: a span per check, only under a detailed row.
        let rule_span = crate::obs::RuleSpan::open(ctx.span(), ri, rule.name());
        let result = apply_with(ctx, rule, tuple, opts, cache, meter, &mut scratch.rules);
        rule_span.finish(&result);
        let application = match result {
            Ok(application) => application,
            Err(reason) => {
                report.outcome = TupleOutcome::Degraded { reason };
                return Err(());
            }
        };
        if !application.applied() {
            return Ok(false);
        }
        // Invalidate cache entries for every column whose value changed.
        match &application {
            RuleApplication::Repaired {
                col, normalized, ..
            } => {
                cache.invalidate_col(*col);
                for n in normalized {
                    cache.invalidate_col(n.col);
                }
            }
            RuleApplication::ProofPositive { normalized, .. } => {
                for n in normalized {
                    cache.invalidate_col(n.col);
                }
            }
            RuleApplication::DetectedWrong { .. } => {} // marks only, no rewrites
            RuleApplication::NotApplicable => unreachable!("checked applied() above"),
        }
        report.steps.push(RepairStep {
            rule_index: ri,
            rule_name: rule.name().to_owned(),
            application,
        });
        Ok(true)
    }
}

/// Repairs every tuple of `relation` with Algorithm 2 on the calling
/// thread: [`parallel_repair`] with one worker.
pub fn fast_repair(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    relation: &mut Relation,
    opts: &ApplyOptions,
) -> RelationReport {
    parallel_repair(
        ctx,
        rules,
        relation,
        &ParallelOptions {
            apply: opts.clone(),
            threads: 1,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure4_rules, nobel_schema, table1_clean, table1_dirty};
    use crate::repair::basic::basic_repair;
    use crate::rule::apply::apply_rule_cached;
    use dr_kb::fixtures::nobel_mini_kb;
    use dr_relation::GroundTruth;

    /// Example 9: fRepair fixes r3 completely (Prize and Country repaired,
    /// everything marked).
    #[test]
    fn example9_r3() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let repairer = FastRepairer::new(&rules);
        let mut r3 = table1_dirty().tuple(2).clone();
        let report = repairer.repair_tuple(&ctx, &mut r3, &ApplyOptions::default());
        assert_eq!(report.steps.len(), 4);

        let expect = [
            ("Name", "Roald Hoffmann"),
            ("DOB", "1937-07-18"),
            ("Country", "United States"),
            ("Prize", "Nobel Prize in Chemistry"),
            ("Institution", "Cornell University"),
            ("City", "Ithaca"),
        ];
        for (col, value) in expect {
            let attr = schema.attr_expect(col);
            assert_eq!(r3.get(attr), value, "column {col}");
            assert!(r3.is_positive(attr), "column {col} marked");
        }
    }

    /// fRepair and bRepair compute identical results on Table I.
    #[test]
    fn equivalent_to_basic_on_table1() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let opts = ApplyOptions::default();

        let mut basic = table1_dirty();
        basic_repair(&ctx, &rules, &mut basic, &opts);
        let mut fast = table1_dirty();
        fast_repair(&ctx, &rules, &mut fast, &opts);

        for cell in basic.cell_refs() {
            assert_eq!(basic.value(cell), fast.value(cell), "value at {cell:?}");
            assert_eq!(
                basic.tuple(cell.row).is_positive(cell.attr),
                fast.tuple(cell.row).is_positive(cell.attr),
                "mark at {cell:?}"
            );
        }
    }

    /// The fast repairer reaches the clean table.
    #[test]
    fn table1_repairs_to_clean() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let mut dirty = table1_dirty();
        fast_repair(&ctx, &rules, &mut dirty, &ApplyOptions::default());
        let gt = GroundTruth::new(table1_clean());
        assert_eq!(gt.error_count(&dirty), 0);
    }

    /// Rules outside cycles are checked following the precomputed order:
    /// shuffled input yields the same result.
    #[test]
    fn input_order_does_not_matter() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let opts = ApplyOptions::default();
        let mut baseline = table1_dirty();
        fast_repair(&ctx, &rules, &mut baseline, &opts);

        let shuffled: Vec<_> = [3, 1, 0, 2].iter().map(|&i| rules[i].clone()).collect();
        let mut relation = table1_dirty();
        fast_repair(&ctx, &shuffled, &mut relation, &opts);
        for cell in baseline.cell_refs() {
            assert_eq!(baseline.value(cell), relation.value(cell));
        }
    }

    /// A registry-backed context warm-starts the second repair of a
    /// same-schema relation — and produces bit-identical results.
    #[test]
    fn registry_warm_start_is_transparent() {
        use crate::repair::registry::CacheRegistry;
        use std::sync::Arc;

        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let opts = ApplyOptions::default();

        let cold_ctx = MatchContext::new(&kb);
        let mut cold = table1_dirty();
        let cold_report = fast_repair(&cold_ctx, &rules, &mut cold, &opts);

        let registry = Arc::new(CacheRegistry::default());
        let ctx = MatchContext::with_registry(&kb, Arc::clone(&registry));
        let mut first = table1_dirty();
        let first_report = fast_repair(&ctx, &rules, &mut first, &opts);
        let mut second = table1_dirty();
        let second_report = fast_repair(&ctx, &rules, &mut second, &opts);

        // Bit-identical relations and traces, cold or warm.
        for cell in cold.cell_refs() {
            assert_eq!(cold.value(cell), first.value(cell));
            assert_eq!(cold.value(cell), second.value(cell));
        }
        assert_eq!(cold_report.tuples, first_report.tuples);
        assert_eq!(cold_report.tuples, second_report.tuples);

        // The second pass ran against the warm cache: every lookup the
        // first pass computed is now a hit, and the report's counters are
        // the per-repair delta (its misses don't double-count the first's).
        assert_eq!(registry.stats().warm_hits, 1);
        assert!(first_report.cache.misses() > 0, "cold pass computes");
        assert!(second_report.cache.hits() > 0, "warm pass reuses");
        assert_eq!(second_report.cache.misses(), 0, "{:?}", second_report.cache);
    }

    /// The element cache produces hits across rules sharing nodes.
    #[test]
    fn cache_is_shared_across_rules() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let repairer = FastRepairer::new(&rules);
        let mut r1 = table1_dirty().tuple(0).clone();
        let mut cache = ElementCache::new();
        // Drive the rules manually through one shared cache.
        for group in repairer.check_order() {
            for &ri in group {
                let _ = apply_rule_cached(
                    &ctx,
                    &rules[ri],
                    &mut r1,
                    &ApplyOptions::default(),
                    &mut cache,
                );
            }
        }
        let (hits, _) = cache.stats();
        assert!(hits > 0, "the Name node is shared by all four rules");
    }
}
