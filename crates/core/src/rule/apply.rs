//! Applying one detective rule to one tuple (§II-C semantics, the body of
//! Algorithm 1's loop).
//!
//! Three outcomes:
//!
//! 1. **Proof positive** — an instance-level match of `Ve ∪ {p}` exists:
//!    every matched column is marked `+`.
//! 2. **Proof negative + correction** — a match of `Ve ∪ {n}` exists *and*
//!    the same evidence instances extend to `Ve ∪ {p}` with some `x_p ≠ x_n`:
//!    `t[col(n)]` is wrong and is repaired to the value of `x_p`, then all of
//!    `col(Ve ∪ {p})` are marked `+`.
//! 3. **Not applicable** — neither holds, or nothing new would be marked.
//!
//! ### Fuzzy-value normalization
//!
//! When a node matches through a tolerant `sim` (e.g. `ED,2`), the cell may
//! hold a typo'd variant of the KB label (*Paster Institute*). The paper's
//! experiments repair typos "to the most similar candidate" (§V Exp-2(B));
//! we implement that as *normalization*: if every instance-level match binds
//! the node to a single canonical label, the cell is rewritten to it while
//! being marked. Normalization is skipped when matches are ambiguous (two
//! different labels) or the cell is already frozen. It can be disabled via
//! [`ApplyOptions::normalize_fuzzy`] for ablations.

use crate::context::{MatchContext, ReadSet};
use crate::graph::instance::{solve, Shape, SolverScratch};
use crate::graph::schema::{NodeType, SchemaNode};
use crate::repair::budget::{BudgetExhaustion, BudgetMeter};
use crate::repair::cache::{EdgeSig, ElementCache};
use crate::rule::{DetectiveRule, RuleEdge, RuleNodeRef};
use dr_kb::{Node, PredId};
use dr_relation::{AttrId, Tuple};
use dr_simmatch::SimFn;
use std::sync::Arc;

/// Options controlling rule application.
#[derive(Debug, Clone)]
pub struct ApplyOptions {
    /// Rewrite fuzzily matched cells to the canonical KB label when the
    /// binding is unambiguous.
    pub normalize_fuzzy: bool,
    /// Stop enumerating instance-level matches after this many assignments
    /// (existence is already established; only normalization/multi-version
    /// completeness degrades).
    pub max_assignments: usize,
    /// §II-C case (2) without correction: when the negative side matches
    /// but the KB holds no repair instance `x_p`, still mark the evidence
    /// positive and flag the cell as detected-wrong (Sherlock-style
    /// annotation). Off by default — Algorithm 1 only acts when a full
    /// repair exists.
    pub detect_without_repair: bool,
}

impl Default for ApplyOptions {
    fn default() -> Self {
        Self {
            normalize_fuzzy: true,
            max_assignments: 10_000,
            detect_without_repair: false,
        }
    }
}

/// A value rewrite performed while marking (typo normalization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Normalization {
    /// The rewritten column.
    pub col: AttrId,
    /// Previous cell value.
    pub old: String,
    /// Canonical KB label now stored.
    pub new: String,
}

/// The result of applying one rule to one tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleApplication {
    /// The rule neither matched nor could mark anything new.
    NotApplicable,
    /// Proof positive: columns marked correct, possibly normalized.
    ProofPositive {
        /// Columns newly marked positive.
        newly_marked: Vec<AttrId>,
        /// Typo normalizations applied while marking.
        normalized: Vec<Normalization>,
    },
    /// Proof negative without correction (only with
    /// [`ApplyOptions::detect_without_repair`]): the negative semantics
    /// matched but the KB offers no repair instance. The evidence is marked
    /// positive and `col` is flagged wrong, its value untouched.
    DetectedWrong {
        /// The detected-wrong column.
        col: AttrId,
        /// Evidence columns newly marked positive.
        newly_marked: Vec<AttrId>,
    },
    /// Proof negative + correction: `col` was wrong and has been repaired.
    Repaired {
        /// The repaired column (`col(n) = col(p)`).
        col: AttrId,
        /// The wrong value that was replaced.
        old: String,
        /// The value written (first of `candidates`).
        new: String,
        /// All valid repair values (multi-version repairs, sorted). Contains
        /// `new` as its first element.
        candidates: Vec<String>,
        /// Columns newly marked positive (evidence + repaired column).
        newly_marked: Vec<AttrId>,
        /// Typo normalizations applied to evidence cells.
        normalized: Vec<Normalization>,
    },
}

impl RuleApplication {
    /// Whether the rule did anything to the tuple.
    pub fn applied(&self) -> bool {
        !matches!(self, RuleApplication::NotApplicable)
    }
}

/// One side of a rule compiled to the solver's shape: evidence nodes
/// `0..k`, the side's kept nodes from `k`, then the auxiliary nodes its
/// edges use, in order of first use.
#[derive(Debug, Default, PartialEq, Eq)]
struct Side {
    tys: Vec<NodeType>,
    /// The schema node whose candidates seed each constrained node; `None`
    /// for a free node.
    seeds: Vec<Option<SchemaNode>>,
    edges: Vec<(usize, PredId, usize)>,
}

impl Side {
    /// Compiles the side of `rule` made of the evidence, `kept` (rule node,
    /// type, seed) and `edges`.
    fn new<'r>(
        rule: &DetectiveRule,
        kept: &[(RuleNodeRef, NodeType, Option<SchemaNode>)],
        edges: impl Iterator<Item = &'r RuleEdge>,
    ) -> Self {
        let edges: Vec<&RuleEdge> = edges.collect();
        let k = rule.evidence().len();
        let mut tys: Vec<NodeType> = rule.evidence().iter().map(|ev| ev.ty).collect();
        let mut seeds: Vec<Option<SchemaNode>> =
            rule.evidence().iter().copied().map(Some).collect();
        for &(_, ty, seed) in kept {
            tys.push(ty);
            seeds.push(seed);
        }
        let mut aux_at = vec![None; rule.aux().len()];
        for e in &edges {
            for end in [e.from, e.to] {
                if let RuleNodeRef::Aux(i) = end {
                    if aux_at[i].is_none() {
                        aux_at[i] = Some(tys.len());
                        tys.push(rule.aux()[i]);
                        seeds.push(None);
                    }
                }
            }
        }
        let at = |r: RuleNodeRef| match r {
            RuleNodeRef::Evidence(i) => i,
            RuleNodeRef::Aux(i) => aux_at[i].expect("aux placed above"),
            r => {
                k + kept
                    .iter()
                    .position(|&(kept, ..)| kept == r)
                    .expect("a side's edges end on its own nodes")
            }
        };
        let edges = edges
            .iter()
            .map(|e| (at(e.from), e.rel, at(e.to)))
            .collect();
        Self { tys, seeds, edges }
    }
}

/// A rule's instance-matching patterns and prefilter edges, compiled once
/// when the rule is built, so a rule check only fills in the candidate
/// lists of the tuple at hand.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct CompiledRule {
    /// Proof positive `Ve ∪ {p}`: `p` at `k`.
    positive: Side,
    /// Proof negative `Ve ∪ {n} ∪ {p·free}`: `n` at `k`, free `p` at
    /// `k + 1`; all auxiliary nodes may be needed (the negative check
    /// replays the positive structure for `x_p`).
    negative: Side,
    /// The negative side alone `Ve ∪ {n}` (detection without repair).
    negative_only: Side,
    /// The edges each prefilter checks through the element cache: those
    /// with a column on both ends. An edge touching an auxiliary node
    /// cannot be decided from per-column signatures and passes.
    evidence_edges: Vec<EdgeSig>,
    positive_edges: Vec<EdgeSig>,
    negative_edges: Vec<EdgeSig>,
}

impl CompiledRule {
    pub(crate) fn new(rule: &DetectiveRule) -> Self {
        let (p, n) = (*rule.positive(), *rule.negative());
        let column_edges = |edges: &mut dyn Iterator<Item = &RuleEdge>| -> Vec<EdgeSig> {
            edges
                .filter_map(|e| Some((ref_node(rule, e.from)?, e.rel, ref_node(rule, e.to)?)))
                .collect()
        };
        Self {
            positive: Side::new(
                rule,
                &[(RuleNodeRef::Positive, p.ty, Some(p))],
                rule.positive_edges(),
            ),
            negative: Side::new(
                rule,
                &[
                    (RuleNodeRef::Negative, n.ty, Some(n)),
                    (RuleNodeRef::Positive, p.ty, None),
                ],
                rule.edges().iter(),
            ),
            negative_only: Side::new(
                rule,
                &[(RuleNodeRef::Negative, n.ty, Some(n))],
                rule.negative_edges(),
            ),
            evidence_edges: column_edges(&mut rule.evidence_edges()),
            positive_edges: column_edges(&mut rule.positive_edges()),
            negative_edges: column_edges(&mut rule.negative_edges()),
        }
    }
}

/// Maps a [`RuleNodeRef`] to its schema node; `None` for auxiliary nodes
/// (which carry no column and cannot be prefiltered by value).
fn ref_node(rule: &DetectiveRule, r: RuleNodeRef) -> Option<SchemaNode> {
    match r {
        RuleNodeRef::Evidence(i) => Some(rule.evidence()[i]),
        RuleNodeRef::Positive => Some(*rule.positive()),
        RuleNodeRef::Negative => Some(*rule.negative()),
        RuleNodeRef::Aux(_) => None,
    }
}

/// The canonical labels one pattern node was bound to across assignments,
/// deduplicated by label: all that normalization asks is whether there was
/// exactly one.
#[derive(Debug, Clone, Copy)]
enum Label<'kb> {
    Unbound,
    One(&'kb str),
    Ambiguous,
}

impl<'kb> Label<'kb> {
    fn observe(&mut self, label: &'kb str) {
        *self = match *self {
            Label::Unbound => Label::One(label),
            Label::One(seen) if seen == label => Label::One(seen),
            _ => Label::Ambiguous,
        };
    }

    /// The unique label, if unambiguous.
    fn unique(self) -> Option<&'kb str> {
        match self {
            Label::One(label) => Some(label),
            _ => None,
        }
    }
}

/// Records each node's label in one assignment.
fn observe_labels<'kb>(labels: &mut [Label<'kb>], kb: dr_kb::KbRef<'kb>, assignment: &[Node]) {
    for (label, &node) in labels.iter_mut().zip(assignment) {
        label.observe(kb.node_value(node));
    }
}

/// A rule check's reusable buffers: the solver's, each pattern node's
/// candidate list and label, and the proof-negative repair values. A
/// repair worker keeps one, so checking a rule allocates nothing beyond
/// what its [`RuleApplication`] keeps.
#[derive(Debug, Default)]
pub(crate) struct Scratch<'kb> {
    solver: SolverScratch,
    base: Vec<Option<Arc<Vec<Node>>>>,
    labels: Vec<Label<'kb>>,
    repairs: Vec<&'kb str>,
}

impl<'kb> Scratch<'kb> {
    /// Seeds `side`'s constrained nodes from the element cache (in node
    /// order, the evidence first) and resets the labels.
    fn seed(
        &mut self,
        ctx: &MatchContext<'kb>,
        cache: &mut ElementCache<'_>,
        tuple: &Tuple,
        side: &Side,
    ) {
        self.base.clear();
        self.base.extend(
            side.seeds
                .iter()
                .map(|seed| seed.map(|node| cache.candidates(ctx, tuple, &node))),
        );
        self.labels.clear();
        self.labels.resize(side.tys.len(), Label::Unbound);
    }

    /// Visits `side`'s assignments (seeded by [`Self::seed`]) with `f`,
    /// which also sees the label slots, recording the search's KB reads
    /// into `reads`.
    fn solve(
        &mut self,
        ctx: &MatchContext<'kb>,
        side: &Side,
        meter: &BudgetMeter,
        reads: &mut ReadSet,
        mut f: impl FnMut(&[Node], &mut [Label<'kb>], &mut Vec<&'kb str>) -> bool,
    ) {
        let Scratch {
            solver,
            base,
            labels,
            repairs,
        } = self;
        let shape = Shape {
            tys: &side.tys,
            edges: &side.edges,
            base: &base[..],
        };
        solve(ctx, shape, meter, solver, reads, &mut |assignment| {
            f(assignment, labels, repairs)
        });
    }
}

/// Normalizes unmarked, fuzzily matched cells to their unique canonical
/// label; returns the rewrites performed.
///
/// A cell is only rewritten when its current value matches **no** KB value
/// of the node's type exactly: an exact match means the value names a real
/// entity (possibly a near-twin of the bound one), not a typo, and
/// rewriting it would trade a trusted value for a guess. That check reads
/// the node type's extent, which seeding the node already recorded.
fn normalize_cells(
    ctx: &MatchContext<'_>,
    tuple: &mut Tuple,
    labels: &[Label<'_>],
    // (pattern node index, node) pairs to consider.
    nodes: impl Iterator<Item = (usize, SchemaNode)>,
) -> Vec<Normalization> {
    let mut out = Vec::new();
    for (idx, node) in nodes {
        let col = node.col;
        if node.sim.is_exact() || tuple.is_positive(col) {
            continue;
        }
        if let Some(label) = labels[idx].unique() {
            let current = tuple.get(col);
            if current != label && !ctx.matches_any(node.ty, SimFn::Equal, current) {
                let old = current.to_owned();
                tuple.set(col, label);
                out.push(Normalization {
                    col,
                    old,
                    new: label.to_owned(),
                });
            }
        }
    }
    out
}

/// Whether every edge passes the element cache's connectivity check.
fn edges_ok(
    ctx: &MatchContext<'_>,
    cache: &mut ElementCache<'_>,
    tuple: &Tuple,
    edges: &[EdgeSig],
) -> bool {
    edges
        .iter()
        .all(|(from, rel, to)| cache.edge_ok(ctx, tuple, from, *rel, to))
}

/// Marks every unmarked column of `col(Ve ∪ {p})`, returning them.
fn mark_rule_cols(rule: &DetectiveRule, tuple: &mut Tuple) -> Vec<AttrId> {
    let mut newly_marked = Vec::new();
    for c in rule.marked_cols() {
        if !tuple.is_positive(c) {
            tuple.mark_positive(c);
            newly_marked.push(c);
        }
    }
    newly_marked
}

/// Applies `rule` to `tuple` against `ctx`, mutating the tuple on success.
///
/// The tuple's positive marks are respected: frozen cells are never modified,
/// and the rule is [`RuleApplication::NotApplicable`] if it could not mark
/// anything new.
///
/// Uses a private, throwaway element cache; the fast repair algorithm shares
/// one across rules via [`apply_rule_cached`].
pub fn apply_rule(
    ctx: &MatchContext<'_>,
    rule: &DetectiveRule,
    tuple: &mut Tuple,
    opts: &ApplyOptions,
) -> RuleApplication {
    let mut cache = ElementCache::new();
    apply_rule_cached(ctx, rule, tuple, opts, &mut cache)
}

/// [`apply_rule`] with a caller-provided element cache shared across rules
/// (§IV-B(3)). Per-element results memoize in `cache`; the caller must
/// invalidate columns whose values this application changes (see
/// [`RuleApplication`]'s repair and normalization fields).
pub fn apply_rule_cached(
    ctx: &MatchContext<'_>,
    rule: &DetectiveRule,
    tuple: &mut Tuple,
    opts: &ApplyOptions,
    cache: &mut ElementCache<'_>,
) -> RuleApplication {
    // An unbounded meter never exhausts, so the Err arm is unreachable.
    let meter = BudgetMeter::unbounded();
    apply_with(
        ctx,
        rule,
        tuple,
        opts,
        cache,
        &meter,
        &mut Scratch::default(),
    )
    .unwrap_or(RuleApplication::NotApplicable)
}

/// [`apply_rule_cached`] charging the instance-graph searches to `meter`
/// (the budget pillar of the resilience layer, DESIGN.md §4c), with
/// buffers the caller keeps across rule checks: the repair drivers'
/// per-tuple kernel.
///
/// A rule that does not apply leaves the tuple untouched. On exhaustion
/// the application aborts **before mutating the tuple**: a rule either
/// fully applies (marks, normalizations, repair all written) or reports
/// `Err` having written nothing — so a degraded tuple is always a prefix
/// of the fault-free chase, never a torn rule application. Earlier rules'
/// completed applications stand.
pub(crate) fn apply_with<'kb>(
    ctx: &MatchContext<'kb>,
    rule: &DetectiveRule,
    tuple: &mut Tuple,
    opts: &ApplyOptions,
    cache: &mut ElementCache<'_>,
    meter: &BudgetMeter,
    scratch: &mut Scratch<'kb>,
) -> Result<RuleApplication, BudgetExhaustion> {
    let kb = ctx.kb();
    let compiled = rule.compiled();
    meter.check()?;
    let k = rule.evidence().len();
    let would_mark_new = rule.marked_cols().any(|c| !tuple.is_positive(c));
    if !would_mark_new {
        return Ok(RuleApplication::NotApplicable);
    }
    // ---- Shared evidence prefilter ----------------------------------------
    // Both proofs need every evidence node and evidence-internal edge to
    // match individually; these checks are memoized across rules.
    for ev in rule.evidence() {
        if !cache.node_ok(ctx, tuple, ev) {
            return Ok(RuleApplication::NotApplicable);
        }
    }
    if !edges_ok(ctx, cache, tuple, &compiled.evidence_edges) {
        return Ok(RuleApplication::NotApplicable);
    }

    // ---- Proof positive ----------------------------------------------------
    let positive_prefilter_ok = cache.node_ok(ctx, tuple, rule.positive())
        && edges_ok(ctx, cache, tuple, &compiled.positive_edges);
    if positive_prefilter_ok {
        let side = &compiled.positive;
        scratch.seed(ctx, cache, tuple, side);
        let mut found = false;
        let mut visits = 0usize;
        scratch.solve(
            ctx,
            side,
            meter,
            &mut cache.reads,
            |assignment, labels, _| {
                found = true;
                observe_labels(labels, kb, assignment);
                visits += 1;
                visits < opts.max_assignments
            },
        );
        // Abort before mutating: an exhausted enumeration may have missed
        // assignments, so normalization/marks would be unreliable.
        meter.check()?;
        if found {
            let normalized = if opts.normalize_fuzzy {
                let nodes = rule.evidence().iter().copied().chain([*rule.positive()]);
                normalize_cells(ctx, tuple, &scratch.labels, nodes.enumerate())
            } else {
                Vec::new()
            };
            return Ok(RuleApplication::ProofPositive {
                newly_marked: mark_rule_cols(rule, tuple),
                normalized,
            });
        }
    }

    // ---- Proof negative + correction --------------------------------------
    let repair_col = rule.repair_col();
    if tuple.is_positive(repair_col) {
        return Ok(RuleApplication::NotApplicable);
    }
    // Prefilter the negative node and the negative edges that do not touch
    // the (value-unconstrained) positive node.
    if !cache.node_ok(ctx, tuple, rule.negative())
        || !edges_ok(ctx, cache, tuple, &compiled.negative_edges)
    {
        return Ok(RuleApplication::NotApplicable);
    }
    let side = &compiled.negative;
    scratch.seed(ctx, cache, tuple, side);
    scratch.repairs.clear();
    let (n_idx, p_idx) = (k, k + 1);
    let mut visits = 0usize;
    scratch.solve(
        ctx,
        side,
        meter,
        &mut cache.reads,
        |assignment, labels, repairs| {
            if assignment[p_idx] != assignment[n_idx] {
                repairs.push(kb.node_value(assignment[p_idx]));
                observe_labels(labels, kb, assignment);
            }
            visits += 1;
            visits < opts.max_assignments
        },
    );
    // Abort before the repair write: exhaustion mid-enumeration may have
    // missed candidates, and candidates[0] must be deterministic.
    meter.check()?;
    if scratch.repairs.is_empty() {
        if opts.detect_without_repair {
            // Does the negative side alone match (evidence + n, ignoring
            // the positive structure)? Then §II-C case (2) marks the
            // evidence correct and flags the cell as potentially wrong.
            let side = &compiled.negative_only;
            scratch.seed(ctx, cache, tuple, side);
            let mut negative_matches = false;
            scratch.solve(ctx, side, meter, &mut cache.reads, |_, _, _| {
                negative_matches = true;
                false
            });
            meter.check()?;
            if negative_matches {
                let mut newly_marked = Vec::new();
                for ev in rule.evidence() {
                    if !tuple.is_positive(ev.col) {
                        tuple.mark_positive(ev.col);
                        newly_marked.push(ev.col);
                    }
                }
                // Returned even when the evidence was already marked: the
                // wrong-flag on `repair_col` is the annotation of value.
                return Ok(RuleApplication::DetectedWrong {
                    col: repair_col,
                    newly_marked,
                });
            }
        }
        return Ok(RuleApplication::NotApplicable);
    }
    // The repair values, deduplicated by label and sorted; the first is
    // written.
    scratch.repairs.sort_unstable();
    scratch.repairs.dedup();
    let candidates: Vec<String> = scratch.repairs.iter().map(|&v| v.to_owned()).collect();

    let normalized = if opts.normalize_fuzzy {
        let nodes = rule.evidence().iter().copied().enumerate();
        normalize_cells(ctx, tuple, &scratch.labels, nodes)
    } else {
        Vec::new()
    };

    let old = tuple.get(repair_col).to_owned();
    let new = candidates[0].clone();
    tuple.set(repair_col, new.clone());
    Ok(RuleApplication::Repaired {
        col: repair_col,
        old,
        new,
        candidates,
        newly_marked: mark_rule_cols(rule, tuple),
        normalized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure4_rules, nobel_schema, table1_dirty};
    use dr_kb::fixtures::nobel_mini_kb;

    fn setup() -> (dr_kb::KnowledgeBase, Vec<DetectiveRule>) {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        (kb, rules)
    }

    /// Example 5(1)/Example 6: ϕ2 repairs r1.City from Karcag to Haifa.
    #[test]
    fn phi2_repairs_r1_city() {
        let (kb, rules) = setup();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let mut r1 = table1_dirty().tuple(0).clone();
        let result = apply_rule(&ctx, &rules[1], &mut r1, &ApplyOptions::default());
        match result {
            RuleApplication::Repaired {
                col,
                old,
                new,
                candidates,
                newly_marked,
                ..
            } => {
                assert_eq!(schema.attr_name(col), "City");
                assert_eq!(old, "Karcag");
                assert_eq!(new, "Haifa");
                assert_eq!(candidates, vec!["Haifa".to_owned()]);
                // Example 6: Name⁺, Institution⁺, City⁺.
                let names: Vec<&str> = newly_marked.iter().map(|&c| schema.attr_name(c)).collect();
                assert_eq!(names, vec!["Name", "Institution", "City"]);
            }
            other => panic!("expected repair, got {other:?}"),
        }
        assert_eq!(r1.get(schema.attr_expect("City")), "Haifa");
        assert!(r1.is_positive(schema.attr_expect("City")));
        assert!(!r1.is_positive(schema.attr_expect("Country")));
    }

    /// Example 5(1): ϕ1 proof positive on r1 marks Name, DOB, Institution.
    #[test]
    fn phi1_marks_r1_positive() {
        let (kb, rules) = setup();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let mut r1 = table1_dirty().tuple(0).clone();
        let result = apply_rule(&ctx, &rules[0], &mut r1, &ApplyOptions::default());
        match result {
            RuleApplication::ProofPositive {
                newly_marked,
                normalized,
            } => {
                let names: Vec<&str> = newly_marked.iter().map(|&c| schema.attr_name(c)).collect();
                assert_eq!(names, vec!["Name", "DOB", "Institution"]);
                assert!(normalized.is_empty());
            }
            other => panic!("expected proof positive, got {other:?}"),
        }
    }

    /// ϕ4 repairs r1.Prize (American award → Chemistry award).
    #[test]
    fn phi4_repairs_r1_prize() {
        let (kb, rules) = setup();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let mut r1 = table1_dirty().tuple(0).clone();
        let result = apply_rule(&ctx, &rules[3], &mut r1, &ApplyOptions::default());
        match result {
            RuleApplication::Repaired { old, new, .. } => {
                assert_eq!(old, "Albert Lasker Award for Medicine");
                assert_eq!(new, "Nobel Prize in Chemistry");
            }
            other => panic!("expected repair, got {other:?}"),
        }
        assert_eq!(
            r1.get(schema.attr_expect("Prize")),
            "Nobel Prize in Chemistry"
        );
    }

    /// ϕ1 on r2 (Marie Curie) proof-positive-normalizes the Institution typo
    /// "Paster Institute" → "Pasteur Institute".
    #[test]
    fn phi1_normalizes_typo() {
        let (kb, rules) = setup();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let mut r2 = table1_dirty().tuple(1).clone();
        let result = apply_rule(&ctx, &rules[0], &mut r2, &ApplyOptions::default());
        match result {
            RuleApplication::ProofPositive { normalized, .. } => {
                assert_eq!(normalized.len(), 1);
                assert_eq!(normalized[0].old, "Paster Institute");
                assert_eq!(normalized[0].new, "Pasteur Institute");
            }
            other => panic!("expected proof positive, got {other:?}"),
        }
        assert_eq!(
            r2.get(schema.attr_expect("Institution")),
            "Pasteur Institute"
        );
    }

    /// Normalization can be disabled.
    #[test]
    fn normalization_opt_out() {
        let (kb, rules) = setup();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let mut r2 = table1_dirty().tuple(1).clone();
        let opts = ApplyOptions {
            normalize_fuzzy: false,
            ..Default::default()
        };
        let result = apply_rule(&ctx, &rules[0], &mut r2, &opts);
        assert!(matches!(
            result,
            RuleApplication::ProofPositive { ref normalized, .. } if normalized.is_empty()
        ));
        assert_eq!(
            r2.get(schema.attr_expect("Institution")),
            "Paster Institute"
        );
    }

    /// ϕ1 on r4 (Melvin Calvin) yields the two-institution multi-version
    /// repair of Example 10.
    #[test]
    fn phi1_multi_version_on_r4() {
        let (kb, rules) = setup();
        let ctx = MatchContext::new(&kb);
        let mut r4 = table1_dirty().tuple(3).clone();
        let result = apply_rule(&ctx, &rules[0], &mut r4, &ApplyOptions::default());
        match result {
            RuleApplication::Repaired {
                old, candidates, ..
            } => {
                assert_eq!(old, "University of Minnesota");
                assert_eq!(
                    candidates,
                    vec![
                        "UC Berkeley".to_owned(),
                        "University of Manchester".to_owned()
                    ]
                );
            }
            other => panic!("expected repair, got {other:?}"),
        }
    }

    /// A frozen repair column blocks proof negative.
    #[test]
    fn frozen_column_blocks_repair() {
        let (kb, rules) = setup();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let mut r1 = table1_dirty().tuple(0).clone();
        r1.mark_positive(schema.attr_expect("City"));
        // ϕ2's proof positive fails (Karcag is not the work city); proof
        // negative is blocked by the mark.
        let result = apply_rule(&ctx, &rules[1], &mut r1, &ApplyOptions::default());
        assert_eq!(result, RuleApplication::NotApplicable);
        assert_eq!(r1.get(schema.attr_expect("City")), "Karcag");
    }

    /// A rule whose every marked column is already positive does nothing.
    #[test]
    fn fully_marked_rule_is_not_applicable() {
        let (kb, rules) = setup();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let mut r1 = table1_dirty().tuple(0).clone();
        for col in ["Name", "DOB", "Institution"] {
            r1.mark_positive(schema.attr_expect(col));
        }
        let result = apply_rule(&ctx, &rules[0], &mut r1, &ApplyOptions::default());
        assert_eq!(result, RuleApplication::NotApplicable);
    }

    /// No evidence match at all: not applicable.
    #[test]
    fn unknown_person_not_applicable() {
        let (kb, rules) = setup();
        let ctx = MatchContext::new(&kb);
        let mut t = dr_relation::Tuple::from_strs(&[
            "Dmitri Unknown",
            "1900-01-01",
            "Atlantis",
            "Fields Medal",
            "Unseen University",
            "Ankh-Morpork",
        ]);
        for rule in &rules {
            let result = apply_rule(&ctx, rule, &mut t, &ApplyOptions::default());
            assert_eq!(result, RuleApplication::NotApplicable, "{}", rule.name());
        }
    }
}
