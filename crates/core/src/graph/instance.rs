//! Instance-level matching graphs (§II-B): binding a tuple's cells to KB
//! nodes so that every node and edge constraint of a schema-level pattern is
//! satisfied.
//!
//! The solver is a backtracking subgraph search specialized for detective
//! rules: patterns are tiny (a handful of nodes), most nodes carry a value
//! constraint and the rest are *free* (the positive node during proof
//! negative, auxiliary nodes), and candidates are drawn from the memoized
//! [`MatchContext`] indexes or derived from KB adjacency. The repair
//! kernel calls it with rule shapes compiled once and buffers it keeps per
//! worker, so a search allocates nothing, and records every KB region the
//! search reads into the worker's `ReadSet`; the [`Pattern`] functions
//! below are the self-contained form.

use crate::context::{MatchContext, ReadSet};
use crate::graph::schema::NodeType;
use crate::repair::budget::BudgetMeter;
use dr_kb::{Node, PredId, Region};
use dr_simmatch::SimFn;
use std::sync::Arc;

/// One node of a matching pattern.
#[derive(Debug, Clone)]
pub struct PatternNode {
    /// Required KB type.
    pub ty: NodeType,
    /// Matching operation for the value constraint.
    pub sim: SimFn,
    /// The cell value this node must match; `None` makes the node *free*
    /// (type- and edge-constrained only).
    pub value: Option<String>,
    /// Precomputed type+value candidates (e.g. from the fast-repair cache).
    /// When present, used instead of a context lookup.
    pub base: Option<Arc<Vec<Node>>>,
}

impl PatternNode {
    /// A value-constrained node.
    pub fn constrained(ty: NodeType, sim: SimFn, value: impl Into<String>) -> Self {
        Self {
            ty,
            sim,
            value: Some(value.into()),
            base: None,
        }
    }

    /// A free node (no value constraint).
    pub fn free(ty: NodeType, sim: SimFn) -> Self {
        Self {
            ty,
            sim,
            value: None,
            base: None,
        }
    }
}

/// A matching pattern: nodes plus directed, labeled edges (indexes into
/// `nodes`).
#[derive(Debug, Clone, Default)]
pub struct Pattern {
    /// Pattern nodes.
    pub nodes: Vec<PatternNode>,
    /// Directed edges `(from, rel, to)`.
    pub edges: Vec<(usize, PredId, usize)>,
}

impl Pattern {
    /// Candidate KB nodes for pattern node `i`, honoring `base` when present.
    fn base_candidates(&self, ctx: &MatchContext<'_>, i: usize) -> Option<Arc<Vec<Node>>> {
        let node = &self.nodes[i];
        if let Some(base) = &node.base {
            return Some(Arc::clone(base));
        }
        node.value
            .as_deref()
            .map(|v| Arc::new(ctx.candidates(node.ty, node.sim, v)))
    }
}

/// A complete assignment: `assignment[i]` is the KB node bound to pattern
/// node `i`.
pub type Assignment = Vec<Node>;

/// Searches for assignments of `pattern` against `ctx`.
///
/// Returns the first complete assignment, or `None`.
pub fn find_assignment(ctx: &MatchContext<'_>, pattern: &Pattern) -> Option<Assignment> {
    let meter = BudgetMeter::unbounded();
    let mut result = None;
    solve_pattern(ctx, pattern, &meter, &mut |assignment| {
        result = Some(assignment.to_vec());
        false
    });
    result
}

/// Whether any complete assignment exists.
pub fn has_assignment(ctx: &MatchContext<'_>, pattern: &Pattern) -> bool {
    find_assignment(ctx, pattern).is_some()
}

/// Collects the distinct KB nodes that pattern node `target` takes across
/// **all** assignments (used to enumerate repair candidates; sorted).
pub fn collect_bindings(ctx: &MatchContext<'_>, pattern: &Pattern, target: usize) -> Vec<Node> {
    let meter = BudgetMeter::unbounded();
    let mut out: Vec<Node> = Vec::new();
    solve_pattern(ctx, pattern, &meter, &mut |assignment| {
        out.push(assignment[target]);
        true
    });
    out.sort_unstable();
    out.dedup();
    out
}

/// Visits every complete assignment; the callback returns `false` to stop
/// the enumeration early.
pub fn for_each_assignment(
    ctx: &MatchContext<'_>,
    pattern: &Pattern,
    f: impl FnMut(&Assignment) -> bool,
) {
    for_each_assignment_metered(ctx, pattern, &BudgetMeter::unbounded(), f);
}

/// [`for_each_assignment`] charging candidate expansions to `meter`: every
/// node the backtracking solver considers binding costs one step. When the
/// meter exhausts, the search stops as if the visitor had asked to — the
/// caller must treat the enumeration as incomplete (check
/// [`BudgetMeter::exhaustion`]) and abort before acting on partial results.
pub fn for_each_assignment_metered(
    ctx: &MatchContext<'_>,
    pattern: &Pattern,
    meter: &BudgetMeter,
    mut f: impl FnMut(&Assignment) -> bool,
) {
    solve_pattern(ctx, pattern, meter, &mut f);
}

/// Solves a [`Pattern`]: resolves each node's base candidates, then
/// searches with throwaway buffers.
fn solve_pattern(
    ctx: &MatchContext<'_>,
    pattern: &Pattern,
    meter: &BudgetMeter,
    visit: &mut dyn FnMut(&Assignment) -> bool,
) {
    let n = pattern.nodes.len();
    if n == 0 || meter.is_exhausted() {
        return;
    }
    let tys: Vec<NodeType> = pattern.nodes.iter().map(|node| node.ty).collect();
    let base: Vec<Option<Arc<Vec<Node>>>> =
        (0..n).map(|i| pattern.base_candidates(ctx, i)).collect();
    solve(
        ctx,
        Shape {
            tys: &tys,
            edges: &pattern.edges,
            base: &base,
        },
        meter,
        &mut SolverScratch::default(),
        &mut ReadSet::default(),
        visit,
    );
}

/// What the search reads of a pattern: each node's KB type and base
/// candidate list (`None` for a free node), and the directed edges between
/// nodes.
#[derive(Clone, Copy)]
pub(crate) struct Shape<'a> {
    /// Node types, by pattern node.
    pub(crate) tys: &'a [NodeType],
    /// Directed edges `(from, rel, to)`.
    pub(crate) edges: &'a [(usize, PredId, usize)],
    /// Type+value candidates of each constrained node; `None` when free.
    pub(crate) base: &'a [Option<Arc<Vec<Node>>>],
}

/// The search's buffers, kept by a caller that solves many patterns (one
/// per repair worker) so a search allocates nothing once they have grown
/// to the widest pattern. Every search starts by resetting them.
#[derive(Debug, Default)]
pub(crate) struct SolverScratch {
    /// The order in which pattern nodes are bound.
    order: Vec<usize>,
    /// Nodes already placed in `order`.
    placed: Vec<bool>,
    /// The partial assignment, by pattern node.
    partial: Vec<Option<Node>>,
    /// The complete assignment handed to the visitor.
    complete: Assignment,
    /// The candidate lists of the open search levels: each level pushes
    /// its list on top and truncates it away when it backtracks.
    stack: Vec<Node>,
}

/// Visits every complete assignment of `shape` until `visit` returns
/// `false` or `meter` exhausts (see [`for_each_assignment_metered`]),
/// recording the KB regions the search reads into `reads`.
pub(crate) fn solve(
    ctx: &MatchContext<'_>,
    shape: Shape<'_>,
    meter: &BudgetMeter,
    scratch: &mut SolverScratch,
    reads: &mut ReadSet,
    visit: &mut dyn FnMut(&Assignment) -> bool,
) {
    let n = shape.tys.len();
    if n == 0 || meter.is_exhausted() {
        return;
    }
    // A constrained node with zero candidates makes the pattern unsatisfiable.
    if shape
        .base
        .iter()
        .any(|b| b.as_ref().is_some_and(|c| c.is_empty()))
    {
        return;
    }
    scratch.plan(shape);
    scratch.partial.clear();
    scratch.partial.resize(n, None);
    scratch.stack.clear();
    scratch.recurse(ctx, shape, 0, meter, reads, visit);
}

impl SolverScratch {
    /// Fills `order`: start from the constrained node with the fewest base
    /// candidates, then expand along edges (BFS, neighbours in edge order);
    /// disconnected leftovers are appended with fresh starts. The BFS queue
    /// is `order` itself, read from `head`.
    fn plan(&mut self, shape: Shape<'_>) {
        let n = shape.tys.len();
        self.order.clear();
        self.placed.clear();
        self.placed.resize(n, false);
        while self.order.len() < n {
            // Next start: unplaced constrained node with fewest candidates,
            // else any unplaced node.
            let start = (0..n)
                .filter(|&i| !self.placed[i])
                .min_by_key(|&i| shape.base[i].as_ref().map_or(usize::MAX, |c| c.len()))
                .expect("unplaced node exists");
            self.placed[start] = true;
            let mut head = self.order.len();
            self.order.push(start);
            while head < self.order.len() {
                let u = self.order[head];
                head += 1;
                for &(a, _, b) in shape.edges {
                    for (end, other) in [(a, b), (b, a)] {
                        if end == u && !self.placed[other] {
                            self.placed[other] = true;
                            self.order.push(other);
                        }
                    }
                }
            }
        }
    }

    fn recurse(
        &mut self,
        ctx: &MatchContext<'_>,
        shape: Shape<'_>,
        pos: usize,
        meter: &BudgetMeter,
        reads: &mut ReadSet,
        visit: &mut dyn FnMut(&Assignment) -> bool,
    ) -> bool {
        if pos == self.order.len() {
            self.complete.clear();
            self.complete
                .extend(self.partial.iter().map(|a| a.expect("complete assignment")));
            return visit(&self.complete);
        }
        let node = self.order[pos];
        let start = self.stack.len();
        push_candidates(ctx, shape, &self.partial, node, reads, &mut self.stack);
        let end = self.stack.len();
        // Budget: every candidate the solver considers binding is one step (+1
        // so zero-candidate dead ends still cost something). The count depends
        // only on the KB, the pattern, and the tuple values — not on cache
        // warmth or thread schedule — so exhaustion is deterministic.
        let mut go_on = meter.charge((end - start) as u64 + 1);
        let mut i = start;
        while go_on && i < end {
            self.partial[node] = Some(self.stack[i]);
            go_on = self.recurse(ctx, shape, pos + 1, meter, reads, visit);
            i += 1;
        }
        self.partial[node] = None;
        self.stack.truncate(start);
        go_on
    }
}

/// Pushes onto `out` the candidates for `node` given the partial
/// assignment, recording each KB region it reads into `reads`.
fn push_candidates(
    ctx: &MatchContext<'_>,
    shape: Shape<'_>,
    partial: &[Option<Node>],
    node: usize,
    reads: &mut ReadSet,
    out: &mut Vec<Node>,
) {
    let kb = ctx.kb();
    // Constraint check against every edge touching `node` whose other
    // endpoint is already assigned (or is `node` itself: a self-loop).
    let edge_ok = |candidate: Node, reads: &mut ReadSet| -> bool {
        shape.edges.iter().all(|&(u, rel, v)| {
            let (from, to) = match (u == node, v == node) {
                (true, true) => (Some(candidate), Some(candidate)),
                (true, false) => (Some(candidate), partial[v]),
                (false, true) => (partial[u], Some(candidate)),
                (false, false) => return true,
            };
            match (from, to) {
                (Some(Node::Instance(s)), Some(o)) => {
                    reads.record(Region::Out(s, rel));
                    kb.has_edge(s, rel, o)
                }
                (Some(Node::Literal(_)), Some(_)) => false,
                _ => true,
            }
        })
    };

    if let Some(base_list) = &shape.base[node] {
        out.extend(base_list.iter().copied().filter(|&c| edge_ok(c, reads)));
        return;
    }

    // Free node: derive candidates from an assigned neighbor if possible.
    // Checking a neighbour's type reads the type's extent.
    let ty = shape.tys[node];
    for &(u, rel, v) in shape.edges {
        if u == node {
            if let Some(xv) = partial[v] {
                reads.record(Region::In(xv, rel));
                let subjects = kb.subjects(xv, rel);
                if !subjects.is_empty() {
                    reads.record(ty.region());
                }
                out.extend(
                    subjects
                        .iter()
                        .map(|&s| Node::Instance(s))
                        .filter(|&c| ctx.type_ok(c, ty) && edge_ok(c, reads)),
                );
                return;
            }
        } else if v == node {
            if let Some(Node::Instance(xu)) = partial[u] {
                reads.record(Region::Out(xu, rel));
                let objects = kb.objects(xu, rel);
                if !objects.is_empty() {
                    reads.record(ty.region());
                }
                out.extend(
                    objects
                        .iter()
                        .copied()
                        .filter(|&c| ctx.type_ok(c, ty) && edge_ok(c, reads)),
                );
                return;
            }
        }
    }

    // No assigned neighbor: fall back to the full type extent.
    reads.record(ty.region());
    out.extend(ctx.extent_iter(ty).filter(|&c| edge_ok(c, reads)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_kb::fixtures::{names, nobel_mini_kb};
    use dr_kb::KnowledgeBase;

    fn class(kb: &KnowledgeBase, name: &str) -> NodeType {
        NodeType::Class(kb.class_named(name).unwrap())
    }

    /// Figure 3(b): Name/DOB/Country/Institution of r1 all bind.
    #[test]
    fn figure3b_instance_graph_exists() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let mut p = Pattern::default();
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::LAUREATE),
            SimFn::Equal,
            "Avram Hershko",
        ));
        p.nodes.push(PatternNode::constrained(
            NodeType::Literal,
            SimFn::Equal,
            "1937-12-31",
        ));
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::COUNTRY),
            SimFn::Equal,
            "Israel",
        ));
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::ORGANIZATION),
            SimFn::EditDistance(2),
            "Israel Institute of Technology",
        ));
        p.edges
            .push((0, kb.pred_named(names::BORN_ON_DATE).unwrap(), 1));
        p.edges
            .push((0, kb.pred_named(names::CITIZEN_OF).unwrap(), 2));
        p.edges
            .push((0, kb.pred_named(names::WORKS_AT).unwrap(), 3));

        let a = find_assignment(&ctx, &p).expect("r1 matches Figure 3(a)");
        assert_eq!(kb.node_value(a[0]), "Avram Hershko");
        assert_eq!(kb.node_value(a[3]), "Israel Institute of Technology");
    }

    /// The negative side of ϕ2: Karcag is where Hershko was born, and a free
    /// positive node finds Haifa through worksAt ∘ locatedIn.
    #[test]
    fn proof_negative_shape_for_city() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        // Nodes: 0 = Name, 1 = Institution, 2 = negative City (value Karcag),
        // 3 = free positive City.
        let mut p = Pattern::default();
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::LAUREATE),
            SimFn::Equal,
            "Avram Hershko",
        ));
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::ORGANIZATION),
            SimFn::EditDistance(2),
            "Israel Institute of Technology",
        ));
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::CITY),
            SimFn::Equal,
            "Karcag",
        ));
        p.nodes
            .push(PatternNode::free(class(&kb, names::CITY), SimFn::Equal));
        let works_at = kb.pred_named(names::WORKS_AT).unwrap();
        let located_in = kb.pred_named(names::LOCATED_IN).unwrap();
        let born_in = kb.pred_named(names::BORN_IN).unwrap();
        p.edges.push((0, works_at, 1));
        p.edges.push((0, born_in, 2));
        p.edges.push((1, located_in, 3));

        let bindings = collect_bindings(&ctx, &p, 3);
        assert_eq!(bindings.len(), 1);
        assert_eq!(kb.node_value(bindings[0]), "Haifa");
    }

    /// Melvin Calvin works at two institutions: the free node enumerates
    /// both (multi-version repairs, Example 10).
    #[test]
    fn free_node_enumerates_all_bindings() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let mut p = Pattern::default();
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::LAUREATE),
            SimFn::Equal,
            "Melvin Calvin",
        ));
        p.nodes.push(PatternNode::free(
            class(&kb, names::ORGANIZATION),
            SimFn::EditDistance(2),
        ));
        p.edges
            .push((0, kb.pred_named(names::WORKS_AT).unwrap(), 1));

        let bindings = collect_bindings(&ctx, &p, 1);
        let mut values: Vec<&str> = bindings.iter().map(|&n| kb.node_value(n)).collect();
        values.sort_unstable();
        assert_eq!(values, vec!["UC Berkeley", "University of Manchester"]);
    }

    #[test]
    fn violated_edge_fails() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let mut p = Pattern::default();
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::LAUREATE),
            SimFn::Equal,
            "Avram Hershko",
        ));
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::CITY),
            SimFn::Equal,
            "Haifa",
        ));
        // Hershko was NOT born in Haifa.
        p.edges.push((0, kb.pred_named(names::BORN_IN).unwrap(), 1));
        assert!(find_assignment(&ctx, &p).is_none());
    }

    #[test]
    fn wrong_value_fails() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let mut p = Pattern::default();
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::LAUREATE),
            SimFn::Equal,
            "Nobody Inparticular",
        ));
        assert!(find_assignment(&ctx, &p).is_none());
    }

    #[test]
    fn empty_pattern_has_no_assignment() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        assert!(find_assignment(&ctx, &Pattern::default()).is_none());
    }

    #[test]
    fn edge_into_literal_node() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let mut p = Pattern::default();
        p.nodes.push(PatternNode::constrained(
            class(&kb, names::LAUREATE),
            SimFn::Equal,
            "Marie Curie",
        ));
        p.nodes
            .push(PatternNode::free(NodeType::Literal, SimFn::Equal));
        p.edges
            .push((0, kb.pred_named(names::BORN_ON_DATE).unwrap(), 1));
        let bindings = collect_bindings(&ctx, &p, 1);
        assert_eq!(bindings.len(), 1);
        assert_eq!(kb.node_value(bindings[0]), "1867-11-07");
    }

    #[test]
    fn precomputed_base_is_respected() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let mut p = Pattern::default();
        let mut node = PatternNode::constrained(class(&kb, names::CITY), SimFn::Equal, "Haifa");
        // Deliberately empty base: the solver must treat the node as
        // unsatisfiable even though "Haifa" exists.
        node.base = Some(Arc::new(Vec::new()));
        p.nodes.push(node);
        assert!(find_assignment(&ctx, &p).is_none());
    }

    /// The first `limit` assignments of `pattern`, solved through
    /// `scratch`.
    fn solve_with(
        ctx: &MatchContext<'_>,
        pattern: &Pattern,
        scratch: &mut SolverScratch,
        limit: usize,
    ) -> Vec<Assignment> {
        let tys: Vec<NodeType> = pattern.nodes.iter().map(|node| node.ty).collect();
        let base: Vec<_> = (0..pattern.nodes.len())
            .map(|i| pattern.base_candidates(ctx, i))
            .collect();
        let shape = Shape {
            tys: &tys,
            edges: &pattern.edges,
            base: &base,
        };
        let mut out = Vec::new();
        let reads = &mut ReadSet::default();
        solve(
            ctx,
            shape,
            &BudgetMeter::unbounded(),
            scratch,
            reads,
            &mut |a| {
                out.push(a.clone());
                out.len() < limit
            },
        );
        out
    }

    /// A scratch reused across searches of different widths, after one
    /// its visitor cut short mid-recursion, answers like a fresh one.
    #[test]
    fn reused_scratch_answers_like_a_fresh_one() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let mut calvin = Pattern::default();
        calvin.nodes.push(PatternNode::constrained(
            class(&kb, names::LAUREATE),
            SimFn::Equal,
            "Melvin Calvin",
        ));
        calvin.nodes.push(PatternNode::free(
            class(&kb, names::ORGANIZATION),
            SimFn::Equal,
        ));
        calvin
            .nodes
            .push(PatternNode::free(class(&kb, names::CITY), SimFn::Equal));
        calvin
            .edges
            .push((0, kb.pred_named(names::WORKS_AT).unwrap(), 1));
        calvin
            .edges
            .push((1, kb.pred_named(names::LOCATED_IN).unwrap(), 2));
        let mut curie = Pattern::default();
        curie.nodes.push(PatternNode::constrained(
            class(&kb, names::LAUREATE),
            SimFn::Equal,
            "Marie Curie",
        ));
        let fresh = |p: &Pattern| solve_with(&ctx, p, &mut SolverScratch::default(), usize::MAX);
        assert_eq!(fresh(&calvin).len(), 2);
        assert_eq!(fresh(&curie).len(), 1);

        let mut scratch = SolverScratch::default();
        assert_eq!(solve_with(&ctx, &calvin, &mut scratch, 1).len(), 1);
        for pattern in [&curie, &calvin, &curie, &calvin] {
            assert_eq!(
                solve_with(&ctx, pattern, &mut scratch, usize::MAX),
                fresh(pattern)
            );
        }
    }
}
