//! The instance-graph solver against brute force: on random small
//! patterns over the Nobel fixture KB — value-constrained and free nodes,
//! any edges, disconnected parts — the backtracking search yields exactly
//! the assignments an exhaustive product over each node's candidates
//! admits, each once.

use dr_core::graph::instance::{for_each_assignment_metered, Pattern, PatternNode};
use dr_core::graph::schema::NodeType;
use dr_core::{BudgetMeter, MatchContext};
use dr_kb::fixtures::{names, nobel_mini_kb};
use dr_kb::{KnowledgeBase, LiteralId, Node, PredId};
use dr_simmatch::SimFn;
use proptest::prelude::*;

/// Every node type of the fixture: its classes, then the literal pool.
fn node_types(kb: &KnowledgeBase) -> Vec<NodeType> {
    [
        names::LAUREATE,
        names::ORGANIZATION,
        names::CHEM_AWARDS,
        names::US_AWARDS,
        names::COUNTRY,
        names::CITY,
    ]
    .iter()
    .map(|name| NodeType::Class(kb.class_named(name).expect("fixture class")))
    .chain([NodeType::Literal])
    .collect()
}

/// Cell values to constrain nodes with: every KB label and literal, a
/// typo and a value nothing matches.
fn values(kb: &KnowledgeBase) -> Vec<String> {
    kb.instances()
        .map(|i| kb.instance_label(i).to_owned())
        .chain(
            (0..kb.num_literals()).map(|l| kb.literal_value(LiteralId::from_index(l)).to_owned()),
        )
        .chain(["Hafia".to_owned(), "Nobody Inparticular".to_owned()])
        .collect()
}

/// Every assignment of `pattern`, by trying each combination of the
/// nodes' candidates (value matches for a constrained node, the whole type
/// extent for a free one) against every edge.
fn brute_force(ctx: &MatchContext<'_>, kb: &KnowledgeBase, pattern: &Pattern) -> Vec<Vec<Node>> {
    let domains: Vec<Vec<Node>> = pattern
        .nodes
        .iter()
        .map(|node| match &node.value {
            Some(value) => ctx.candidates(node.ty, node.sim, value),
            None => ctx.extent(node.ty),
        })
        .collect();
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(domains.len());
    extend(kb, pattern, &domains, &mut current, &mut out);
    out
}

fn extend(
    kb: &KnowledgeBase,
    pattern: &Pattern,
    domains: &[Vec<Node>],
    current: &mut Vec<Node>,
    out: &mut Vec<Vec<Node>>,
) {
    if current.len() == domains.len() {
        let holds = pattern.edges.iter().all(|&(u, rel, v)| match current[u] {
            Node::Instance(s) => kb.has_edge(s, rel, current[v]),
            Node::Literal(_) => false,
        });
        if holds {
            out.push(current.clone());
        }
        return;
    }
    for &candidate in &domains[current.len()] {
        current.push(candidate);
        extend(kb, pattern, domains, current, out);
        current.pop();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_yields_exactly_the_brute_force_assignments(
        // Per node: (type, constrained?, value, ED,1 instead of =?).
        nodes in prop::collection::vec((0usize..7, 0usize..3, 0usize..64, 0usize..2), 1..5),
        // Per edge: (from, predicate, to), taken modulo the pattern size.
        edges in prop::collection::vec((0usize..8, 0usize..16, 0usize..8), 0..5),
    ) {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let types = node_types(&kb);
        let values = values(&kb);
        let mut pattern = Pattern::default();
        for &(ty, constrained, value, fuzzy) in &nodes {
            let ty = types[ty];
            let sim = if fuzzy == 1 { SimFn::EditDistance(1) } else { SimFn::Equal };
            pattern.nodes.push(if constrained > 0 {
                PatternNode::constrained(ty, sim, values[value % values.len()].as_str())
            } else {
                PatternNode::free(ty, sim)
            });
        }
        let n = pattern.nodes.len();
        for &(from, pred, to) in &edges {
            let rel = PredId::from_index(pred % kb.num_preds());
            pattern.edges.push((from % n, rel, to % n));
        }

        let mut solved = Vec::new();
        for_each_assignment_metered(&ctx, &pattern, &BudgetMeter::unbounded(), |assignment| {
            solved.push(assignment.clone());
            true
        });
        let mut expected = brute_force(&ctx, &kb, &pattern);
        solved.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(solved, expected);
    }
}
