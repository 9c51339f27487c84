//! Rule generation from positive/negative examples (§III-A).
//!
//! The algorithm follows the paper's three steps:
//!
//! * **S1** — discover schema-level matching graphs for the positive
//!   examples: type each column against the KB (table understanding) and
//!   keep the relationships supported by enough example tuples;
//! * **S2** — do the same for the negative examples, whose target-column
//!   values are wrong, capturing the *error semantics*;
//! * **S3** — merge each positive/negative graph pair that differs in only
//!   the target node into a candidate [`DetectiveRule`].
//!
//! Candidates are ranked by support; the final pick is the user's (the
//! experiment harness plays that role deterministically via
//! [`rule_repairs_examples`] / [`rule_respects_positives`]).

use crate::context::MatchContext;
use crate::graph::schema::{NodeType, SchemaGraph, SchemaNode};
use crate::rule::apply::{apply_rule, ApplyOptions, RuleApplication};
use crate::rule::{DetectiveRule, RuleEdge, RuleNodeRef};
use dr_kb::{ClassId, FxHashMap, FxHashSet, Node, PredId};
use dr_relation::{AttrId, Relation};
use dr_simmatch::SimFn;

/// Configuration for graph discovery and rule generation.
#[derive(Debug, Clone)]
pub struct GenerationConfig {
    /// Minimum fraction of example tuples that must support a column type
    /// or an edge for it to enter the discovered graph.
    pub min_support: f64,
    /// Similarity functions tried per column, in preference order.
    pub sims: Vec<SimFn>,
    /// Per-tuple candidate cap when counting edge support.
    pub max_candidates: usize,
    /// Emit the "all incident edges" rule variant in addition to the
    /// single-edge variants.
    pub emit_full_variant: bool,
}

impl Default for GenerationConfig {
    fn default() -> Self {
        Self {
            min_support: 0.6,
            sims: vec![SimFn::Equal, SimFn::EditDistance(2)],
            max_candidates: 8,
            emit_full_variant: true,
        }
    }
}

/// A discovered schema-level matching graph with per-element support.
#[derive(Debug, Clone)]
pub struct DiscoveredGraph {
    /// Column → discovered node (untyped columns are absent).
    pub nodes: FxHashMap<AttrId, SchemaNode>,
    /// Column support fractions.
    pub node_support: FxHashMap<AttrId, f64>,
    /// Supported edges `(from_col, rel, to_col)` with their support.
    pub edges: FxHashMap<(AttrId, PredId, AttrId), f64>,
}

/// All classes subsuming any direct class of instances labeled like the
/// sample values — the candidate types for a column.
fn candidate_classes(ctx: &MatchContext<'_>, values: &[&str]) -> Vec<ClassId> {
    let kb = ctx.kb();
    let mut direct: FxHashSet<ClassId> = FxHashSet::default();
    for &v in values {
        for &i in kb.instances_labeled(v).iter() {
            direct.extend(kb.instance_classes(i).iter().copied());
        }
    }
    let mut out: FxHashSet<ClassId> = FxHashSet::default();
    for c in kb.classes() {
        if direct.iter().any(|&d| kb.taxonomy().subsumes(c, d)) {
            out.insert(c);
        }
    }
    let mut out: Vec<ClassId> = out.into_iter().collect();
    out.sort_unstable();
    out
}

/// Types one column: the best `(class-or-literal, sim)` pair by
/// `(support, specificity)`, or `None` below the support threshold.
fn infer_column(
    ctx: &MatchContext<'_>,
    col: AttrId,
    values: &[&str],
    cfg: &GenerationConfig,
) -> Option<(SchemaNode, f64)> {
    let kb = ctx.kb();
    if values.is_empty() {
        return None;
    }
    let mut classes = candidate_classes(ctx, values);
    // Fallback for all-fuzzy columns: no exact label matched anywhere, so
    // consider every class under the tolerant sims.
    if classes.is_empty() {
        classes = kb.classes().collect();
    }
    let total = values.len() as f64;
    let mut best: Option<(SchemaNode, f64, usize)> = None; // node, support, extent
    for &sim in &cfg.sims {
        for &c in &classes {
            let ty = NodeType::Class(c);
            let support = values
                .iter()
                .filter(|v| !ctx.candidates(ty, sim, v).is_empty())
                .count() as f64
                / total;
            if support < cfg.min_support {
                continue;
            }
            let extent = kb.instances_of(c).len();
            let better = match &best {
                None => true,
                Some((_, s, e)) => {
                    support > *s + 1e-9 || ((support - *s).abs() < 1e-9 && extent < *e)
                }
            };
            if better {
                best = Some((SchemaNode::new(col, ty, sim), support, extent));
            }
        }
        // Earlier sims are preferred: stop as soon as one produced a typing.
        if best.is_some() {
            break;
        }
    }
    // Literal typing competes with class typing.
    let literal_support = values
        .iter()
        .filter(|v| kb.literal_with_value(v).is_some())
        .count() as f64
        / total;
    if literal_support >= cfg.min_support
        && best
            .as_ref()
            .is_none_or(|&(_, s, _)| literal_support > s + 1e-9)
    {
        return Some((
            SchemaNode::new(col, NodeType::Literal, SimFn::Equal),
            literal_support,
        ));
    }
    best.map(|(node, support, _)| (node, support))
}

/// S1/S2: discovers the schema-level matching graph of `examples`.
pub fn discover_graph(
    ctx: &MatchContext<'_>,
    examples: &Relation,
    cfg: &GenerationConfig,
) -> DiscoveredGraph {
    let kb = ctx.kb();
    let schema = examples.schema().clone();
    let mut nodes: FxHashMap<AttrId, SchemaNode> = FxHashMap::default();
    let mut node_support: FxHashMap<AttrId, f64> = FxHashMap::default();

    for col in schema.attr_ids() {
        let values: Vec<&str> = examples.tuples().iter().map(|t| t.get(col)).collect();
        if let Some((node, support)) = infer_column(ctx, col, &values, cfg) {
            nodes.insert(col, node);
            node_support.insert(col, support);
        }
    }

    // Per-tuple candidate sets per typed column (capped).
    let typed: Vec<AttrId> = {
        let mut t: Vec<AttrId> = nodes.keys().copied().collect();
        t.sort_unstable();
        t
    };
    let per_tuple: Vec<FxHashMap<AttrId, Vec<Node>>> = examples
        .tuples()
        .iter()
        .map(|t| {
            typed
                .iter()
                .map(|&col| {
                    let node = &nodes[&col];
                    let mut cands = ctx.candidates(node.ty, node.sim, t.get(col));
                    cands.truncate(cfg.max_candidates);
                    (col, cands)
                })
                .collect()
        })
        .collect();

    // Edge support: for each ordered typed pair, walk the source
    // candidates' actual neighbourhoods (`preds_of`) instead of probing the
    // whole predicate vocabulary.
    let mut edge_hits: FxHashMap<(AttrId, PredId, AttrId), usize> = FxHashMap::default();
    for cand in &per_tuple {
        for &a in &typed {
            // Only instances can be edge sources.
            let from: Vec<_> = cand[&a].iter().filter_map(|n| n.as_instance()).collect();
            if from.is_empty() {
                continue;
            }
            for &b in &typed {
                if a == b {
                    continue;
                }
                let to_set: FxHashSet<Node> = cand[&b].iter().copied().collect();
                if to_set.is_empty() {
                    continue;
                }
                let mut connected: FxHashSet<PredId> = FxHashSet::default();
                for &x in &from {
                    for &p in kb.preds_of(x).iter() {
                        if !connected.contains(&p)
                            && kb.objects(x, p).iter().any(|o| to_set.contains(o))
                        {
                            connected.insert(p);
                        }
                    }
                }
                for p in connected {
                    *edge_hits.entry((a, p, b)).or_insert(0) += 1;
                }
            }
        }
    }
    let total = examples.len().max(1) as f64;
    let edges: FxHashMap<(AttrId, PredId, AttrId), f64> = edge_hits
        .into_iter()
        .filter_map(|(k, hits)| {
            let support = hits as f64 / total;
            (support >= cfg.min_support).then_some((k, support))
        })
        .collect();

    DiscoveredGraph {
        nodes,
        node_support,
        edges,
    }
}

impl DiscoveredGraph {
    /// Renders the graph as a [`SchemaGraph`] (for inspection).
    pub fn to_schema_graph(&self) -> SchemaGraph {
        let mut g = SchemaGraph::new();
        let mut cols: Vec<AttrId> = self.nodes.keys().copied().collect();
        cols.sort_unstable();
        let idx: FxHashMap<AttrId, usize> = cols
            .iter()
            .map(|&c| (c, g.add_node(self.nodes[&c])))
            .collect();
        let mut edges: Vec<_> = self.edges.keys().copied().collect();
        edges.sort_unstable();
        for (a, p, b) in edges {
            g.add_edge(idx[&a], idx[&b], p);
        }
        g
    }
}

/// A generated candidate rule with its supporting evidence strength.
#[derive(Debug, Clone)]
pub struct GeneratedRule {
    /// The candidate.
    pub rule: DetectiveRule,
    /// Combined (min) support of the elements the rule uses.
    pub support: f64,
}

/// An edge incident to the target column in a discovered graph, expressed
/// relative to the target: `(evidence_col, rel, target_is_object)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct IncidentEdge {
    other: AttrId,
    rel: PredId,
    /// `true` if the edge points *into* the target (`other → target`).
    into_target: bool,
}

fn incident_edges(
    g: &DiscoveredGraph,
    target: AttrId,
    evidence: &[AttrId],
) -> Vec<(IncidentEdge, f64)> {
    let mut out: Vec<(IncidentEdge, f64)> = g
        .edges
        .iter()
        .filter_map(|(&(a, p, b), &s)| {
            if a == target && evidence.contains(&b) {
                Some((
                    IncidentEdge {
                        other: b,
                        rel: p,
                        into_target: false,
                    },
                    s,
                ))
            } else if b == target && evidence.contains(&a) {
                Some((
                    IncidentEdge {
                        other: a,
                        rel: p,
                        into_target: true,
                    },
                    s,
                ))
            } else {
                None
            }
        })
        .collect();
    out.sort_by_key(|x| x.0);
    out
}

/// Builds one candidate rule from evidence columns + chosen incident edges.
#[allow(clippy::too_many_arguments)] // a free function assembling one rule; a context struct would obscure the data flow
fn build_candidate(
    name: String,
    target_pos: SchemaNode,
    target_neg: SchemaNode,
    evidence_cols: &[AttrId],
    evidence_nodes: &FxHashMap<AttrId, SchemaNode>,
    evidence_edges: &[(AttrId, PredId, AttrId)],
    pos_edges: &[IncidentEdge],
    neg_edges: &[IncidentEdge],
) -> Option<DetectiveRule> {
    let mut cols: Vec<AttrId> = evidence_cols.to_vec();
    cols.sort_unstable();
    let index_of = |c: AttrId| cols.iter().position(|&x| x == c).expect("evidence col");
    let evidence: Vec<SchemaNode> = cols.iter().map(|c| evidence_nodes[c]).collect();
    let mut edges: Vec<RuleEdge> = Vec::new();
    for &(a, p, b) in evidence_edges {
        if cols.contains(&a) && cols.contains(&b) {
            edges.push(RuleEdge {
                from: RuleNodeRef::Evidence(index_of(a)),
                to: RuleNodeRef::Evidence(index_of(b)),
                rel: p,
            });
        }
    }
    for (side, list) in [
        (RuleNodeRef::Positive, pos_edges),
        (RuleNodeRef::Negative, neg_edges),
    ] {
        for e in list {
            let ev = RuleNodeRef::Evidence(index_of(e.other));
            let (from, to) = if e.into_target {
                (ev, side)
            } else {
                (side, ev)
            };
            edges.push(RuleEdge {
                from,
                to,
                rel: e.rel,
            });
        }
    }
    DetectiveRule::new(name, evidence, target_pos, target_neg, edges).ok()
}

/// S3: generates candidate detective rules for `target` from positive and
/// negative example relations (negatives are wrong **only** in `target`).
/// Candidates are deduplicated structurally and sorted by descending
/// support.
pub fn generate_rules(
    ctx: &MatchContext<'_>,
    target: AttrId,
    positives: &Relation,
    negatives: &Relation,
    cfg: &GenerationConfig,
) -> Vec<GeneratedRule> {
    let gp = discover_graph(ctx, positives, cfg);
    let gn = discover_graph(ctx, negatives, cfg);
    let (Some(&p_node), Some(&n_node)) = (gp.nodes.get(&target), gn.nodes.get(&target)) else {
        return Vec::new();
    };

    // Shared evidence: identically-typed columns in both graphs.
    let mut evidence_cols: Vec<AttrId> = gp
        .nodes
        .iter()
        .filter(|&(col, node)| *col != target && gn.nodes.get(col) == Some(node))
        .map(|(&col, _)| col)
        .collect();
    evidence_cols.sort_unstable();
    if evidence_cols.is_empty() {
        return Vec::new();
    }

    // Evidence-internal edges supported on BOTH sides.
    let mut evidence_edges: Vec<(AttrId, PredId, AttrId)> = gp
        .edges
        .keys()
        .filter(|&&(a, _, b)| {
            a != target && b != target && evidence_cols.contains(&a) && evidence_cols.contains(&b)
        })
        .filter(|k| gn.edges.contains_key(k))
        .copied()
        .collect();
    evidence_edges.sort_unstable();

    let pos_incident = incident_edges(&gp, target, &evidence_cols);
    let neg_incident = incident_edges(&gn, target, &evidence_cols);
    if pos_incident.is_empty() || neg_incident.is_empty() {
        return Vec::new();
    }

    let mut out: Vec<GeneratedRule> = Vec::new();
    let mut seen: FxHashSet<String> = FxHashSet::default();
    let mut push = |rule: Option<DetectiveRule>, support: f64, out: &mut Vec<GeneratedRule>| {
        if let Some(rule) = rule {
            let key = format!(
                "{:?}|{:?}",
                rule.positive_graph().canonical_key(),
                rule.negative_graph().canonical_key()
            );
            if seen.insert(key) {
                out.push(GeneratedRule { rule, support });
            }
        }
    };

    // Single-edge variants.
    let mut counter = 0usize;
    for &(pe, ps) in &pos_incident {
        for &(ne, ns) in &neg_incident {
            if pe == ne && p_node == n_node {
                // Identical positive and negative semantics can never detect
                // an error.
                continue;
            }
            counter += 1;
            let name = format!("gen-{}-{}", target.index(), counter);
            // Minimal evidence first, full evidence as fallback for
            // connectivity.
            let minimal: Vec<AttrId> = {
                let mut m = vec![pe.other, ne.other];
                m.sort_unstable();
                m.dedup();
                m
            };
            let rule = build_candidate(
                name.clone(),
                p_node,
                n_node,
                &minimal,
                &gp.nodes,
                &evidence_edges,
                &[pe],
                &[ne],
            )
            .or_else(|| {
                build_candidate(
                    name,
                    p_node,
                    n_node,
                    &evidence_cols,
                    &gp.nodes,
                    &evidence_edges,
                    &[pe],
                    &[ne],
                )
            });
            push(rule, ps.min(ns), &mut out);
        }
    }

    // Full variant: all incident edges on both sides.
    if cfg.emit_full_variant {
        let pos_all: Vec<IncidentEdge> = pos_incident.iter().map(|&(e, _)| e).collect();
        let neg_all: Vec<IncidentEdge> = neg_incident.iter().map(|&(e, _)| e).collect();
        if pos_all != neg_all || p_node != n_node {
            let support = pos_incident
                .iter()
                .chain(neg_incident.iter())
                .map(|&(_, s)| s)
                .fold(1.0f64, f64::min);
            let rule = build_candidate(
                format!("gen-{}-full", target.index()),
                p_node,
                n_node,
                &evidence_cols,
                &gp.nodes,
                &evidence_edges,
                &pos_all,
                &neg_all,
            );
            push(rule, support, &mut out);
        }
    }

    out.sort_by(|a, b| {
        b.support
            .partial_cmp(&a.support)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.rule.name().cmp(b.rule.name()))
    });
    out
}

/// "Expert verification" half 1: the rule repairs every negative example to
/// its ground-truth value (multi-version counts when any candidate is the
/// truth).
pub fn rule_repairs_examples(
    ctx: &MatchContext<'_>,
    rule: &DetectiveRule,
    negatives: &Relation,
    truth: &Relation,
) -> bool {
    let col = rule.repair_col();
    negatives.tuples().iter().enumerate().all(|(row, t)| {
        let mut probe = (**t).clone();
        match apply_rule(ctx, rule, &mut probe, &ApplyOptions::default()) {
            RuleApplication::Repaired { candidates, .. } => {
                candidates.iter().any(|c| c == truth.tuple(row).get(col))
            }
            _ => false,
        }
    })
}

/// "Expert verification" half 2: the rule never rewrites a value of a
/// positive (all-correct) example — proof positive or no-op only.
pub fn rule_respects_positives(
    ctx: &MatchContext<'_>,
    rule: &DetectiveRule,
    positives: &Relation,
) -> bool {
    let opts = ApplyOptions {
        normalize_fuzzy: false,
        ..Default::default()
    };
    positives.tuples().iter().all(|t| {
        let mut probe = (**t).clone();
        !matches!(
            apply_rule(ctx, rule, &mut probe, &opts),
            RuleApplication::Repaired { .. }
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{nobel_schema, table1_clean};
    use dr_kb::fixtures::{names, nobel_mini_kb};
    use dr_relation::Relation;

    fn ctx_kb() -> dr_kb::KnowledgeBase {
        nobel_mini_kb()
    }

    #[test]
    fn discovers_nobel_schema_graph() {
        let kb = ctx_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let clean = table1_clean();
        let cfg = GenerationConfig::default();
        let g = discover_graph(&ctx, &clean, &cfg);

        // Every column gets typed.
        for col in ["Name", "DOB", "Country", "Prize", "Institution", "City"] {
            assert!(
                g.nodes.contains_key(&schema.attr_expect(col)),
                "column {col} should be typed"
            );
        }
        // Name types as the laureate class (most specific), DOB as literal.
        let name_node = g.nodes[&schema.attr_expect("Name")];
        assert_eq!(
            name_node.ty,
            NodeType::Class(kb.class_named(names::LAUREATE).unwrap())
        );
        let dob_node = g.nodes[&schema.attr_expect("DOB")];
        assert_eq!(dob_node.ty, NodeType::Literal);

        // The worksAt edge Name → Institution is discovered.
        let works_at = kb.pred_named(names::WORKS_AT).unwrap();
        assert!(g.edges.contains_key(&(
            schema.attr_expect("Name"),
            works_at,
            schema.attr_expect("Institution")
        )));
        // And bornOnDate Name → DOB.
        let born_on = kb.pred_named(names::BORN_ON_DATE).unwrap();
        assert!(g.edges.contains_key(&(
            schema.attr_expect("Name"),
            born_on,
            schema.attr_expect("DOB")
        )));
    }

    /// Build negatives for City: replace City with the birth city, then
    /// generate rules and verify one of them is ϕ2-equivalent.
    #[test]
    fn generates_city_rule_from_examples() {
        let kb = ctx_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let clean = table1_clean();
        let city = schema.attr_expect("City");

        // Negative examples: City ← birth city (the paper's semantic error).
        let birth_cities = ["Karcag", "Warsaw", "Zloczow", "St. Paul"];
        let mut negatives = Relation::new(schema.clone());
        for (row, t) in clean.tuples().iter().enumerate() {
            let mut cells: Vec<String> = t.cells().to_vec();
            cells[city.index()] = birth_cities[row].to_owned();
            negatives.push(dr_relation::Tuple::new(cells));
        }

        let cfg = GenerationConfig::default();
        let candidates = generate_rules(&ctx, city, &clean, &negatives, &cfg);
        assert!(!candidates.is_empty(), "no candidates generated");

        // Expert verification finds at least one rule that repairs all
        // negatives to the truth and respects the positives.
        let good: Vec<&GeneratedRule> = candidates
            .iter()
            .filter(|g| {
                rule_repairs_examples(&ctx, &g.rule, &negatives, &clean)
                    && rule_respects_positives(&ctx, &g.rule, &clean)
            })
            .collect();
        assert!(
            !good.is_empty(),
            "no verified rule among {} candidates: {:?}",
            candidates.len(),
            candidates.iter().map(|c| c.rule.name()).collect::<Vec<_>>()
        );
    }

    /// Prize: negatives drawn from the other (non-chemistry) award — the
    /// generated rule should use the distinct negative type like ϕ4.
    #[test]
    fn generates_prize_rule_with_distinct_negative_type() {
        let kb = ctx_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let clean = table1_clean();
        let prize = schema.attr_expect("Prize");

        // The error semantics: the Prize cell holds a *different* award the
        // same person won (an American award). Only Hershko and Hoffmann
        // have one in the KB, so the negative examples are those two rows.
        let wrong_prizes = [
            (0usize, "Albert Lasker Award for Medicine"),
            (2usize, "National Medal of Science"),
        ];
        let mut negatives = Relation::new(schema.clone());
        let mut negative_truth = Relation::new(schema.clone());
        for &(row, wrong) in &wrong_prizes {
            let t = clean.tuple(row);
            let mut cells: Vec<String> = t.cells().to_vec();
            cells[prize.index()] = wrong.to_owned();
            negatives.push(dr_relation::Tuple::new(cells));
            negative_truth.push(t.clone());
        }
        let clean = negative_truth; // truth aligned with the negatives

        let cfg = GenerationConfig::default();
        let candidates = generate_rules(&ctx, prize, &clean, &negatives, &cfg);
        let good: Vec<_> = candidates
            .iter()
            .filter(|g| {
                rule_repairs_examples(&ctx, &g.rule, &negatives, &clean)
                    && rule_respects_positives(&ctx, &g.rule, &clean)
            })
            .collect();
        assert!(!good.is_empty());
        // The winning rule distinguishes chemistry vs American awards by
        // type, as in ϕ4.
        let rule = &good[0].rule;
        assert_ne!(rule.positive().ty, rule.negative().ty);
    }

    #[test]
    fn untypable_target_yields_no_rules() {
        let kb = ctx_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let clean = table1_clean();
        let city = schema.attr_expect("City");
        let mut negatives = Relation::new(schema.clone());
        for t in clean.tuples() {
            let mut cells: Vec<String> = t.cells().to_vec();
            cells[city.index()] = "###garbage###".to_owned();
            negatives.push(dr_relation::Tuple::new(cells));
        }
        let cfg = GenerationConfig::default();
        // Negative city values match nothing → no negative typing → no rules.
        let candidates = generate_rules(&ctx, city, &clean, &negatives, &cfg);
        assert!(candidates.is_empty());
    }

    #[test]
    fn empty_examples_yield_no_rules() {
        let kb = ctx_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let empty = Relation::new(schema.clone());
        let cfg = GenerationConfig::default();
        let candidates = generate_rules(&ctx, schema.attr_expect("City"), &empty, &empty, &cfg);
        assert!(candidates.is_empty());
    }
}
