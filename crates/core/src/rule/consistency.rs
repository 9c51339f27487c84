//! Consistency analysis for rule sets (§III-C).
//!
//! A rule set Σ is consistent w.r.t. a KB when every tuple reaches the same
//! fixpoint under every application order (Church–Rosser). Deciding this for
//! *all* tuples is coNP-complete (Theorem 1), but with the dataset at hand
//! it is PTIME (Corollary 2): following the paper's practice, we chase
//! sample tuples under several rule orders and compare the fixpoints, and
//! additionally report the static pairs of rules that *could* contend for
//! the same column.

use crate::context::MatchContext;
use crate::repair::basic::basic_repair_tuple;
use crate::repair::multi::{multi_repair_tuple, MultiOptions};
use crate::rule::apply::ApplyOptions;
use crate::rule::DetectiveRule;
use dr_relation::{AttrId, Relation, Tuple};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Options for the sampled consistency check.
#[derive(Debug, Clone)]
pub struct ConsistencyOptions {
    /// Number of random rule orders tried per tuple (the identity and
    /// reversed orders are always included).
    pub random_orders: usize,
    /// RNG seed for order sampling.
    pub seed: u64,
    /// Rule-application options used during the chases.
    pub apply: ApplyOptions,
}

impl Default for ConsistencyOptions {
    fn default() -> Self {
        Self {
            random_orders: 5,
            seed: 0x5eed,
            apply: ApplyOptions::default(),
        }
    }
}

/// A divergence witness: one tuple, two orders, two different fixpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Row of the offending tuple in the sample relation.
    pub row: usize,
    /// First rule order (indexes into the rule slice).
    pub order_a: Vec<usize>,
    /// Second rule order.
    pub order_b: Vec<usize>,
    /// First diverging column.
    pub col: AttrId,
    /// Fixpoint value under `order_a`.
    pub value_a: String,
    /// Fixpoint value under `order_b`.
    pub value_b: String,
}

/// Result of the sampled consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Consistency {
    /// All sampled chases agreed.
    Consistent,
    /// Two orders diverged.
    Inconsistent(Box<Divergence>),
}

impl Consistency {
    /// Whether the check passed.
    pub fn is_consistent(&self) -> bool {
        matches!(self, Consistency::Consistent)
    }
}

fn chase_in_order(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    order: &[usize],
    tuple: &Tuple,
    apply: &ApplyOptions,
) -> Tuple {
    let reordered: Vec<DetectiveRule> = order.iter().map(|&i| rules[i].clone()).collect();
    let mut t = tuple.clone();
    basic_repair_tuple(ctx, &reordered, &mut t, apply);
    t
}

fn first_diff(a: &Tuple, b: &Tuple) -> Option<(AttrId, String, String)> {
    for i in 0..a.arity() {
        let col = AttrId::from_index(i);
        if a.get(col) != b.get(col) || a.is_positive(col) != b.is_positive(col) {
            return Some((col, a.get(col).to_owned(), b.get(col).to_owned()));
        }
    }
    None
}

/// Chases every tuple of `sample` under several rule orders; reports the
/// first divergence found.
pub fn check_consistency(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    sample: &Relation,
    opts: &ConsistencyOptions,
) -> Consistency {
    if rules.len() <= 1 {
        return Consistency::Consistent;
    }
    let identity: Vec<usize> = (0..rules.len()).collect();
    let mut orders: Vec<Vec<usize>> = vec![identity.clone()];
    let mut reversed = identity.clone();
    reversed.reverse();
    orders.push(reversed);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for _ in 0..opts.random_orders {
        let mut order = identity.clone();
        order.shuffle(&mut rng);
        orders.push(order);
    }
    orders.dedup();

    for (row, tuple) in sample.tuples().iter().enumerate() {
        let baseline = chase_in_order(ctx, rules, &orders[0], tuple, &opts.apply);
        for order in &orders[1..] {
            let other = chase_in_order(ctx, rules, order, tuple, &opts.apply);
            if let Some((col, value_a, value_b)) = first_diff(&baseline, &other) {
                return Consistency::Inconsistent(Box::new(Divergence {
                    row,
                    order_a: orders[0].clone(),
                    order_b: order.clone(),
                    col,
                    value_a,
                    value_b,
                }));
            }
        }
    }
    Consistency::Consistent
}

/// Multi-version variant of [`check_consistency`]: chases every sample
/// tuple to its **set** of fixpoints (§IV-C) under several rule orders and
/// compares the sets — the paper's Church–Rosser condition verbatim
/// ("terminate in the same fixpoint(s)").
pub fn check_consistency_multi(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    sample: &Relation,
    opts: &ConsistencyOptions,
) -> Consistency {
    if rules.len() <= 1 {
        return Consistency::Consistent;
    }
    let identity: Vec<usize> = (0..rules.len()).collect();
    let mut orders: Vec<Vec<usize>> = vec![identity.clone()];
    let mut reversed = identity.clone();
    reversed.reverse();
    orders.push(reversed);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for _ in 0..opts.random_orders {
        let mut order = identity.clone();
        order.shuffle(&mut rng);
        orders.push(order);
    }
    orders.dedup();

    let multi_opts = MultiOptions {
        apply: opts.apply.clone(),
        ..Default::default()
    };
    let fixpoint_set = |order: &[usize], tuple: &Tuple| -> Vec<Tuple> {
        let reordered: Vec<DetectiveRule> = order.iter().map(|&i| rules[i].clone()).collect();
        // `multi_repair_tuple` already sorts and dedups its output.
        multi_repair_tuple(ctx, &reordered, tuple, &multi_opts)
    };

    for (row, tuple) in sample.tuples().iter().enumerate() {
        let baseline = fixpoint_set(&orders[0], tuple);
        for order in &orders[1..] {
            let other = fixpoint_set(order, tuple);
            if baseline != other {
                // Surface the first differing cell of the first differing
                // fixpoint for the witness.
                let (a, b) = baseline
                    .iter()
                    .zip(&other)
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| (a.clone(), b.clone()))
                    .unwrap_or_else(|| {
                        (
                            baseline
                                .last()
                                .cloned()
                                .unwrap_or_else(|| (**tuple).clone()),
                            other.last().cloned().unwrap_or_else(|| (**tuple).clone()),
                        )
                    });
                let (col, value_a, value_b) = first_diff(&a, &b).unwrap_or((
                    AttrId::from_index(0),
                    String::new(),
                    String::new(),
                ));
                return Consistency::Inconsistent(Box::new(Divergence {
                    row,
                    order_a: orders[0].clone(),
                    order_b: order.clone(),
                    col,
                    value_a,
                    value_b,
                }));
            }
        }
    }
    Consistency::Consistent
}

/// Static analysis: pairs of rules that repair the same column. Such pairs
/// are the only candidates for order-dependence on that column and deserve
/// review (the sampled check above decides whether contention actually
/// occurs on the data).
pub fn contending_pairs(rules: &[DetectiveRule]) -> Vec<(usize, usize, AttrId)> {
    let mut out = Vec::new();
    for i in 0..rules.len() {
        for j in i + 1..rules.len() {
            if rules[i].repair_col() == rules[j].repair_col() {
                out.push((i, j, rules[i].repair_col()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure4_rules, nobel_schema, table1_dirty};
    use crate::graph::schema::NodeType;
    use crate::rule::{node, RuleEdge, RuleNodeRef};
    use dr_kb::fixtures::{names, nobel_mini_kb};
    use dr_simmatch::SimFn;

    #[test]
    fn figure4_rules_are_consistent_on_table1() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let verdict = check_consistency(
            &ctx,
            &rules,
            &table1_dirty(),
            &ConsistencyOptions::default(),
        );
        assert!(verdict.is_consistent(), "{verdict:?}");
    }

    /// Two rules with opposite City semantics (lives-at vs born-in) diverge
    /// on r1 depending on order: a textbook inconsistent pair.
    #[test]
    fn opposite_semantics_detected_as_inconsistent() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let rules = figure4_rules(&kb);
        let phi2 = rules[1].clone(); // City = lives-at

        // born-in rule: positive City via wasBornIn, negative via
        // worksAt∘locatedIn.
        let laureate = NodeType::Class(kb.class_named(names::LAUREATE).unwrap());
        let org = NodeType::Class(kb.class_named(names::ORGANIZATION).unwrap());
        let city = NodeType::Class(kb.class_named(names::CITY).unwrap());
        let born_city = crate::rule::DetectiveRule::new(
            "born-city",
            vec![
                node(schema.attr_expect("Name"), laureate, SimFn::Equal),
                node(
                    schema.attr_expect("Institution"),
                    org,
                    SimFn::EditDistance(2),
                ),
            ],
            node(schema.attr_expect("City"), city, SimFn::Equal),
            node(schema.attr_expect("City"), city, SimFn::Equal),
            vec![
                RuleEdge {
                    from: RuleNodeRef::Evidence(0),
                    to: RuleNodeRef::Evidence(1),
                    rel: kb.pred_named(names::WORKS_AT).unwrap(),
                },
                RuleEdge {
                    from: RuleNodeRef::Evidence(0),
                    to: RuleNodeRef::Positive,
                    rel: kb.pred_named(names::BORN_IN).unwrap(),
                },
                RuleEdge {
                    from: RuleNodeRef::Evidence(1),
                    to: RuleNodeRef::Negative,
                    rel: kb.pred_named(names::LOCATED_IN).unwrap(),
                },
            ],
        )
        .unwrap();

        let pair = vec![phi2, born_city];
        assert_eq!(contending_pairs(&pair).len(), 1);

        let ctx = MatchContext::new(&kb);
        let verdict =
            check_consistency(&ctx, &pair, &table1_dirty(), &ConsistencyOptions::default());
        match verdict {
            Consistency::Inconsistent(d) => {
                assert_eq!(nobel_schema().attr_name(d.col), "City");
                assert_ne!(d.value_a, d.value_b);
                assert_eq!(d.row, 0, "diverges on Avram Hershko");
            }
            Consistency::Consistent => panic!("expected divergence"),
        }
    }

    /// Multi-version consistency: all four rules agree on the fixpoint SET
    /// for every Table-I tuple — including Calvin's two versions.
    #[test]
    fn figure4_rules_are_multi_consistent() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let verdict = check_consistency_multi(
            &ctx,
            &rules,
            &table1_dirty(),
            &ConsistencyOptions::default(),
        );
        assert!(verdict.is_consistent(), "{verdict:?}");
    }

    #[test]
    fn multi_checker_catches_the_same_divergence() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let rules = figure4_rules(&kb);
        let phi2 = rules[1].clone();
        let laureate = NodeType::Class(kb.class_named(names::LAUREATE).unwrap());
        let org = NodeType::Class(kb.class_named(names::ORGANIZATION).unwrap());
        let city = NodeType::Class(kb.class_named(names::CITY).unwrap());
        let born_city = crate::rule::DetectiveRule::new(
            "born-city",
            vec![
                node(schema.attr_expect("Name"), laureate, SimFn::Equal),
                node(
                    schema.attr_expect("Institution"),
                    org,
                    SimFn::EditDistance(2),
                ),
            ],
            node(schema.attr_expect("City"), city, SimFn::Equal),
            node(schema.attr_expect("City"), city, SimFn::Equal),
            vec![
                RuleEdge {
                    from: RuleNodeRef::Evidence(0),
                    to: RuleNodeRef::Evidence(1),
                    rel: kb.pred_named(names::WORKS_AT).unwrap(),
                },
                RuleEdge {
                    from: RuleNodeRef::Evidence(0),
                    to: RuleNodeRef::Positive,
                    rel: kb.pred_named(names::BORN_IN).unwrap(),
                },
                RuleEdge {
                    from: RuleNodeRef::Evidence(1),
                    to: RuleNodeRef::Negative,
                    rel: kb.pred_named(names::LOCATED_IN).unwrap(),
                },
            ],
        )
        .unwrap();
        let ctx = MatchContext::new(&kb);
        let verdict = check_consistency_multi(
            &ctx,
            &[phi2, born_city],
            &table1_dirty(),
            &ConsistencyOptions::default(),
        );
        assert!(!verdict.is_consistent());
    }

    #[test]
    fn single_rule_is_trivially_consistent() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let verdict = check_consistency(
            &ctx,
            &rules[..1],
            &table1_dirty(),
            &ConsistencyOptions::default(),
        );
        assert!(verdict.is_consistent());
    }

    #[test]
    fn contending_pairs_on_distinct_columns_is_empty() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        assert!(contending_pairs(&rules).is_empty());
    }
}
