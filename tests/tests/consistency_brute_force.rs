//! The exact consistency check against brute force (§III-C): for random
//! subsets and slice orders of at most five rules, `check_consistency` is
//! `Consistent` exactly when all n! orders of `basic_repair_tuple` agree on
//! every sample tuple, and each divergence it reports replays. For
//! `check_consistency_multi`, `Consistent` implies all n!
//! `multi_repair_tuple` sets agree, and a disagreement implies
//! `Inconsistent`. The rule pools are the Figure-4 rules with born-city and
//! a copy of φ2 on Table-I-like tuples, and the Nobel and UIS rules on
//! their dirty relations.

use dr_core::fixtures::{figure4_rules, nobel_schema, table1_clean, table1_dirty};
use dr_core::repair::basic::basic_repair_tuple;
use dr_core::repair::multi::{multi_repair_tuple, MultiOptions};
use dr_core::rule::consistency::{check_consistency, check_consistency_multi, Consistency};
use dr_core::rule::text::parse_rules;
use dr_core::{ApplyOptions, DetectiveRule, MatchContext};
use dr_datasets::{KbFlavor, KbProfile, NobelWorld, UisWorld};
use dr_kb::fixtures::nobel_mini_kb;
use dr_kb::KnowledgeBase;
use dr_relation::noise::{inject, NoiseSpec};
use dr_relation::{AttrId, Relation, Tuple};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

/// φ1–φ4, then born-city (φ2's mirror: City is where the laureate was
/// born, not where their institution is), then a copy of φ2.
fn figure4_pool(kb: &KnowledgeBase) -> Vec<DetectiveRule> {
    let born_city = r#"rule born-city {
        evidence e0: Name type "Nobel laureates in Chemistry" sim =;
        evidence e1: Institution type "organization" sim ED,2;
        positive p: City type "city" sim =;
        negative n: City type "city" sim =;
        edge e0 -[worksAt]-> e1;
        edge e0 -[wasBornIn]-> p;
        edge e1 -[locatedIn]-> n;
    }"#;
    let mut rules = figure4_rules(kb);
    rules.extend(parse_rules(born_city, &nobel_schema(), kb).unwrap());
    rules.push(rules[1].clone());
    rules
}

/// Table-I-like tuples: each row starts from one of Table I's dirty or
/// clean rows (`base`, modulo their number); a pick below 32 keeps that
/// row's cell, a larger one takes another Table I value of the column.
fn table1_like(rows: &[(usize, Vec<usize>)]) -> Relation {
    let (dirty, clean) = (table1_dirty(), table1_clean());
    let mut out = Relation::new(nobel_schema());
    for (base, picks) in rows {
        let cells = picks.iter().enumerate().map(|(c, &pick)| {
            let col = AttrId::from_index(c);
            let values: Vec<&str> = (0..dirty.len())
                .flat_map(|r| [dirty.tuple(r).get(col), clean.tuple(r).get(col)])
                .collect();
            let pick = if pick < 32 { *base } else { pick };
            values[pick % values.len()].to_owned()
        });
        out.push(Tuple::new(cells.collect()));
    }
    out
}

/// A dataset's KB (both flavours), rules and dirty relation.
struct World {
    kbs: Vec<KnowledgeBase>,
    dirty: Relation,
    rules: fn(&KnowledgeBase) -> Vec<DetectiveRule>,
}

fn nobel() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let world = NobelWorld::generate(120, 7);
        let (dirty, _) = inject(
            &world.clean_relation(),
            &NoiseSpec::new(0.1, 5),
            &world.semantic_source(),
        );
        World {
            kbs: flavors().map(|f| world.kb(&KbProfile::of(f))).collect(),
            dirty,
            rules: |kb| NobelWorld::rules(kb),
        }
    })
}

fn uis() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let world = UisWorld::generate(200, 13);
        let (dirty, _) = inject(
            &world.clean_relation(),
            &NoiseSpec::new(0.1, 3),
            &world.semantic_source(),
        );
        World {
            kbs: flavors().map(|f| world.kb(&KbProfile::of(f))).collect(),
            dirty,
            rules: |kb| UisWorld::rules(kb),
        }
    })
}

fn flavors() -> impl Iterator<Item = KbFlavor> {
    [KbFlavor::YagoLike, KbFlavor::DbpediaLike].into_iter()
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in permutations(n - 1) {
        for at in 0..n {
            let mut order = shorter.clone();
            order.insert(at, n - 1);
            out.push(order);
        }
    }
    out
}

/// The pool indexes of `mask`'s set bits, in the `nth` (modulo n!) of
/// their orders.
fn ordered_subset(mask: u32, nth: usize) -> Vec<usize> {
    let set: Vec<usize> = (0..32).filter(|i| mask & (1 << i) != 0).collect();
    let orders = permutations(set.len());
    orders[nth % orders.len()].iter().map(|&i| set[i]).collect()
}

/// Whether `chase` gives every tuple of `sample` one result under all
/// orders of `rules`.
fn all_orders_agree<T: PartialEq>(
    rules: &[DetectiveRule],
    sample: &Relation,
    chase: impl Fn(&[DetectiveRule], &Tuple) -> T,
) -> bool {
    let orders: Vec<Vec<DetectiveRule>> = permutations(rules.len())
        .iter()
        .map(|order| order.iter().map(|&i| rules[i].clone()).collect())
        .collect();
    sample.tuples().iter().all(|tuple| {
        let first = chase(&orders[0], tuple);
        orders[1..].iter().all(|order| chase(order, tuple) == first)
    })
}

fn basic_fixpoint(ctx: &MatchContext<'_>, rules: &[DetectiveRule], tuple: &Tuple) -> Tuple {
    let mut t = tuple.clone();
    basic_repair_tuple(ctx, rules, &mut t, &ApplyOptions::default());
    t
}

/// Both checks on `rules` over `sample` against brute force.
fn assert_exact(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    sample: &Relation,
) -> Result<(), TestCaseError> {
    let opts = ApplyOptions::default();
    let agree = all_orders_agree(rules, sample, |r, t| basic_fixpoint(ctx, r, t));
    match check_consistency(ctx, rules, sample, &opts) {
        Consistency::Consistent => prop_assert!(agree, "missed a divergence"),
        Consistency::Inconsistent(d) => {
            prop_assert!(!agree, "no order diverges, yet {d:?}");
            for (order, value) in [(&d.order_a, &d.value_a), (&d.order_b, &d.value_b)] {
                let reordered: Vec<_> = order.iter().map(|&i| rules[i].clone()).collect();
                let fixpoint = basic_fixpoint(ctx, &reordered, sample.tuple(d.row));
                prop_assert_eq!(fixpoint.get(d.col), value.as_str(), "order {:?}", order);
            }
        }
        undecided => prop_assert!(false, "unbudgeted check: {undecided:?}"),
    }

    let multi_opts = MultiOptions::default();
    let agree = all_orders_agree(rules, sample, |r, t| {
        multi_repair_tuple(ctx, r, t, &multi_opts)
    });
    let verdict = check_consistency_multi(ctx, rules, sample, &opts);
    if verdict.is_consistent() {
        prop_assert!(agree, "multi missed a divergence");
    }
    if !agree {
        prop_assert!(
            matches!(verdict, Consistency::Inconsistent(_)),
            "{verdict:?}"
        );
    }
    Ok(())
}

/// `assert_exact` for the rules `world` picks by `mask` and `nth` on the
/// `rows` of its dirty relation (modulo its length) under KB `flavor`.
fn assert_exact_on(
    world: &World,
    flavor: usize,
    mask: u32,
    nth: usize,
    rows: &[usize],
) -> Result<(), TestCaseError> {
    let kb = &world.kbs[flavor];
    let pool = (world.rules)(kb);
    let rules: Vec<_> = ordered_subset(mask, nth)
        .iter()
        .map(|&i| pool[i].clone())
        .collect();
    let mut sample = Relation::new(world.dirty.schema().clone());
    for &row in rows {
        sample.push(world.dirty.tuple(row % world.dirty.len()).clone());
    }
    assert_exact(&MatchContext::new(kb), &rules, &sample)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn figure4_pool_verdict_equals_brute_force(
        mask in 1u32..64,
        nth in 0usize..120,
        rows in prop::collection::vec((0usize..64, prop::collection::vec(0usize..64, 6)), 1..=3),
    ) {
        prop_assume!(mask.count_ones() <= 5);
        let kb = nobel_mini_kb();
        let pool = figure4_pool(&kb);
        let picks = ordered_subset(mask, nth);
        let rules: Vec<_> = picks.iter().map(|&i| pool[i].clone()).collect();
        assert_exact(&MatchContext::new(&kb), &rules, &table1_like(&rows))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn nobel_rules_verdict_equals_brute_force(
        flavor in 0usize..2,
        mask in 1u32..32,
        nth in 0usize..120,
        rows in prop::collection::vec(0usize..10_000, 1..=3),
    ) {
        assert_exact_on(nobel(), flavor, mask, nth, &rows)?;
    }

    #[test]
    fn uis_rules_verdict_equals_brute_force(
        flavor in 0usize..2,
        mask in 1u32..32,
        nth in 0usize..120,
        rows in prop::collection::vec(0usize..10_000, 1..=3),
    ) {
        assert_exact_on(uis(), flavor, mask, nth, &rows)?;
    }
}
