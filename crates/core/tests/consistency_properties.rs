//! Property tests for consistency analysis: subsets of a consistent rule
//! set stay consistent, and the verdict does not depend on the rule slice's
//! order. `tests/tests/consistency_brute_force.rs` checks the verdict
//! against every order of the chase.

use dr_core::fixtures::{figure4_rules, nobel_schema, table1_dirty};
use dr_core::rule::consistency::check_consistency;
use dr_core::rule::text::parse_rules;
use dr_core::{ApplyOptions, DetectiveRule, MatchContext};
use dr_kb::fixtures::nobel_mini_kb;
use dr_kb::KnowledgeBase;
use proptest::prelude::*;

/// φ1–φ4, then born-city (φ2's mirror: City is where the laureate was
/// born, not where their institution is), then a copy of φ2.
fn pool(kb: &KnowledgeBase) -> Vec<DetectiveRule> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every subset of the Figure-4 rules is consistent on Table I (subsets
    /// of a consistent set cannot introduce divergence).
    #[test]
    fn subsets_of_consistent_rules_stay_consistent(mask in 1u8..16) {
        let kb = nobel_mini_kb();
        let all = figure4_rules(&kb);
        let rules: Vec<_> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, r)| r.clone())
            .collect();
        let ctx = MatchContext::new(&kb);
        let verdict = check_consistency(&ctx, &rules, &table1_dirty(), &ApplyOptions::default());
        prop_assert!(verdict.is_consistent(), "mask {mask:#06b}: {verdict:?}");
    }

    /// The verdict does not depend on the order of the rule slice: the
    /// subset `mask` of the pool, ascending, against the same subset sorted
    /// by `keys`. Half the draws take `[φ1, φ2, born-city, φ2]`, which is
    /// inconsistent on Table I though only some orders of the chase
    /// diverge.
    #[test]
    fn verdict_is_permutation_stable(
        mixed_city in any::<bool>(),
        mask in 1u32..64,
        keys in prop::collection::vec(any::<u64>(), 6),
    ) {
        let mask = if mixed_city { 0b11_0011 } else { mask };
        let kb = nobel_mini_kb();
        let pool = pool(&kb);
        let ctx = MatchContext::new(&kb);
        let verdict = |order: &[usize]| {
            let rules: Vec<_> = order.iter().map(|&i| pool[i].clone()).collect();
            check_consistency(&ctx, &rules, &table1_dirty(), &ApplyOptions::default())
        };
        let ascending: Vec<usize> = (0..6).filter(|i| mask & (1 << i) != 0).collect();
        let mut shuffled = ascending.clone();
        shuffled.sort_by_key(|&i| keys[i]);
        let (a, b) = (verdict(&ascending), verdict(&shuffled));
        prop_assert_eq!(
            std::mem::discriminant(&a),
            std::mem::discriminant(&b),
            "{:?}: {:?}; {:?}: {:?}", ascending, a, shuffled, b
        );
    }
}
