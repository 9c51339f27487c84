//! Deterministic content hash of a finalized [`KnowledgeBase`].
//!
//! [`KnowledgeBase::generation`] is deliberately process-local: it changes on
//! every rebuild, which makes it a safe cache key *within* one process but
//! useless for cross-process cache persistence. The content hash fills that
//! gap: two KBs built by replaying the **same construction sequence** (same
//! classes, predicates, instances, literals, taxonomy edges, and triples, in
//! the same interning order) hash to the same value — in any process, on any
//! run.
//!
//! The hash is intentionally **representation-dependent**, not merely
//! set-semantic: it folds names in id order, so it pins down the exact id
//! assignment of the KB. That is the property the snapshot layer needs —
//! persisted cache entries carry raw [`Node`] ids, and those ids are only
//! meaningful under the identical id assignment. A KB with the same triples
//! but a different interning order hashes differently and simply misses the
//! snapshot (a cold start, never a wrong answer).
//!
//! Built on the workspace [`FxHasher`]. Nothing is
//! sorted at hash time beyond each instance's few classes and each class's
//! few parents: [`KnowledgeBase::triples`] walks the SPO runs, which already
//! yield `(subject, predicate, object)` in ascending order, so the hash is
//! one linear scan of the KB.

use crate::graph::KnowledgeBase;
use crate::hash::FxHasher;
use crate::ids::Node;
use std::hash::Hasher;

/// Domain/version tag folded into every content hash. Bump when the hash
/// recipe changes so stale snapshot files stop matching instead of being
/// misread.
const CONTENT_HASH_VERSION: u64 = 0xD12C_0001;

/// Sentinel separating hash sections so adjacent variable-length sections
/// cannot alias (e.g. moving a name from the class list to the pred list).
const SECTION: u64 = 0x5EC7_1040_F00D_CAFE;

fn put_str(h: &mut FxHasher, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

fn put_node(h: &mut FxHasher, n: Node) {
    match n {
        Node::Instance(i) => {
            h.write_u8(0);
            h.write_u32(i.index() as u32);
        }
        Node::Literal(l) => {
            h.write_u8(1);
            h.write_u32(l.index() as u32);
        }
    }
}

/// Computes the canonical content hash of `kb`.
///
/// Covers, in canonical order: class names (by id), predicate names (by id),
/// instance labels plus their direct class lists (by id), literal values (by
/// id), taxonomy parent lists (by class id), and all triples sorted by
/// `(subject, predicate, object)`.
///
/// Prefer the cached [`KnowledgeBase::content_hash`] accessor; this free
/// function recomputes from scratch in one pass over the KB (O(edges)).
pub fn content_hash_of(kb: &KnowledgeBase) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(CONTENT_HASH_VERSION);

    h.write_u64(SECTION);
    h.write_u64(kb.num_classes() as u64);
    for c in kb.classes() {
        put_str(&mut h, kb.class_name(c));
    }

    h.write_u64(SECTION);
    h.write_u64(kb.num_preds() as u64);
    for p in kb.preds() {
        put_str(&mut h, kb.pred_name(p));
    }

    h.write_u64(SECTION);
    h.write_u64(kb.num_instances() as u64);
    let mut classes: Vec<u32> = Vec::new();
    for i in kb.instances() {
        put_str(&mut h, kb.instance_label(i));
        classes.clear();
        classes.extend(kb.instance_classes(i).iter().map(|c| c.index() as u32));
        classes.sort_unstable();
        h.write_u64(classes.len() as u64);
        for &c in &classes {
            h.write_u32(c);
        }
    }

    h.write_u64(SECTION);
    h.write_u64(kb.num_literals() as u64);
    for idx in 0..kb.num_literals() {
        put_str(
            &mut h,
            kb.literal_value(crate::ids::LiteralId::from_index(idx)),
        );
    }

    h.write_u64(SECTION);
    for c in kb.classes() {
        let mut parents: Vec<u32> = kb
            .taxonomy()
            .parents(c)
            .iter()
            .map(|p| p.index() as u32)
            .collect();
        parents.sort_unstable();
        h.write_u64(parents.len() as u64);
        for p in parents {
            h.write_u32(p);
        }
    }

    h.write_u64(SECTION);
    h.write_u64(kb.num_edges() as u64);
    // `for_each` folds through the nested runs without re-entering each
    // level per triple, which a `for` loop over `triples()` would.
    kb.triples().for_each(|(s, p, o)| {
        h.write_u32(s.index() as u32);
        h.write_u32(p.index() as u32);
        put_node(&mut h, o);
    });

    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_kb, nobel_mini_kb};
    use crate::graph::KbBuilder;
    use crate::{DeltaNode, KbDelta};
    use proptest::prelude::*;

    /// The collect-and-sort recipe the hash used before the SPO runs made
    /// `triples()` ordered: the oracle the one-pass walk must equal.
    fn content_hash_sorted(kb: &KnowledgeBase) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(CONTENT_HASH_VERSION);

        h.write_u64(SECTION);
        h.write_u64(kb.num_classes() as u64);
        for c in kb.classes() {
            put_str(&mut h, kb.class_name(c));
        }

        h.write_u64(SECTION);
        h.write_u64(kb.num_preds() as u64);
        for p in kb.preds() {
            put_str(&mut h, kb.pred_name(p));
        }

        h.write_u64(SECTION);
        h.write_u64(kb.num_instances() as u64);
        for i in kb.instances() {
            put_str(&mut h, kb.instance_label(i));
            let mut classes: Vec<u32> = kb
                .instance_classes(i)
                .iter()
                .map(|c| c.index() as u32)
                .collect();
            classes.sort_unstable();
            h.write_u64(classes.len() as u64);
            for c in classes {
                h.write_u32(c);
            }
        }

        h.write_u64(SECTION);
        h.write_u64(kb.num_literals() as u64);
        for idx in 0..kb.num_literals() {
            put_str(
                &mut h,
                kb.literal_value(crate::ids::LiteralId::from_index(idx)),
            );
        }

        h.write_u64(SECTION);
        for c in kb.classes() {
            let mut parents: Vec<u32> = kb
                .taxonomy()
                .parents(c)
                .iter()
                .map(|p| p.index() as u32)
                .collect();
            parents.sort_unstable();
            h.write_u64(parents.len() as u64);
            for p in parents {
                h.write_u32(p);
            }
        }

        h.write_u64(SECTION);
        let mut triples: Vec<(u32, u32, Node)> = kb
            .triples()
            .map(|(s, p, o)| (s.index() as u32, p.index() as u32, o))
            .collect();
        triples.sort_unstable();
        h.write_u64(triples.len() as u64);
        for (s, p, o) in triples {
            h.write_u32(s);
            h.write_u32(p);
            put_node(&mut h, o);
        }

        h.finish()
    }

    /// The one-pass hash equals the oracle, and `triples()` is strictly
    /// ascending and counts `num_edges()`.
    fn assert_hash_and_order(kb: &KnowledgeBase) {
        assert_eq!(content_hash_of(kb), content_hash_sorted(kb));
        let triples: Vec<_> = kb.triples().collect();
        assert!(
            triples.windows(2).all(|w| w[0] < w[1]),
            "triples() must be strictly ascending"
        );
        assert_eq!(triples.len(), kb.num_edges());
    }

    /// A delta over `kb`'s own vocabulary plus a few fresh names, one op
    /// per `(kind, a, b, c)` draw. Retracts name real triples of `kb`.
    fn delta_from(kb: &KnowledgeBase, draws: &[(u8, usize, usize, usize)]) -> KbDelta {
        let pick = |pool: Vec<String>, i: usize, fresh: &str| -> String {
            if i.is_multiple_of(5) || pool.is_empty() {
                format!("fresh-{fresh}-{}", i % 3)
            } else {
                pool[i % pool.len()].clone()
            }
        };
        let labels = || kb.instances().map(|i| kb.instance_label(i).to_owned());
        let preds = || kb.preds().map(|p| kb.pred_name(p).to_owned());
        let classes = || kb.classes().map(|c| kb.class_name(c).to_owned());
        let triples: Vec<_> = kb.triples().collect();
        let mut d = KbDelta::new();
        for &(kind, a, b, c) in draws {
            let inst = |i| pick(labels().collect(), i, "inst");
            let class = |i| pick(classes().collect(), i, "class");
            match kind % 8 {
                0 | 1 => {
                    let object = if c % 3 == 0 {
                        DeltaNode::Literal(format!("value-{}", c % 7))
                    } else {
                        DeltaNode::Instance(inst(c))
                    };
                    d.insert(&inst(a), &pick(preds().collect(), b, "pred"), object);
                }
                2 | 3 if !triples.is_empty() => {
                    let (s, p, o) = triples[a % triples.len()];
                    let object = match o {
                        Node::Instance(i) => DeltaNode::Instance(kb.instance_label(i).into()),
                        Node::Literal(l) => DeltaNode::Literal(kb.literal_value(l).into()),
                    };
                    d.retract(kb.instance_label(s), kb.pred_name(p), object);
                }
                4 => {
                    d.add_type(&inst(a), &class(b));
                }
                5 => {
                    d.remove_type(&inst(a), &class(b));
                }
                6 => {
                    d.add_subclass(&class(a), &class(b));
                }
                _ => {
                    d.remove_subclass(&class(a), &class(b));
                }
            }
        }
        d
    }

    #[test]
    fn one_pass_hash_equals_collect_and_sort_oracle_on_fixtures() {
        for kb in [
            figure1_kb(),
            nobel_mini_kb(),
            small_kb(false, false, false),
            small_kb(true, true, true),
            KbBuilder::new().finalize().unwrap(),
        ] {
            assert_hash_and_order(&kb);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After a chain of random deltas, every generation still hashes
        /// like the oracle and yields its triples in ascending order.
        #[test]
        fn one_pass_hash_equals_oracle_after_random_deltas(
            batches in prop::collection::vec(
                prop::collection::vec((0u8..8, 0usize..400, 0usize..400, 0usize..400), 1..12),
                1..4,
            )
        ) {
            let mut kb = nobel_mini_kb();
            for draws in &batches {
                let delta = delta_from(&kb, draws);
                let _ = kb.apply_delta(&delta);
                assert_hash_and_order(&kb);
            }
        }
    }

    fn small_kb(extra_edge: bool, extra_type: bool, extra_parent: bool) -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let city = b.class("city");
        let place = b.class("place");
        let located_in = b.pred("locatedIn");
        let haifa = b.instance("Haifa");
        let israel = b.instance("Israel");
        b.set_type(haifa, city);
        if extra_type {
            b.set_type(israel, place);
        }
        if extra_parent {
            b.subclass(city, place);
        }
        b.edge(haifa, located_in, israel);
        if extra_edge {
            b.edge(israel, located_in, haifa);
        }
        b.finalize().unwrap()
    }

    #[test]
    fn identical_construction_sequences_hash_equal() {
        let a = figure1_kb();
        let b = figure1_kb();
        assert_ne!(a.generation(), b.generation());
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn cached_accessor_matches_free_function() {
        let kb = figure1_kb();
        assert_eq!(kb.content_hash(), super::content_hash_of(&kb));
        // Second call hits the cached value and must agree.
        assert_eq!(kb.content_hash(), kb.content_hash());
    }

    #[test]
    fn any_content_change_changes_the_hash() {
        let base = small_kb(false, false, false).content_hash();
        assert_ne!(base, small_kb(true, false, false).content_hash(), "edge");
        assert_ne!(base, small_kb(false, true, false).content_hash(), "type");
        assert_ne!(
            base,
            small_kb(false, false, true).content_hash(),
            "taxonomy"
        );
    }

    #[test]
    fn renaming_changes_the_hash() {
        let mut b1 = KbBuilder::new();
        let c = b1.class("city");
        let i = b1.instance("Haifa");
        b1.set_type(i, c);
        let mut b2 = KbBuilder::new();
        let c = b2.class("town");
        let i = b2.instance("Haifa");
        b2.set_type(i, c);
        assert_ne!(
            b1.finalize().unwrap().content_hash(),
            b2.finalize().unwrap().content_hash()
        );
    }

    #[test]
    fn section_swaps_do_not_alias() {
        // One KB with the name interned as a class, one as a predicate.
        let mut b1 = KbBuilder::new();
        b1.class("locatedIn");
        let mut b2 = KbBuilder::new();
        b2.pred("locatedIn");
        assert_ne!(
            b1.finalize().unwrap().content_hash(),
            b2.finalize().unwrap().content_hash()
        );
    }

    #[test]
    fn hash_is_independent_of_generation() {
        // Interleave other finalizations to perturb the generation counter.
        let a = small_kb(false, false, false);
        let _noise = figure1_kb();
        let b = small_kb(false, false, false);
        assert_ne!(a.generation(), b.generation());
        assert_eq!(a.content_hash(), b.content_hash());
    }
}
