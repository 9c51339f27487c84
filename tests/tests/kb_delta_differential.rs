//! Differential tests for KB deltas: applying a [`dr_kb::KbDelta`] in
//! place (`KnowledgeBase::apply_delta`) must be indistinguishable from
//! rebuilding the KB from scratch with the same ops appended to the
//! original construction sequence — identical ids, identical content
//! hash, byte-identical packed image, agreement on every query surface,
//! and byte-identical `parallel_repair` outputs at one and four worker
//! threads. A rejected delta (taxonomy cycle) must leave the KB — and its
//! generation — untouched. Clones share their content copy-on-write, so a
//! delta applied to a clone must never show through to the KB it was
//! cloned from, or to any other live generation.
//!
//! Set `DR_QUICK=1` to shrink the property-test case counts for CI smoke
//! legs.

use dr_integration_tests::differential::{
    assert_backends_agree, assert_delta_equals_rebuild, assert_repairs_agree, pack_and_open,
    proptest_cases, random_delta, random_kb, random_kb_builder, replay_delta,
};
use dr_kb::fixtures::{nobel_mini_builder, nobel_mini_kb};
use dr_kb::{pack, DeltaNode, KbDelta, KnowledgeBase};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(48)))]

    /// In-place delta ≡ rebuild, for arbitrary generator seeds and
    /// arbitrary op mixes (edge inserts/retracts over existing and fresh
    /// entities, type edits, taxonomy edits). On the cycle-rejection
    /// branch the delta must be perfectly atomic.
    #[test]
    fn randomized_deltas_match_rebuild(seed in any::<u64>(), delta_seed in any::<u64>()) {
        let mut live = random_kb(seed);
        let generation_before = live.generation();
        let hash_before = live.content_hash();
        let delta = random_delta(delta_seed, &live);

        match live.apply_delta(&delta) {
            Ok(_footprint) => {
                prop_assert_ne!(live.generation(), generation_before, "delta must bump the generation");
                let mut b = random_kb_builder(seed);
                replay_delta(&mut b, &delta);
                let rebuilt = b.finalize().expect("live apply succeeded; rebuild must too");
                assert_delta_equals_rebuild(&live, &rebuilt);
            }
            Err(_cycle) => {
                prop_assert_eq!(live.generation(), generation_before, "rejected delta must not bump");
                prop_assert_eq!(live.content_hash(), hash_before, "rejected delta must not mutate");
                assert_delta_equals_rebuild(&live, &random_kb(seed));
            }
        }
    }

    /// Copy-on-write isolation: a chain of generations, each a clone of
    /// the last with a random delta applied, plus a clone of the source
    /// hit by a rejected (cyclic) delta. All stay alive together; the
    /// source keeps its packed bytes and content hash, and every
    /// generation still equals the rebuild of exactly the deltas it took.
    #[test]
    fn deltas_on_clones_leave_every_other_generation_untouched(
        seed in any::<u64>(),
        delta_seeds in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let source = random_kb(seed);
        let source_pack = pack(&source);
        let source_hash = source.content_hash();

        let mut generations: Vec<(KnowledgeBase, Vec<KbDelta>)> =
            vec![(source.clone(), Vec::new())];
        for &delta_seed in &delta_seeds {
            let (previous, applied) = generations.last().expect("starts non-empty");
            let mut next = previous.clone();
            let mut applied = applied.clone();
            let delta = random_delta(delta_seed, &next);
            if next.apply_delta(&delta).is_ok() {
                applied.push(delta);
            }
            generations.push((next, applied));
        }
        let mut rejected = source.clone();
        let mut cyclic = KbDelta::new();
        cyclic
            .insert("cow-subject", "cow-pred", DeltaNode::Literal("cow-value".into()))
            .add_subclass("cow-a", "cow-b")
            .add_subclass("cow-b", "cow-a");
        prop_assert!(rejected.apply_delta(&cyclic).is_err(), "cyclic delta must be rejected");

        prop_assert_eq!(pack(&source), source_pack, "source bytes changed under a clone's delta");
        prop_assert_eq!(source.content_hash(), source_hash);
        assert_delta_equals_rebuild(&source, &random_kb(seed));
        assert_delta_equals_rebuild(&rejected, &source);
        for (kb, applied) in &generations {
            let mut b = random_kb_builder(seed);
            for delta in applied {
                replay_delta(&mut b, delta);
            }
            let rebuilt = b.finalize().expect("every applied delta was acyclic");
            assert_delta_equals_rebuild(kb, &rebuilt);
        }
    }

    /// A delta'd KB still packs into a `.drkb` image that answers
    /// identically through the mmap backend — deltas compose with the
    /// out-of-core path.
    #[test]
    fn delta_kbs_pack_and_answer_identically(seed in any::<u64>(), delta_seed in any::<u64>()) {
        let mut live = random_kb(seed);
        let delta = random_delta(delta_seed, &live);
        if live.apply_delta(&delta).is_ok() {
            let packed = pack_and_open(&live, "delta");
            assert_backends_agree(&live, &packed.mapped);
        }
    }

    /// Repairs against a delta'd nobel-mini KB are byte-identical to
    /// repairs against its rebuilt twin, at one and four worker threads —
    /// the op mix drawn from the fixture's own vocabulary so deltas hit
    /// the regions the Figure-4 rules read.
    #[test]
    fn nobel_mini_delta_repairs_match_rebuild(delta_seed in any::<u64>()) {
        let mut live = nobel_mini_kb();
        let delta = random_delta(delta_seed, &live);
        if live.apply_delta(&delta).is_ok() {
            let mut b = nobel_mini_builder();
            replay_delta(&mut b, &delta);
            let rebuilt = b.finalize().expect("live apply succeeded; rebuild must too");
            assert_delta_equals_rebuild(&live, &rebuilt);
            let rules = dr_core::fixtures::figure4_rules(&live);
            assert_repairs_agree(&live, &rebuilt, &rules, &dr_core::fixtures::table1_dirty());
        }
    }
}

/// A targeted delta that moves the Technion from Haifa to Karcag: the ϕ2
/// (City) repair evidence changes, and the delta'd KB must still repair
/// exactly like its rebuilt twin — including through the mmap backend.
#[test]
fn relocation_delta_repairs_match_rebuild_and_image() {
    let mut live = nobel_mini_kb();
    let mut delta = KbDelta::new();
    delta
        .retract(
            "Israel Institute of Technology",
            "locatedIn",
            DeltaNode::Instance("Haifa".into()),
        )
        .insert(
            "Israel Institute of Technology",
            "locatedIn",
            DeltaNode::Instance("Karcag".into()),
        )
        .add_type("Jerusalem", "city")
        .insert(
            "Jerusalem",
            "locatedIn",
            DeltaNode::Instance("Israel".into()),
        );
    let footprint = live.apply_delta(&delta).expect("acyclic delta applies");
    assert!(!footprint.is_empty(), "edge + type edits leave a footprint");

    let mut b = nobel_mini_builder();
    replay_delta(&mut b, &delta);
    let rebuilt = b.finalize().expect("rebuild finalizes");
    assert_delta_equals_rebuild(&live, &rebuilt);

    let rules = dr_core::fixtures::figure4_rules(&live);
    let dirty = dr_core::fixtures::table1_dirty();
    assert_repairs_agree(&live, &rebuilt, &rules, &dirty);

    let packed = pack_and_open(&live, "nobel-delta");
    assert_backends_agree(&live, &packed.mapped);
    let image_rules = dr_core::fixtures::figure4_rules(&packed.mapped);
    assert_repairs_agree(&live, &packed.mapped, &image_rules, &dirty);
}

/// An empty delta is a generation bump and nothing else.
#[test]
fn empty_delta_only_bumps_generation() {
    let mut live = nobel_mini_kb();
    let hash_before = live.content_hash();
    let generation_before = live.generation();
    let footprint = live
        .apply_delta(&KbDelta::new())
        .expect("empty delta applies");
    assert!(footprint.is_empty());
    assert_ne!(live.generation(), generation_before);
    assert_eq!(live.content_hash(), hash_before);
    assert_delta_equals_rebuild(&live, &nobel_mini_kb());
}
