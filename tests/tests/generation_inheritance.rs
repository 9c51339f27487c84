//! Oracles for what a KB generation inherits from its predecessor
//! (DESIGN.md §10):
//!
//! 1. Every `(type, sim)` match index the registry carries across a chain
//!    of random deltas answers exactly as an index freshly built over the
//!    new KB: for every instance label, every literal and edit-distance
//!    typos of some labels.
//! 2. A value-cache sweep that reaches entries through its reverse index
//!    removes exactly the entries a full scan of the cache would, and
//!    `count_stale` reads zero afterwards — for random class, literal,
//!    all-classes and out-pair footprints.
//!
//! Set `DR_QUICK=1` to shrink the property-test case counts.

use std::collections::HashSet;
use std::sync::Arc;

use dr_core::{
    CacheRegistry, DetectiveRule, MatchContext, NodeType, RegistryConfig, SchemaNode,
    SnapshotPayload, ValueCache,
};
use dr_datasets::{KbProfile, NobelWorld};
use dr_integration_tests::differential::{proptest_cases, random_delta};
use dr_kb::{ClassId, InstanceId, KbFootprint, KnowledgeBase, LiteralId, Node, PredId, Region};
use dr_relation::AttrId;
use dr_simmatch::SimFn;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `(type, sim)` keys `MatchContext::prewarm` builds for `rules`.
fn index_keys(rules: &[DetectiveRule]) -> Vec<(NodeType, SimFn)> {
    let mut keys = Vec::new();
    for rule in rules {
        for node in rule
            .evidence()
            .iter()
            .chain([rule.positive(), rule.negative()])
        {
            keys.push((node.ty, node.sim));
            keys.push((node.ty, SimFn::Equal));
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

/// Every label and literal of `kb`, plus one- and two-edit typos of every
/// seventh label.
fn probes(kb: &KnowledgeBase) -> Vec<String> {
    let mut out: Vec<String> = kb
        .instances()
        .map(|i| kb.instance_label(i).to_owned())
        .collect();
    out.extend(
        (0..kb.num_literals()).map(|l| kb.literal_value(LiteralId::from_index(l)).to_owned()),
    );
    let typos: Vec<String> = out
        .iter()
        .step_by(7)
        .filter(|label| label.chars().count() > 3)
        .flat_map(|label| {
            let chars: Vec<char> = label.chars().collect();
            let mut one = chars.clone();
            one[1] = 'q';
            let mut two = one.clone();
            two.remove(chars.len() - 1);
            [one.into_iter().collect(), two.into_iter().collect()]
        })
        .collect();
    out.extend(typos);
    out
}

/// Whether the footprint names `region`, by a scan of its regions.
fn names(fp: &KbFootprint, region: Region) -> bool {
    fp.regions().contains(&region)
}

/// The staleness rule of DESIGN.md §10, written out independently of the
/// cache: a type's extent is stale when the footprint names its class (or
/// the whole taxonomy) or, for the literal pool, the literal pool.
fn ty_stale(fp: &KbFootprint, ty: NodeType) -> bool {
    match ty {
        NodeType::Class(c) => names(fp, Region::AllClasses) || names(fp, Region::Class(c)),
        NodeType::Literal => names(fp, Region::Literals),
    }
}

type NodeKey = (SchemaNode, String);
type EdgeKey = ((SchemaNode, PredId, SchemaNode), String, String);

fn keys(payload: &SnapshotPayload) -> (HashSet<NodeKey>, HashSet<EdgeKey>) {
    let nodes = payload
        .nodes
        .iter()
        .map(|(sn, value, _)| (*sn, value.clone()))
        .collect();
    let edges = payload
        .edges
        .iter()
        .map(|(sig, from, to, _, _)| (*sig, from.clone(), to.clone()))
        .collect();
    (nodes, edges)
}

/// The keys a full scan keeps: every entry none of whose reads `fp` makes
/// stale.
fn survivors(payload: &SnapshotPayload, fp: &KbFootprint) -> (HashSet<NodeKey>, HashSet<EdgeKey>) {
    let nodes = payload
        .nodes
        .iter()
        .filter(|(sn, _, _)| !ty_stale(fp, sn.ty))
        .map(|(sn, value, _)| (*sn, value.clone()))
        .collect();
    let edges = payload
        .edges
        .iter()
        .filter(|((from, rel, to), _, _, _, probed)| {
            !ty_stale(fp, from.ty)
                && !ty_stale(fp, to.ty)
                && !probed.iter().any(|&i| names(fp, Region::Out(i, *rel)))
        })
        .map(|(sig, from, to, _, _)| (*sig, from.clone(), to.clone()))
        .collect();
    (nodes, edges)
}

const CLASSES: usize = 5;
const INSTANCES: usize = 10;
const PREDS: usize = 3;

fn random_node(rng: &mut StdRng) -> SchemaNode {
    let ty = match rng.gen_range(0..=CLASSES) {
        CLASSES => NodeType::Literal,
        c => NodeType::Class(ClassId::from_index(c)),
    };
    let sim = if rng.gen_bool(0.5) {
        SimFn::Equal
    } else {
        SimFn::EditDistance(2)
    };
    SchemaNode::new(AttrId::from_index(rng.gen_range(0..3)), ty, sim)
}

fn random_value(rng: &mut StdRng) -> String {
    format!("v{}", rng.gen_range(0..12u32))
}

fn random_instance(rng: &mut StdRng) -> InstanceId {
    InstanceId::from_index(rng.gen_range(0..INSTANCES))
}

/// A batch of synthetic cache entries: the sweep reads only keys and
/// recorded reads, so they need not come from a real KB.
fn random_payload(rng: &mut StdRng) -> SnapshotPayload {
    let mut payload = SnapshotPayload::default();
    for _ in 0..rng.gen_range(0..40) {
        let cands = (0..rng.gen_range(0..3))
            .map(|_| Node::Instance(random_instance(rng)))
            .collect();
        payload
            .nodes
            .push((random_node(rng), random_value(rng), cands));
    }
    for _ in 0..rng.gen_range(0..40) {
        let sig = (
            random_node(rng),
            PredId::from_index(rng.gen_range(0..PREDS)),
            random_node(rng),
        );
        let probed = (0..rng.gen_range(0..4))
            .map(|_| random_instance(rng))
            .collect();
        payload.edges.push((
            sig,
            random_value(rng),
            random_value(rng),
            rng.gen_bool(0.5),
            probed,
        ));
    }
    payload
}

fn random_footprint(rng: &mut StdRng) -> KbFootprint {
    let mut regions = Vec::new();
    match rng.gen_range(0..4) {
        0 => regions.push(Region::Class(ClassId::from_index(
            rng.gen_range(0..CLASSES),
        ))),
        1 => regions.push(Region::Literals),
        2 if rng.gen_bool(0.5) => regions.push(Region::AllClasses),
        _ => {}
    }
    for _ in 0..rng.gen_range(0..4) {
        let (s, p) = (
            random_instance(rng),
            PredId::from_index(rng.gen_range(0..PREDS)),
        );
        regions.push(Region::Out(s, p));
        regions.push(Region::In(Node::Instance(s), p));
    }
    KbFootprint::from_buf(&mut regions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(16)))]

    /// Inherited match indexes answer exactly like rebuilt ones along a
    /// chain of random deltas.
    #[test]
    fn inherited_indexes_answer_like_rebuilt_ones(
        seeds in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let world = NobelWorld::generate(24, 5);
        let mut kb = world.kb(&KbProfile::yago());
        let rules = NobelWorld::rules(&kb);
        let keys = index_keys(&rules);
        let registry = Arc::new(CacheRegistry::new(RegistryConfig::default()));
        MatchContext::with_registry(&kb, Arc::clone(&registry)).prewarm(&rules);

        for seed in seeds {
            let mut next = kb.clone();
            let Ok(fp) = next.apply_delta(&random_delta(seed, &kb)) else {
                continue; // cycle-rejected delta: nothing changes
            };
            registry.apply_delta(kb.generation(), next.generation(), next.content_hash(), &fp);
            let inherited = MatchContext::with_registry(&next, Arc::clone(&registry));
            let rebuilt = MatchContext::new(&next);
            let probes = probes(&next);
            for &(ty, sim) in &keys {
                let a = inherited.index_for(ty, sim);
                let b = rebuilt.index_for(ty, sim);
                prop_assert_eq!(a.len(), b.len(), "{:?} {:?}", ty, sim);
                for probe in &probes {
                    prop_assert_eq!(a.lookup(probe), b.lookup(probe), "{:?} {:?} {}", ty, sim, probe);
                }
            }
            kb = next;
        }
    }

    /// The indexed sweep removes exactly what a full scan would, over
    /// rounds of inserts and sweeps.
    #[test]
    fn indexed_sweep_matches_a_full_scan(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cache = ValueCache::new();
        for round in 0..6 {
            cache.import(&random_payload(&mut rng));
            let fp = random_footprint(&mut rng);
            let before = cache.export();
            prop_assert_eq!(before.len(), cache.len(), "round {}: export repeats no entry", round);
            let (nodes, edges) = survivors(&before, &fp);
            let expected = (nodes.len() + edges.len()) as u64;
            prop_assert_eq!(cache.count_stale(&fp), before.len() as u64 - expected);

            let removed = cache.invalidate(&fp);
            prop_assert_eq!(removed, before.len() as u64 - expected, "round {}", round);
            prop_assert_eq!(cache.count_stale(&fp), 0);
            let after = cache.export();
            prop_assert_eq!(after.len(), cache.len());
            let (after_nodes, after_edges) = keys(&after);
            prop_assert_eq!(after_nodes, nodes, "round {}: node survivors", round);
            prop_assert_eq!(after_edges, edges, "round {}: edge survivors", round);
        }
    }
}
