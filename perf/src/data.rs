//! Workload inputs, generated from the seed, and the checks on outputs.

use dr_core::RelationReport;
use dr_kb::{DeltaNode, KbDelta, KnowledgeBase, Node};
use dr_relation::noise::{inject, NoiseSpec, SemanticSource};
use dr_relation::Relation;

/// SplitMix64: a small, seedable generator for the benchmark's own choices
/// (row order, delta subjects), independent of the program's `rand`.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// `clean` with 10% of its non-key cells corrupted (typos and semantic
/// confusions), as the paper's experiments use.
pub fn noisy(clean: &Relation, seed: u64, source: &dyn SemanticSource) -> Relation {
    let name = clean.schema().attr_expect("Name");
    inject(
        clean,
        &NoiseSpec::new(0.10, seed).with_excluded(vec![name]),
        source,
    )
    .0
}

/// The paper's Table I repeated `copies` times, in an order drawn from
/// `seed`.
pub fn table1_times(copies: usize, seed: u64) -> Relation {
    let base = dr_core::fixtures::table1_dirty();
    let mut rows: Vec<_> = (0..copies).flat_map(|_| base.tuples().to_vec()).collect();
    Rng::new(seed).shuffle(&mut rows);
    Relation::from_tuples(dr_core::fixtures::nobel_schema(), rows)
}

/// Consecutive `rows`-row slices of `relation` as CSV request bodies.
pub fn csv_bodies(relation: &Relation, rows: usize) -> Vec<String> {
    relation
        .tuples()
        .chunks(rows)
        .map(|chunk| {
            dr_relation::csv::serialize(&Relation::from_tuples(
                relation.schema().clone(),
                chunk.to_vec(),
            ))
        })
        .collect()
}

/// FNV-1a over every cell and mark of `relation`: equal digests mean equal
/// outputs for the batch passes.
pub fn digest(relation: &Relation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for tuple in relation.tuples() {
        for cell in tuple.cells() {
            eat(cell.as_bytes());
            eat(&[0xff]);
        }
        for attr in tuple.positive_attrs() {
            eat(&(attr.index() as u32).to_le_bytes());
        }
        eat(&[0xfe]);
    }
    h
}

/// Whether every tuple of a repair reached its fixpoint (no Failed or
/// Degraded row).
pub fn settled(report: &RelationReport) -> bool {
    report.tuples.iter().all(|t| t.outcome.is_completed())
}

/// The write the `nobel-delta` workload repeats: retract, then re-insert,
/// the `worksAt` edges of `share` of the subjects that have one (at least
/// one subject), chosen by `seed`. Returns `[retract, reinsert]`; applying
/// both in turn brings the KB back to its original content.
pub fn works_at_deltas(kb: &KnowledgeBase, share: f64, seed: u64) -> [KbDelta; 2] {
    let works_at = kb
        .pred_named("worksAt")
        .expect("every workload KB has worksAt edges");
    // Sorted by label so the choice depends on the seed, not on hash order.
    let mut subjects: Vec<&str> = kb
        .instances()
        .filter(|&s| !kb.objects(s, works_at).is_empty())
        .map(|s| kb.instance_label(s))
        .collect();
    subjects.sort_unstable();
    subjects.dedup();
    Rng::new(seed).shuffle(&mut subjects);
    let take = ((subjects.len() as f64 * share).ceil() as usize).clamp(1, subjects.len());

    let mut retract = KbDelta::new();
    let mut reinsert = KbDelta::new();
    for label in &subjects[..take] {
        for &s in kb.instances_labeled(label) {
            for &o in kb.objects(s, works_at) {
                let object = match o {
                    Node::Instance(i) => DeltaNode::Instance(kb.instance_label(i).to_owned()),
                    Node::Literal(l) => DeltaNode::Literal(kb.literal_value(l).to_owned()),
                };
                retract.retract(label, "worksAt", object.clone());
                reinsert.insert(label, "worksAt", object);
            }
        }
    }
    [retract, reinsert]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_order_follows_the_seed() {
        let a = table1_times(8, 1);
        assert_eq!(a.len(), 32);
        assert_eq!(digest(&a), digest(&table1_times(8, 1)));
        assert_ne!(digest(&a), digest(&table1_times(8, 2)));
    }

    #[test]
    fn deltas_round_trip_to_the_original_kb() {
        let kb = dr_kb::fixtures::nobel_mini_kb();
        let [retract, reinsert] = works_at_deltas(&kb, 0.01, 3);
        assert!(!retract.is_empty());
        let mut next = kb.clone();
        next.apply_delta(&retract).expect("edge deltas apply");
        assert!(next.num_edges() < kb.num_edges());
        next.apply_delta(&reinsert).expect("edge deltas apply");
        assert_eq!(next.num_edges(), kb.num_edges());
        assert_eq!(next.content_hash(), kb.content_hash());
    }

    #[test]
    fn bodies_cover_every_row() {
        let relation = table1_times(16, 0);
        let bodies = csv_bodies(&relation, 60);
        assert_eq!(bodies.len(), 2);
        let rows: usize = bodies.iter().map(|b| b.lines().count() - 1).sum();
        assert_eq!(rows, relation.len());
    }
}
