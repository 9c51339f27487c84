//! Per-tuple element cache (§IV-B(3)) — the innermost layer of the caching
//! hierarchy (see DESIGN.md).
//!
//! Rule nodes and edges recur across rules — `(Name, Nobel laureates in
//! Chemistry, =)` appears in all four rules of Figure 4. The fast repair
//! algorithm checks each distinct element once per tuple and shares the
//! result: this cache memoizes, per `(col, type, sim)` node signature, the
//! KB candidates matching the tuple's current cell value, and per edge
//! signature whether any candidate pair is connected. Entries touching a
//! column are invalidated when a repair (or typo normalization) rewrites
//! that column's value.
//!
//! The cache can optionally *overlay* a relation-scoped [`ValueCache`]: on a
//! local miss the shared, value-keyed cache is consulted before computing
//! from scratch, so identical values recur across tuples for free. Local
//! entries are keyed by signature only (the tuple's value is implicit), so
//! column invalidation stays local — the shared entries are value-keyed and
//! never go stale.
//!
//! The cache also holds the tuple's `ReadSet`: every lookup it cannot
//! answer locally records the KB regions behind the answer, so the regions
//! a tuple read are known when its repair ends.

use crate::context::{MatchContext, ReadSet};
use crate::graph::schema::SchemaNode;
use crate::repair::value_cache::{edge_probe, ValueCache};
use dr_kb::{FxHashMap, Node, PredId, Region};
use dr_relation::{AttrId, Tuple};
use std::sync::Arc;

pub use crate::repair::value_cache::EdgeSig;

/// Hit/miss counters of one [`ElementCache`], split by source level:
/// `local_*` cover the per-tuple signature-keyed maps, `shared_*` cover the
/// probes a local miss forwarded to the relation-scoped [`ValueCache`]
/// overlay (always zero without one). Row spans report these so a
/// trace can attribute each lookup to the level that answered it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElementCacheStats {
    /// Lookups answered by the per-tuple maps.
    pub local_hits: usize,
    /// Lookups the per-tuple maps could not answer.
    pub local_misses: usize,
    /// Forwarded probes the shared [`ValueCache`] answered.
    pub shared_hits: usize,
    /// Forwarded probes the shared cache had to compute.
    pub shared_misses: usize,
}

/// Memoized per-tuple element checks, shared across rules; optionally backed
/// by a relation-scoped [`ValueCache`].
#[derive(Default)]
pub struct ElementCache<'v> {
    shared: Option<&'v ValueCache>,
    nodes: FxHashMap<SchemaNode, Arc<Vec<Node>>>,
    edges: FxHashMap<EdgeSig, bool>,
    hits: usize,
    misses: usize,
    shared_hits: usize,
    shared_misses: usize,
    /// The KB regions read since the last [`Self::clear`]. A local hit
    /// reads nothing new: its entry's miss recorded the regions.
    pub(crate) reads: ReadSet,
}

impl ElementCache<'static> {
    /// An empty, standalone cache (no shared backing).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'v> ElementCache<'v> {
    /// An empty per-tuple overlay over the relation-scoped `shared` cache.
    pub fn with_shared(shared: &'v ValueCache) -> Self {
        Self {
            shared: Some(shared),
            ..Default::default()
        }
    }

    /// Candidates of `node` against the tuple's current value of
    /// `node.col`, memoized by node signature.
    pub fn candidates(
        &mut self,
        ctx: &MatchContext<'_>,
        tuple: &Tuple,
        node: &SchemaNode,
    ) -> Arc<Vec<Node>> {
        if let Some(cands) = self.nodes.get(node) {
            self.hits += 1;
            return Arc::clone(cands);
        }
        self.misses += 1;
        self.reads.record(node.ty.region());
        let cands = match self.shared {
            Some(shared) => {
                let (cands, hit) = shared.candidates_with_outcome(ctx, node, tuple.get(node.col));
                if hit {
                    self.shared_hits += 1;
                } else {
                    self.shared_misses += 1;
                }
                cands
            }
            None => Arc::new(ctx.candidates(node.ty, node.sim, tuple.get(node.col))),
        };
        self.nodes.insert(*node, Arc::clone(&cands));
        cands
    }

    /// Whether the tuple matches node `node` (has any candidate).
    pub fn node_ok(&mut self, ctx: &MatchContext<'_>, tuple: &Tuple, node: &SchemaNode) -> bool {
        !self.candidates(ctx, tuple, node).is_empty()
    }

    /// Whether some candidate pair of `(from, to)` is connected by `rel`,
    /// memoized by edge signature.
    pub fn edge_ok(
        &mut self,
        ctx: &MatchContext<'_>,
        tuple: &Tuple,
        from: &SchemaNode,
        rel: PredId,
        to: &SchemaNode,
    ) -> bool {
        let sig = (*from, rel, *to);
        if let Some(&ok) = self.edges.get(&sig) {
            self.hits += 1;
            return ok;
        }
        self.misses += 1;
        let ok = match self.shared {
            Some(shared) => {
                let (ok, hit) = shared.edge_ok_with_outcome(
                    ctx,
                    (*from, rel, *to),
                    tuple.get(from.col),
                    tuple.get(to.col),
                    &mut self.reads,
                );
                if hit {
                    self.shared_hits += 1;
                } else {
                    self.shared_misses += 1;
                }
                ok
            }
            None => {
                let from_cands = self.candidates(ctx, tuple, from);
                let to_cands = self.candidates(ctx, tuple, to);
                let (ok, probed) = edge_probe(ctx, &from_cands, rel, &to_cands);
                for s in probed {
                    self.reads.record(Region::Out(s, rel));
                }
                ok
            }
        };
        self.edges.insert(sig, ok);
        ok
    }

    /// Drops every local entry whose signature involves `col` — called after
    /// the column's value changed. Shared entries are value-keyed and need no
    /// invalidation.
    pub fn invalidate_col(&mut self, col: AttrId) {
        self.nodes.retain(|n, _| n.col != col);
        self.edges
            .retain(|(f, _, t), _| f.col != col && t.col != col);
    }

    /// Clears everything local (new tuple), the recorded reads included.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.edges.clear();
        self.reads.clear();
    }

    /// Clears everything local and zeroes the counters: a repair worker
    /// keeps one cache across its rows (the maps keep their capacity) and
    /// starts each row this way, so the counters are per row.
    pub(crate) fn reset(&mut self) {
        self.clear();
        self.hits = 0;
        self.misses = 0;
        self.shared_hits = 0;
        self.shared_misses = 0;
    }

    /// `(hits, misses)` counters for diagnostics and ablation benches.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }

    /// Counters split by source level (local maps vs. shared overlay).
    pub fn level_stats(&self) -> ElementCacheStats {
        ElementCacheStats {
            local_hits: self.hits,
            local_misses: self.misses,
            shared_hits: self.shared_hits,
            shared_misses: self.shared_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{nobel_schema, table1_dirty};
    use crate::graph::schema::NodeType;
    use dr_kb::fixtures::{names, nobel_mini_kb};
    use dr_simmatch::SimFn;

    fn name_node(kb: &dr_kb::KnowledgeBase) -> SchemaNode {
        SchemaNode::new(
            nobel_schema().attr_expect("Name"),
            NodeType::Class(kb.class_named(names::LAUREATE).unwrap()),
            SimFn::Equal,
        )
    }

    #[test]
    fn node_candidates_are_memoized() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let tuple = table1_dirty().tuple(0).clone();
        let mut cache = ElementCache::new();
        let node = name_node(&kb);
        let a = cache.candidates(&ctx, &tuple, &node);
        let b = cache.candidates(&ctx, &tuple, &node);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn edge_check_and_memoization() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let tuple = table1_dirty().tuple(0).clone();
        let mut cache = ElementCache::new();
        let name = name_node(&kb);
        let inst = SchemaNode::new(
            schema.attr_expect("Institution"),
            NodeType::Class(kb.class_named(names::ORGANIZATION).unwrap()),
            SimFn::EditDistance(2),
        );
        let works_at = kb.pred_named(names::WORKS_AT).unwrap();
        let born_in = kb.pred_named(names::BORN_IN).unwrap();
        assert!(cache.edge_ok(&ctx, &tuple, &name, works_at, &inst));
        assert!(cache.edge_ok(&ctx, &tuple, &name, works_at, &inst)); // hit
        assert!(!cache.edge_ok(&ctx, &tuple, &name, born_in, &inst));
    }

    #[test]
    fn invalidation_is_column_scoped() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let mut tuple = table1_dirty().tuple(0).clone();
        let mut cache = ElementCache::new();
        let city = SchemaNode::new(
            schema.attr_expect("City"),
            NodeType::Class(kb.class_named(names::CITY).unwrap()),
            SimFn::Equal,
        );
        let name = name_node(&kb);
        assert_eq!(cache.candidates(&ctx, &tuple, &city).len(), 1); // Karcag
        let _ = cache.candidates(&ctx, &tuple, &name);

        // Repair City and invalidate: the city entry refreshes, name stays.
        tuple.set(schema.attr_expect("City"), "Haifa");
        cache.invalidate_col(schema.attr_expect("City"));
        let refreshed = cache.candidates(&ctx, &tuple, &city);
        assert_eq!(kb.node_value(refreshed[0]), "Haifa");
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (0, 3));
    }

    #[test]
    fn literal_source_edge_is_false() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let tuple = table1_dirty().tuple(0).clone();
        let mut cache = ElementCache::new();
        let dob = SchemaNode::new(schema.attr_expect("DOB"), NodeType::Literal, SimFn::Equal);
        let name = name_node(&kb);
        let born_on = kb.pred_named(names::BORN_ON_DATE).unwrap();
        // Literal → instance edges cannot exist.
        assert!(!cache.edge_ok(&ctx, &tuple, &dob, born_on, &name));
        // Instance → literal works.
        assert!(cache.edge_ok(&ctx, &tuple, &name, born_on, &dob));
    }

    #[test]
    fn overlay_pulls_from_shared_and_invalidation_stays_local() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let shared = ValueCache::new();
        let node = name_node(&kb);
        let mut tuple_a = table1_dirty().tuple(0).clone();
        let tuple_b = table1_dirty().tuple(0).clone(); // identical values

        let mut cache_a = ElementCache::with_shared(&shared);
        let a = cache_a.candidates(&ctx, &tuple_a, &node);
        assert_eq!(shared.stats().node_misses, 1);

        // A second per-tuple overlay sees the shared entry: cross-tuple hit.
        let mut cache_b = ElementCache::with_shared(&shared);
        let b = cache_b.candidates(&ctx, &tuple_b, &node);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(shared.stats().node_hits, 1);

        // Local invalidation refetches from shared without recomputing: the
        // value did not change, so the shared key still matches.
        cache_a.invalidate_col(node.col);
        let again = cache_a.candidates(&ctx, &tuple_a, &node);
        assert!(Arc::ptr_eq(&a, &again));
        assert_eq!(shared.stats().node_hits, 2);
        assert_eq!(shared.stats().node_misses, 1);

        // After an actual value change, the new value probes a new key.
        tuple_a.set(schema.attr_expect("Name"), "Marie Curie");
        cache_a.invalidate_col(node.col);
        let curie = cache_a.candidates(&ctx, &tuple_a, &node);
        assert_eq!(kb.node_value(curie[0]), "Marie Curie");
        assert_eq!(shared.stats().node_misses, 2);
    }
}
