//! Shared matching context: a KB plus lazily built, memoized value indexes.
//!
//! Rule nodes repeatedly ask "which KB nodes of type `T` match this cell
//! under `sim`?". A [`MatchContext`] owns one [`MatchIndex`] per `(type,
//! sim)` pair, built on first use and shared across rules, tuples, and
//! threads — the "efficient instance matching" machinery of §IV-B(2).
//!
//! The context itself records nothing. On a registry-attached context the
//! KB regions a row reads are recorded by the repair kernel into a
//! worker-owned `ReadSet`, which hands the row's sorted [`KbFootprint`] to
//! its report.

use crate::graph::schema::NodeType;
use crate::repair::budget::RepairBudget;
use crate::repair::registry::CacheRegistry;
use crate::repair::value_cache::ValueCache;
use dr_kb::{FxHashMap, FxHashSet, InstanceId, KbFootprint, KbRef, LiteralId, Node, Region};
use dr_obs::{Obs, SpanCtx};
use dr_simmatch::{MatchIndex, SimFn};
use parking_lot::Mutex;
use std::sync::Arc;

/// The KB regions one row reads: the read-side [`KbFootprint`] selective
/// re-repair checks against a delta's write footprint.
///
/// Recording takes no lock. A repair worker owns one set inside its
/// per-tuple state ([`ElementCache`](crate::repair::cache::ElementCache)),
/// reaches it by `&mut` from every read site of the kernel (the element
/// and value caches, the solver), and reuses it across rows. Recording
/// dedups as it goes, so the row end sorts only distinct regions.
///
/// Only a footprint a later [`crate::parallel_repair_selective`] can read
/// is worth recording, so only [`crate::parallel_repair`]'s workers on a
/// registry-attached context record ([`Self::recording`]): such a context
/// is what carries a KB from one generation to the next. The default set,
/// which those workers use without a registry and which single-tuple
/// repairs, Algorithm 1 and the `Pattern` functions use, ignores reads.
#[derive(Debug, Default)]
pub(crate) struct ReadSet {
    /// `None` for a set nobody reads.
    seen: Option<FxHashSet<Region>>,
    buf: Vec<Region>,
}

impl ReadSet {
    /// A set that records every read.
    pub(crate) fn recording() -> Self {
        Self {
            seen: Some(FxHashSet::default()),
            buf: Vec::new(),
        }
    }

    /// Records a read of `region`.
    pub(crate) fn record(&mut self, region: Region) {
        if let Some(seen) = &mut self.seen {
            seen.insert(region);
        }
    }

    /// Forgets every recorded region, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        if let Some(seen) = &mut self.seen {
            seen.clear();
        }
    }

    /// The recorded regions as a footprint, leaving the set empty; `None`
    /// for a set that does not record.
    pub(crate) fn take(&mut self) -> Option<KbFootprint> {
        let seen = self.seen.as_mut()?;
        self.buf.extend(seen.drain());
        Some(KbFootprint::from_buf(&mut self.buf))
    }
}

/// An owned, shareable handle to a context's `(type, sim) → index` memo.
///
/// The serving layer holds one `IndexMemo` per loaded KB *generation* and
/// rebuilds [`MatchContext`]s around it per request; applying a
/// [`dr_kb::KbDelta`] swaps in a fresh memo, so a memo only ever holds
/// indexes of its own generation. With a [`CacheRegistry`] attached, the
/// fresh memo fills from the registry, which carries every index the
/// delta's footprint leaves untouched over from the previous generation
/// ([`CacheRegistry::apply_delta`]). That an inherited index answers
/// exactly as a rebuilt one would is a tested property
/// (`tests/tests/generation_inheritance.rs`), not a construction.
#[derive(Clone, Default)]
pub struct IndexMemo(SharedIndexMap);

impl IndexMemo {
    /// A fresh, empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of `(type, sim)` indexes built so far.
    pub fn len(&self) -> usize {
        self.0.lock().len()
    }

    /// Whether no index has been built yet.
    pub fn is_empty(&self) -> bool {
        self.0.lock().is_empty()
    }
}

/// A knowledge base with memoized per-(type, sim) match indexes, and
/// optionally a [`CacheRegistry`] handing out persistent, schema-keyed
/// [`ValueCache`]s so repairs of consecutive same-schema relations
/// warm-start.
///
/// The index memo sits behind an `Arc`, so [`Self::fork`] can hand out
/// cheap per-request contexts that share one memo (and registry and obs
/// handle) while carrying their own [`RepairBudget`] — the serving layer
/// builds one long-lived context per KB and forks it per request.
pub struct MatchContext<'kb> {
    kb: KbRef<'kb>,
    indexes: SharedIndexMap,
    registry: Option<Arc<CacheRegistry>>,
    budget: RepairBudget,
    obs: Option<Arc<Obs>>,
    span: Option<SpanCtx>,
    /// A snapshot of the memo read without locking (see [`Self::pinned`]).
    pinned: Option<Arc<IndexMap>>,
}

/// A `(type, sim) → index` map.
type IndexMap = FxHashMap<(NodeType, SimFn), Arc<MatchIndex>>;

/// The fork-shared `(type, sim) → index` memo.
type SharedIndexMap = Arc<Mutex<IndexMap>>;

/// Contexts are shared by reference across scheduler worker threads and by
/// value across serving threads; both require `Send + Sync`, so regressing
/// either is a compile error here rather than a trait-bound error at a
/// distant spawn site.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MatchContext<'static>>();
};

impl<'kb> MatchContext<'kb> {
    /// Wraps either KB backend (`&KnowledgeBase`, `&MappedKb`, or an
    /// existing [`KbRef`]).
    pub fn new(kb: impl Into<KbRef<'kb>>) -> Self {
        Self {
            kb: kb.into(),
            indexes: Arc::new(Mutex::new(FxHashMap::default())),
            registry: None,
            budget: RepairBudget::default(),
            obs: None,
            span: None,
            pinned: None,
        }
    }

    /// Wraps a KB and attaches a persistent cache registry: repairers
    /// running through this context draw their relation-scoped
    /// [`ValueCache`] from the registry instead of starting cold.
    pub fn with_registry(kb: impl Into<KbRef<'kb>>, registry: Arc<CacheRegistry>) -> Self {
        Self {
            kb: kb.into(),
            indexes: Arc::new(Mutex::new(FxHashMap::default())),
            registry: Some(registry),
            budget: RepairBudget::default(),
            obs: None,
            span: None,
            pinned: None,
        }
    }

    /// Wraps a KB around an externally owned [`IndexMemo`] (and optional
    /// registry). This is the serving-layer constructor: the caller keeps
    /// the memo alive across requests and discards it when the KB
    /// generation changes.
    pub fn with_memo(
        kb: impl Into<KbRef<'kb>>,
        memo: &IndexMemo,
        registry: Option<Arc<CacheRegistry>>,
    ) -> Self {
        Self {
            kb: kb.into(),
            indexes: Arc::clone(&memo.0),
            registry,
            budget: RepairBudget::default(),
            obs: None,
            span: None,
            pinned: None,
        }
    }

    /// A per-request view of this context: shares the KB, the memoized
    /// index map (an index built through any fork is visible to all), the
    /// registry, and the obs handle, but owns its budget — callers chain
    /// [`Self::with_budget`] to give one request a deadline without
    /// touching the long-lived parent.
    pub fn fork(&self) -> MatchContext<'kb> {
        Self {
            kb: self.kb,
            indexes: Arc::clone(&self.indexes),
            registry: self.registry.clone(),
            budget: self.budget,
            obs: self.obs.clone(),
            span: self.span.clone(),
            pinned: self.pinned.clone(),
        }
    }

    /// A [`Self::fork`] that reads every index the memo holds now from a
    /// snapshot, without locking the memo. A repair pins its context after
    /// prewarm, so its value-cache misses and normalization checks neither
    /// lock nor clone an `Arc` per lookup; an index built later still
    /// comes from the shared memo. The snapshot lives as long as the fork
    /// (and its forks), so it keeps no index past the repair.
    pub(crate) fn pinned(&self) -> MatchContext<'kb> {
        let snapshot = self.indexes.lock().clone();
        let mut fork = self.fork();
        fork.pinned = Some(Arc::new(snapshot));
        fork
    }

    /// Attaches a live span context (builder style): phases and repairers
    /// running through this context open their spans as children of it.
    /// It is absent (and free) unless the serving layer armed the request
    /// or the repair drivers opened a row span.
    pub fn with_span(mut self, span: SpanCtx) -> Self {
        self.span = Some(span);
        self
    }

    /// Attaches an optional span context — convenience for plumbing
    /// `Option<SpanCtx>` through forks.
    pub fn with_span_opt(mut self, span: Option<SpanCtx>) -> Self {
        self.span = span;
        self
    }

    /// The attached live span context, if the request is being traced.
    pub fn span(&self) -> Option<&SpanCtx> {
        self.span.as_ref()
    }

    /// Sets the per-tuple [`RepairBudget`] every repairer running through
    /// this context starts its tuples with (builder style). The default is
    /// unbounded.
    pub fn with_budget(mut self, budget: RepairBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches an observability handle (builder style): repairers running
    /// through this context record metrics into `obs.metrics()` and, when
    /// `obs.jsonl()` is set, write each relation's spans to the JSONL
    /// trace (unless the context also carries a live span). Cache and
    /// registry counters register their own cells as caches are handed
    /// out, so the metric store and the report stats read the same storage.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches an optional observability handle — convenience for
    /// plumbing `Option<Arc<Obs>>` config fields through builders.
    pub fn with_obs_opt(mut self, obs: Option<Arc<Obs>>) -> Self {
        self.obs = obs;
        self
    }

    /// The attached observability handle, if any.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// The per-tuple repair budget (unbounded unless configured via
    /// [`Self::with_budget`]).
    pub fn budget(&self) -> &RepairBudget {
        &self.budget
    }

    /// The attached registry, if any.
    pub fn registry(&self) -> Option<&Arc<CacheRegistry>> {
        self.registry.as_ref()
    }

    /// The shared value cache a relation repair over `schema` should use:
    /// the registry's warm, persistent cache when one is attached, or a
    /// fresh relation-lifetime cache otherwise.
    pub fn value_cache_for(&self, schema: &dr_relation::Schema) -> Arc<ValueCache> {
        let cache = match &self.registry {
            Some(registry) => {
                if let Some(obs) = &self.obs {
                    registry.register_metrics(obs.metrics());
                }
                registry.cache_for(self.kb, schema)
            }
            None => Arc::new(ValueCache::new()),
        };
        // Registration is idempotent per cell, so handing out the same
        // warm cache repeatedly only attaches it once.
        if let Some(obs) = &self.obs {
            cache.register_metrics(obs.metrics());
        }
        cache
    }

    /// The underlying KB, as a backend-agnostic [`KbRef`].
    pub fn kb(&self) -> KbRef<'kb> {
        self.kb
    }

    /// The memoized index for `(ty, sim)`. On first use it comes from the
    /// attached registry, which holds the indexes of this KB generation
    /// (inherited across deltas), or is built.
    pub fn index_for(&self, ty: NodeType, sim: SimFn) -> Arc<MatchIndex> {
        if let Some(idx) = self.pinned_index(ty, sim) {
            return Arc::clone(idx);
        }
        if let Some(idx) = self.indexes.lock().get(&(ty, sim)) {
            return Arc::clone(idx);
        }
        // Build outside the lock: index construction can be slow and other
        // (ty, sim) lookups shouldn't wait on it. A racing builder wastes
        // work but stays correct; first insert wins.
        let built = match &self.registry {
            Some(registry) => {
                registry.index_for(self.kb.generation(), ty, sim, || self.build_index(ty, sim))
            }
            None => Arc::new(self.build_index(ty, sim)),
        };
        let mut guard = self.indexes.lock();
        Arc::clone(guard.entry((ty, sim)).or_insert(built))
    }

    /// Builds the `(ty, sim)` index over this context's KB, under an
    /// `index_build` span when the request is traced.
    fn build_index(&self, ty: NodeType, sim: SimFn) -> MatchIndex {
        let mut span = self.span.as_ref().map(|s| s.child("index_build"));
        let built = self.scan_index(ty, sim);
        if let Some(span) = span.as_mut() {
            span.attr_static(
                "kind",
                match ty {
                    NodeType::Class(_) => "class",
                    NodeType::Literal => "literal",
                },
            );
            span.attr_num("entries", built.len() as u64);
        }
        built
    }

    fn scan_index(&self, ty: NodeType, sim: SimFn) -> MatchIndex {
        match ty {
            NodeType::Class(c) => {
                let instances = self.kb.instances_of(c);
                MatchIndex::build(
                    sim,
                    instances
                        .iter()
                        .map(|&i| (i.index() as u32, self.kb.instance_label(i))),
                )
            }
            NodeType::Literal => MatchIndex::build(
                sim,
                (0..self.kb.num_literals())
                    .map(|i| (i as u32, self.kb.literal_value(LiteralId::from_index(i)))),
            ),
        }
    }

    /// All KB nodes of type `ty` whose value matches `value` under `sim`.
    pub fn candidates(&self, ty: NodeType, sim: SimFn, value: &str) -> Vec<Node> {
        let hits = self.lookup(ty, sim, value);
        match ty {
            NodeType::Class(_) => hits
                .into_iter()
                .map(|id| Node::Instance(InstanceId::from_index(id as usize)))
                .collect(),
            NodeType::Literal => hits
                .into_iter()
                .map(|id| Node::Literal(LiteralId::from_index(id as usize)))
                .collect(),
        }
    }

    /// Whether some KB node of type `ty` matches `value` under `sim` (a
    /// [`Self::candidates`] that keeps only the answer's emptiness).
    pub(crate) fn matches_any(&self, ty: NodeType, sim: SimFn, value: &str) -> bool {
        !self.lookup(ty, sim, value).is_empty()
    }

    /// The ids of the `(ty, sim)` index matching `value`. A pinned context
    /// reads its index without locking the memo.
    fn lookup(&self, ty: NodeType, sim: SimFn, value: &str) -> Vec<u32> {
        match self.pinned_index(ty, sim) {
            Some(index) => index.lookup(value),
            None => self.index_for(ty, sim).lookup(value),
        }
    }

    fn pinned_index(&self, ty: NodeType, sim: SimFn) -> Option<&Arc<MatchIndex>> {
        self.pinned.as_ref()?.get(&(ty, sim))
    }

    /// Whether `node` has the required type.
    pub fn type_ok(&self, node: Node, ty: NodeType) -> bool {
        match (ty, node) {
            (NodeType::Class(c), Node::Instance(i)) => self.kb.has_type(i, c),
            (NodeType::Literal, Node::Literal(_)) => true,
            _ => false,
        }
    }

    /// Every KB node of type `ty` (the unfiltered extent) — the fallback
    /// candidate set for unconstrained pattern nodes.
    pub fn extent(&self, ty: NodeType) -> Vec<Node> {
        self.extent_iter(ty).collect()
    }

    /// [`Self::extent`] without collecting it.
    pub(crate) fn extent_iter(&self, ty: NodeType) -> impl Iterator<Item = Node> + 'kb {
        let (instances, literals) = match ty {
            NodeType::Class(c) => (self.kb.instances_of(c), 0),
            NodeType::Literal => (&[][..], self.kb.num_literals()),
        };
        instances
            .iter()
            .map(|&i| Node::Instance(i))
            .chain((0..literals).map(|i| Node::Literal(LiteralId::from_index(i))))
    }

    /// Number of indexes built so far (diagnostics).
    pub fn index_count(&self) -> usize {
        self.indexes.lock().len()
    }

    /// Builds every `(type, sim)` index the rule set can ask for, up front.
    ///
    /// Rule application touches indexes for each rule node's `(ty, sim)`
    /// pair and, for fuzzily matched nodes, the exact `(ty, =)` index (the
    /// normalization guard checks whether a cell names a real entity
    /// exactly). Free pattern nodes (the positive node during proof
    /// negative, auxiliary nodes) match through KB adjacency, not indexes.
    /// Calling this before fanning out to worker threads means no worker
    /// stalls on (or duplicates) an index build mid-repair.
    pub fn prewarm(&self, rules: &[crate::rule::DetectiveRule]) {
        for rule in rules {
            for node in rule
                .evidence()
                .iter()
                .chain([rule.positive(), rule.negative()])
            {
                let _ = self.index_for(node.ty, node.sim);
                if !node.sim.is_exact() {
                    let _ = self.index_for(node.ty, SimFn::Equal);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_kb::fixtures::{figure1_kb, names};

    #[test]
    fn candidates_by_exact_match() {
        let kb = figure1_kb();
        let ctx = MatchContext::new(&kb);
        let city = NodeType::Class(kb.class_named(names::CITY).unwrap());
        let hits = ctx.candidates(city, SimFn::Equal, "Haifa");
        assert_eq!(hits.len(), 1);
        assert_eq!(kb.node_value(hits[0]), "Haifa");
        assert!(ctx.candidates(city, SimFn::Equal, "Tel Aviv").is_empty());
    }

    #[test]
    fn candidates_by_edit_distance() {
        let kb = figure1_kb();
        let ctx = MatchContext::new(&kb);
        let org = NodeType::Class(kb.class_named(names::ORGANIZATION).unwrap());
        let hits = ctx.candidates(org, SimFn::EditDistance(2), "Israel Institute of Technolgy");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn literal_candidates() {
        let kb = figure1_kb();
        let ctx = MatchContext::new(&kb);
        let hits = ctx.candidates(NodeType::Literal, SimFn::Equal, "1937-12-31");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].is_literal());
    }

    #[test]
    fn indexes_are_memoized() {
        let kb = figure1_kb();
        let ctx = MatchContext::new(&kb);
        let city = NodeType::Class(kb.class_named(names::CITY).unwrap());
        let a = ctx.index_for(city, SimFn::Equal);
        let b = ctx.index_for(city, SimFn::Equal);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.index_count(), 1);
        let _ = ctx.index_for(city, SimFn::EditDistance(1));
        assert_eq!(ctx.index_count(), 2);
    }

    #[test]
    fn type_ok_respects_kinds() {
        let kb = figure1_kb();
        let ctx = MatchContext::new(&kb);
        let city = NodeType::Class(kb.class_named(names::CITY).unwrap());
        let country = NodeType::Class(kb.class_named(names::COUNTRY).unwrap());
        let haifa = Node::Instance(kb.instances_labeled("Haifa")[0]);
        assert!(ctx.type_ok(haifa, city));
        assert!(!ctx.type_ok(haifa, country));
        assert!(!ctx.type_ok(haifa, NodeType::Literal));
        let lit = Node::Literal(kb.literal_with_value("1937-12-31").unwrap());
        assert!(ctx.type_ok(lit, NodeType::Literal));
        assert!(!ctx.type_ok(lit, city));
    }

    #[test]
    fn value_cache_comes_from_registry_when_attached() {
        let kb = figure1_kb();
        let schema = dr_relation::Schema::new("R", &["X"]);
        let registry = Arc::new(crate::repair::registry::CacheRegistry::default());
        let ctx = MatchContext::with_registry(&kb, Arc::clone(&registry));
        let a = ctx.value_cache_for(&schema);
        let b = ctx.value_cache_for(&schema);
        assert!(Arc::ptr_eq(&a, &b), "registry hands back the warm cache");
        assert!(ctx.registry().is_some());
        assert_eq!(registry.stats().warm_hits, 1);

        let plain = MatchContext::new(&kb);
        let c = plain.value_cache_for(&schema);
        let d = plain.value_cache_for(&schema);
        assert!(!Arc::ptr_eq(&c, &d), "no registry: fresh cache per ask");
        assert!(plain.registry().is_none());
    }

    #[test]
    fn forks_share_indexes_but_own_budgets() {
        let kb = figure1_kb();
        let registry = Arc::new(crate::repair::registry::CacheRegistry::default());
        let ctx = MatchContext::with_registry(&kb, Arc::clone(&registry));
        let city = NodeType::Class(kb.class_named(names::CITY).unwrap());

        let fork = ctx
            .fork()
            .with_budget(crate::repair::budget::RepairBudget::with_max_steps(5));
        // An index built through the fork is visible to the parent (and
        // vice versa): one memo, not a copy.
        let a = fork.index_for(city, SimFn::Equal);
        let b = ctx.index_for(city, SimFn::Equal);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.index_count(), 1);

        // Budgets stay per-fork.
        assert!(ctx.budget().is_unbounded());
        assert!(!fork.budget().is_unbounded());

        // The registry rides along, so forks draw the same warm cache.
        let schema = dr_relation::Schema::new("R", &["X"]);
        let c = ctx.value_cache_for(&schema);
        let d = fork.value_cache_for(&schema);
        assert!(Arc::ptr_eq(&c, &d));
    }

    #[test]
    fn extent_enumerates_type() {
        let kb = figure1_kb();
        let ctx = MatchContext::new(&kb);
        let city = NodeType::Class(kb.class_named(names::CITY).unwrap());
        assert_eq!(ctx.extent(city).len(), 2);
        assert_eq!(ctx.extent(NodeType::Literal).len(), 1);
    }
}
