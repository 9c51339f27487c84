//! Relation-scoped concurrent element cache.
//!
//! The per-tuple [`ElementCache`](crate::repair::cache::ElementCache) shares
//! element checks *within* one tuple; on real relations the same values
//! recur across thousands of rows (every laureate row holds "Nobel Prize in
//! Chemistry"), so the same KB lookups are recomputed per row. The
//! `ValueCache` memoizes them once per *value*: node candidates are keyed by
//! `(schema-node signature, cell value)` and edge checks by `(edge
//! signature, from-value, to-value)`.
//!
//! Because keys include the cell value — not just the column — entries are
//! pure functions of the KB *at one generation* and never go stale while
//! that generation lives: repairing a cell simply probes a different key.
//! That makes the cache safely shareable across tuples and across threads;
//! concurrency is an array of shards, each a [`parking_lot::RwLock`]-guarded
//! map, so readers never contend and writers only lock one shard.
//!
//! When the KB *does* change (a [`dr_kb::KbDelta`]), the delta's
//! [`KbFootprint`] names exactly the regions it touched, and
//! [`ValueCache::invalidate`] removes only the entries that read a region
//! it makes stale ([`Region::stale`]): node entries read their schema-node
//! type's region (a class extent or the literal pool), edge entries
//! additionally the `(from instance, predicate)` out-pairs they probed (see
//! [`EdgeEntry`]). Every other entry survives and keeps warm-starting
//! repairs. The same regions go into the reading row's footprint on a hit
//! and on a miss alike.
//!
//! A cache may outlive one relation: the
//! [`CacheRegistry`](crate::repair::registry::CacheRegistry) keys shared
//! caches by (KB generation, schema fingerprint) so consecutive relations of
//! the same schema warm-start. A cache holds every entry it computed until
//! a sweep removes it or the registry drops the whole cache; there is no
//! per-entry budget.

use crate::context::{MatchContext, ReadSet};
use crate::graph::schema::SchemaNode;
use crate::repair::parallel::available_cores;
use crate::repair::read_index::ReadIndex;
use crate::repair::snapshot::SnapshotPayload;
use dr_kb::hash::FxHasher;
use dr_kb::{InstanceId, KbFootprint, Node, PredId, Region};
use dr_obs::{Counter, MetricRegistry};
use parking_lot::RwLock;
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An edge signature: source node, predicate, target node.
pub type EdgeSig = (SchemaNode, PredId, SchemaNode);

/// A cached edge-connectivity answer plus the KB reads that produced it.
///
/// `probed` is the hit-attribution record: the instance from-candidates whose
/// outgoing `rel` edges were actually consulted — the prefix up to and
/// including the first connected one when `ok`, or every instance
/// from-candidate when `!ok`. A delta that does not touch any `(probed[i],
/// rel)` out-pair (nor either endpoint's candidate set) can neither flip `ok`
/// nor change which prefix a recomputation would probe, so the entry is
/// exactly as fresh as its footprint says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeEntry {
    /// Whether some candidate pair is connected.
    pub ok: bool,
    /// Instance from-candidates whose out-edges were consulted.
    pub probed: Vec<InstanceId>,
}

/// A cache key: an element signature, the cell value(s) it was computed
/// for, and the Fx hash of both. A node key holds one value, an edge key
/// its from-value then its to-value. The map and the reverse index share
/// it by `Arc`, so each holds a pointer to one stored key.
struct Key<S>(Arc<KeyData<S>>);

struct KeyData<S> {
    hash: u64,
    sig: S,
    text: Box<str>,
    /// Where the from-value ends in `text` (`text.len()` for a node key).
    split: usize,
}

impl<S> Clone for Key<S> {
    fn clone(&self) -> Self {
        Key(Arc::clone(&self.0))
    }
}

type NodeKey = Key<SchemaNode>;
type EdgeKey = Key<EdgeSig>;

/// A lookup's borrowed key: the probed cells are not copied.
struct Probe<'a, S> {
    hash: u64,
    sig: S,
    from: &'a str,
    to: &'a str,
}

impl<'a, S: Hash + Copy> Probe<'a, S> {
    /// Hashes the probe once: the hash picks the shard and, unchanged,
    /// the map bucket.
    fn new(sig: S, from: &'a str, to: &'a str) -> Self {
        let mut h = FxHasher::default();
        sig.hash(&mut h);
        from.hash(&mut h);
        to.hash(&mut h);
        Self {
            hash: h.finish(),
            sig,
            from,
            to,
        }
    }

    /// The owned key an insert stores.
    fn to_key(&self) -> Key<S> {
        Key(Arc::new(KeyData {
            hash: self.hash,
            sig: self.sig,
            text: [self.from, self.to].concat().into_boxed_str(),
            split: self.from.len(),
        }))
    }
}

/// What key equality compares, for stored keys and borrowed probes alike;
/// a map of [`Key`]s is looked up through `&dyn KeyView`, so a probe
/// neither allocates nor hashes again.
trait KeyView<S> {
    /// `(hash, signature, from-value, to-value)`.
    fn view(&self) -> (u64, &S, &str, &str);
}

impl<S> KeyView<S> for Key<S> {
    fn view(&self) -> (u64, &S, &str, &str) {
        let key = &*self.0;
        let (from, to) = key.text.split_at(key.split);
        (key.hash, &key.sig, from, to)
    }
}

impl<S> KeyView<S> for Probe<'_, S> {
    fn view(&self) -> (u64, &S, &str, &str) {
        (self.hash, &self.sig, self.from, self.to)
    }
}

impl<S: PartialEq> PartialEq for dyn KeyView<S> + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl<S: Eq> Eq for dyn KeyView<S> + '_ {}

impl<S> Hash for dyn KeyView<S> + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.view().0);
    }
}

impl<S: PartialEq> PartialEq for Key<S> {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl<S: Eq> Eq for Key<S> {}

impl<S> Hash for Key<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl<'a, S: 'a> Borrow<dyn KeyView<S> + 'a> for Key<S> {
    fn borrow(&self) -> &(dyn KeyView<S> + 'a) {
        self
    }
}

/// Passes a key's precomputed hash through to the map.
#[derive(Default)]
struct PassHasher(u64);

impl Hasher for PassHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("cache keys hash as their precomputed u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A map of [`Key`]s, bucketed by the keys' own hashes.
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<PassHasher>>;

/// Shards per map: the next power of two of four per available core, at
/// least 16 and at most 256. A power of two keeps the shard pick a mask, and
/// more shards than workers means writers essentially never collide.
fn shard_count() -> usize {
    (4 * available_cores()).next_power_of_two().clamp(16, 256)
}

/// Aggregated cache counters, surfaced through
/// [`RelationReport`](crate::repair::basic::RelationReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Node-candidate lookups answered from the cache.
    pub node_hits: u64,
    /// Node-candidate lookups that had to compute.
    pub node_misses: u64,
    /// Edge-connectivity lookups answered from the cache.
    pub edge_hits: u64,
    /// Edge-connectivity lookups that had to compute.
    pub edge_misses: u64,
    /// Entries preloaded from a disk snapshot when the cache was created
    /// (warm start; `0` on caches that never touched a snapshot).
    pub snapshot_warm: u64,
    /// `1` when a snapshot was looked for but none was usable (missing,
    /// corrupt, or key-mismatched) — the cache started cold.
    pub snapshot_cold: u64,
}

impl CacheStats {
    /// Total lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.node_hits + self.edge_hits
    }

    /// Total lookups that computed fresh results.
    pub fn misses(&self) -> u64 {
        self.node_misses + self.edge_misses
    }

    /// Fraction of lookups answered from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Counter deltas since an `earlier` snapshot of the same cache. Used
    /// by repairers sharing a persistent (registry-owned) cache so one
    /// relation's report only covers its own lookups.
    #[must_use]
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            node_hits: self.node_hits.saturating_sub(earlier.node_hits),
            node_misses: self.node_misses.saturating_sub(earlier.node_misses),
            edge_hits: self.edge_hits.saturating_sub(earlier.edge_hits),
            edge_misses: self.edge_misses.saturating_sub(earlier.edge_misses),
            snapshot_warm: self.snapshot_warm.saturating_sub(earlier.snapshot_warm),
            snapshot_cold: self.snapshot_cold.saturating_sub(earlier.snapshot_cold),
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    /// Counter-wise accumulation — used by experiment harnesses summing
    /// per-table reports into one row.
    fn add_assign(&mut self, rhs: Self) {
        self.node_hits += rhs.node_hits;
        self.node_misses += rhs.node_misses;
        self.edge_hits += rhs.edge_hits;
        self.edge_misses += rhs.edge_misses;
        self.snapshot_warm += rhs.snapshot_warm;
        self.snapshot_cold += rhs.snapshot_cold;
    }
}

/// Whether any candidate pair of `(from, to)` is connected by `rel` in the
/// KB, plus the probed-instance record an [`EdgeEntry`] stores: the
/// out-pairs `(probed[i], rel)` are the edge reads the answer rests on.
pub(crate) fn edge_probe(
    ctx: &MatchContext<'_>,
    from_cands: &[Node],
    rel: PredId,
    to_cands: &[Node],
) -> (bool, Vec<InstanceId>) {
    let to_set: dr_kb::FxHashSet<Node> = to_cands.iter().copied().collect();
    let mut probed = Vec::new();
    for &f in from_cands {
        if let Node::Instance(i) = f {
            probed.push(i);
            if ctx.kb().objects(i, rel).iter().any(|o| to_set.contains(o)) {
                return (true, probed);
            }
        }
    }
    (false, probed)
}

/// The regions an edge entry read: both endpoint types and every probed
/// out-pair.
fn edge_reads(
    (from, rel, to): EdgeSig,
    probed: &[InstanceId],
) -> impl Iterator<Item = Region> + '_ {
    std::iter::once(from.ty.region())
        .chain((to.ty != from.ty).then_some(to.ty.region()))
        .chain(probed.iter().map(move |&i| Region::Out(i, rel)))
}

/// A cache key that names the KB regions its entry was computed from. An
/// entry is stale under a delta exactly when one of its regions is
/// ([`Region::stale`]).
trait Reads<V> {
    /// The regions the entry `(self, value)` read.
    fn reads<'a>(&'a self, value: &'a V) -> impl Iterator<Item = Region> + 'a;

    fn stale(&self, value: &V, fp: &KbFootprint) -> bool {
        self.reads(value).any(|region| region.stale(fp))
    }
}

impl Reads<Arc<Vec<Node>>> for NodeKey {
    fn reads<'a>(&'a self, _: &'a Arc<Vec<Node>>) -> impl Iterator<Item = Region> + 'a {
        std::iter::once(self.0.sig.ty.region())
    }
}

impl Reads<EdgeEntry> for EdgeKey {
    fn reads<'a>(&'a self, entry: &'a EdgeEntry) -> impl Iterator<Item = Region> + 'a {
        edge_reads(self.0.sig, &entry.probed)
    }
}

/// Indexes every entry of `map` by the regions it read (one full scan).
fn build_index<K: Clone + Reads<V>, V>(map: &KeyMap<K, V>) -> ReadIndex<K> {
    let mut index = ReadIndex::default();
    for (key, value) in map {
        index.add(key, key.reads(value));
    }
    index
}

/// One lock's worth of a cache map.
///
/// The map and the reverse index share each key by `Arc`.
struct Shard<K, V> {
    map: KeyMap<K, V>,
    /// Region → entries reverse index, built by the shard's first sweep. A
    /// shard that is never swept carries none.
    reads: Option<ReadIndex<K>>,
}

impl<K: Clone + Hash + Eq + Reads<V>, V> Shard<K, V> {
    fn new() -> Self {
        Self {
            map: KeyMap::default(),
            reads: None,
        }
    }

    /// Removes `key`'s entry, keeping the reverse index's live count.
    fn remove(&mut self, key: &K) -> bool {
        let Some((key, value)) = self.map.remove_entry(key) else {
            return false;
        };
        if let Some(reads) = &mut self.reads {
            reads.forget(key.reads(&value).count());
        }
        true
    }

    /// Inserts `value` under `key` unless present (first insert wins),
    /// returning a reference to the winning value.
    fn insert(&mut self, key: K, value: V) -> &V {
        match self.map.entry(key) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                if let Some(reads) = &mut self.reads {
                    reads.add(v.key(), v.key().reads(&value));
                }
                v.insert(value)
            }
        }
    }

    /// Removes every entry that read a region `fp` makes stale and returns
    /// how many were removed, in O(entries reached) after the first call
    /// (which builds the reverse index with one full scan).
    fn sweep(&mut self, fp: &KbFootprint) -> u64 {
        let map = &self.map;
        let reads = self.reads.get_or_insert_with(|| build_index(map));
        let reached = reads.take_stale(fp);
        let mut removed = 0;
        for key in reached {
            let stale = self.map.get(&key).is_some_and(|v| key.stale(v, fp));
            if stale && self.remove(&key) {
                removed += 1;
            }
        }
        if self.reads.as_ref().is_some_and(ReadIndex::needs_rebuild) {
            self.reads = Some(build_index(&self.map));
        }
        removed
    }

    /// Counts the entries that read a region `fp` makes stale, by a full
    /// scan: the oracle the indexed [`Shard::sweep`] is tested against.
    fn count_stale(&self, fp: &KbFootprint) -> u64 {
        self.map.iter().filter(|(k, v)| k.stale(v, fp)).count() as u64
    }
}

/// A relation-scoped (or, via the registry, schema-scoped), thread-safe
/// element cache keyed by cell values.
pub struct ValueCache {
    nodes: Vec<RwLock<Shard<NodeKey, Arc<Vec<Node>>>>>,
    edges: Vec<RwLock<Shard<EdgeKey, EdgeEntry>>>,
    mask: usize,
    /// The KB generation a registry cache answers for (see
    /// [`ValueCache::serves`]); `0` for a relation-scoped cache, which is
    /// never checked.
    generation: AtomicU64,
    // Counters are `dr_obs::Counter` cells so an attached observability
    // registry can expose the *same* storage the report columns read —
    // `stats()` is a view, not a copy kept in sync by hand.
    node_hits: Counter,
    node_misses: Counter,
    edge_hits: Counter,
    edge_misses: Counter,
    snapshot_warm: Counter,
    snapshot_cold: Counter,
}

impl Default for ValueCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueCache {
    /// An empty cache that serves every context.
    pub fn new() -> Self {
        Self::for_generation(0)
    }

    /// An empty cache that answers only for contexts over KB generation
    /// `generation` — how the registry creates its caches.
    pub(crate) fn for_generation(generation: u64) -> Self {
        let shards = shard_count();
        Self {
            nodes: (0..shards).map(|_| RwLock::new(Shard::new())).collect(),
            edges: (0..shards).map(|_| RwLock::new(Shard::new())).collect(),
            mask: shards - 1,
            generation: AtomicU64::new(generation),
            node_hits: Counter::new(),
            node_misses: Counter::new(),
            edge_hits: Counter::new(),
            edge_misses: Counter::new(),
            snapshot_warm: Counter::new(),
            snapshot_cold: Counter::new(),
        }
    }

    /// The shard of a key hashing to `hash`: bits from the upper half,
    /// which neither a map's bucket index (the low bits) nor its control
    /// tag (the top seven) is taken from.
    fn shard(&self, hash: u64) -> usize {
        (hash >> 32) as usize & self.mask
    }

    /// Attaches this cache's hit/miss cells to `metrics` under the
    /// `value_cache_*` metric names (snapshot tallies stay report-only). Idempotent: repeated registration of
    /// the same cache adds nothing, and several caches registered under
    /// the same registry sum into one exposition line per metric.
    pub fn register_metrics(&self, metrics: &MetricRegistry) {
        metrics.register_counter("value_cache_node_hits_total", &[], &self.node_hits);
        metrics.register_counter("value_cache_node_misses_total", &[], &self.node_misses);
        metrics.register_counter("value_cache_edge_hits_total", &[], &self.edge_hits);
        metrics.register_counter("value_cache_edge_misses_total", &[], &self.edge_misses);
    }

    /// Total live entries across both maps (counts, not bytes).
    pub fn len(&self) -> usize {
        self.nodes.iter().map(|s| s.read().map.len()).sum::<usize>()
            + self.edges.iter().map(|s| s.read().map.len()).sum::<usize>()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidates of `node` against `value`, memoized by `(node, value)`.
    pub fn candidates(
        &self,
        ctx: &MatchContext<'_>,
        node: &SchemaNode,
        value: &str,
    ) -> Arc<Vec<Node>> {
        self.candidates_with_outcome(ctx, node, value).0
    }

    /// Like [`ValueCache::candidates`], also reporting whether the lookup
    /// was answered from the cache (`true` = hit). Used by the per-tuple
    /// overlay to attribute hit/miss source levels in traces. A hit and a
    /// miss both read `node.ty`'s region, which the overlay records.
    pub fn candidates_with_outcome(
        &self,
        ctx: &MatchContext<'_>,
        node: &SchemaNode,
        value: &str,
    ) -> (Arc<Vec<Node>>, bool) {
        let probe = Probe::new(*node, value, "");
        let shard = &self.nodes[self.shard(probe.hash)];
        let hit = if self.serves(ctx) {
            let key: &dyn KeyView<_> = &probe;
            shard.read().map.get(key).map(Arc::clone)
        } else {
            None
        };
        if let Some(cands) = hit {
            self.node_hits.inc();
            return (cands, true);
        }
        self.node_misses.inc();
        // Compute outside the lock; a racing writer wastes work but stays
        // correct (the lookup is a pure function of the KB) — first insert
        // wins, everyone returns the same candidates.
        let cands = Arc::new(ctx.candidates(node.ty, node.sim, value));
        let mut guard = shard.write();
        if !self.serves(ctx) {
            return (cands, false);
        }
        (Arc::clone(guard.insert(probe.to_key(), cands)), false)
    }

    /// Whether some candidate pair of `(from, to)` is connected by `rel`,
    /// memoized by `(edge signature, from-value, to-value)`.
    pub fn edge_ok(
        &self,
        ctx: &MatchContext<'_>,
        from: &SchemaNode,
        rel: PredId,
        to: &SchemaNode,
        from_value: &str,
        to_value: &str,
    ) -> bool {
        let sig = (*from, rel, *to);
        self.edge_ok_with_outcome(ctx, sig, from_value, to_value, &mut ReadSet::default())
            .0
    }

    /// Like [`ValueCache::edge_ok`] on `sig`, also reporting whether the
    /// check was answered from the cache (`true` = hit), and recording the
    /// regions the answer rests on into `reads`, the same on a hit as on
    /// a miss.
    pub(crate) fn edge_ok_with_outcome(
        &self,
        ctx: &MatchContext<'_>,
        sig: EdgeSig,
        from_value: &str,
        to_value: &str,
        reads: &mut ReadSet,
    ) -> (bool, bool) {
        let probe = Probe::new(sig, from_value, to_value);
        let shard = &self.edges[self.shard(probe.hash)];
        if self.serves(ctx) {
            let guard = shard.read();
            let key: &dyn KeyView<_> = &probe;
            if let Some(entry) = guard.map.get(key) {
                self.edge_hits.inc();
                edge_reads(sig, &entry.probed).for_each(|region| reads.record(region));
                return (entry.ok, true);
            }
        }
        self.edge_misses.inc();
        let (from, rel, to) = sig;
        let from_cands = self.candidates(ctx, &from, from_value);
        let to_cands = self.candidates(ctx, &to, to_value);
        let (ok, probed) = edge_probe(ctx, &from_cands, rel, &to_cands);
        edge_reads(sig, &probed).for_each(|region| reads.record(region));
        let mut guard = shard.write();
        if !self.serves(ctx) {
            return (ok, false);
        }
        guard.insert(probe.to_key(), EdgeEntry { ok, probed });
        (ok, false)
    }

    /// Whether lookups through `ctx` may read and fill this cache. A
    /// relation-scoped cache (generation `0`) serves every context; a
    /// registry cache serves only contexts over the KB generation it was
    /// created for or migrated to. A context over any other generation — a
    /// request still running on the KB a delta replaced — computes its
    /// answers directly, so it can neither read entries of the new KB nor
    /// leave answers of the old one behind.
    fn serves(&self, ctx: &MatchContext<'_>) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        generation == 0 || generation == ctx.kb().generation()
    }

    /// Moves a registry cache to KB generation `to` across a delta with
    /// write footprint `fp`, returning how many entries were swept.
    ///
    /// The cache serves no generation while the sweep runs. Lookups check
    /// the generation before they read and again under the shard lock
    /// before they insert, so an answer computed on the old KB either lands
    /// before the sweep reaches its shard (and is swept if stale) or is
    /// dropped.
    pub(crate) fn migrate(&self, fp: &KbFootprint, to: u64) -> u64 {
        self.generation.store(u64::MAX, Ordering::Release);
        let removed = self.invalidate(fp);
        self.generation.store(to, Ordering::Release);
        removed
    }

    /// Removes every entry that read a region `fp` (the footprint of an
    /// applied [`dr_kb::KbDelta`]) makes stale, returning how many entries
    /// were dropped. Everything else survives the delta.
    ///
    /// The cost is that of the entries the footprint reaches: each shard
    /// keeps a reverse index from KB region to entries, built by its first
    /// sweep. A footprint without a class or literal region skips the node
    /// entries outright: those sort first, so its first region tells.
    pub fn invalidate(&self, fp: &KbFootprint) -> u64 {
        if fp.is_empty() {
            return 0;
        }
        let mut removed = 0u64;
        if !matches!(fp.regions()[0], Region::Out(..) | Region::In(..)) {
            for shard in &self.nodes {
                removed += shard.write().sweep(fp);
            }
        }
        for shard in &self.edges {
            removed += shard.write().sweep(fp);
        }
        removed
    }

    /// Counts the entries [`ValueCache::invalidate`] would drop for `fp`,
    /// without dropping them — the staleness-soundness suites use this to
    /// assert that no stale entry survives an invalidation pass.
    pub fn count_stale(&self, fp: &KbFootprint) -> u64 {
        if fp.is_empty() {
            return 0;
        }
        let nodes: u64 = self.nodes.iter().map(|s| s.read().count_stale(fp)).sum();
        let edges: u64 = self.edges.iter().map(|s| s.read().count_stale(fp)).sum();
        nodes + edges
    }

    /// Snapshot of the hit/miss and snapshot counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            node_hits: self.node_hits.get(),
            node_misses: self.node_misses.get(),
            edge_hits: self.edge_hits.get(),
            edge_misses: self.edge_misses.get(),
            snapshot_warm: self.snapshot_warm.get(),
            snapshot_cold: self.snapshot_cold.get(),
        }
    }

    // ----- disk snapshots (DESIGN.md §4a, level 0 persistence) -----------

    /// Exports every entry as a portable [`SnapshotPayload`].
    pub fn export(&self) -> SnapshotPayload {
        let mut payload = SnapshotPayload::default();
        for shard in &self.nodes {
            for (key, cands) in &shard.read().map {
                let (_, sn, value, _) = key.view();
                payload
                    .nodes
                    .push((*sn, value.to_owned(), (**cands).clone()));
            }
        }
        for shard in &self.edges {
            for (key, entry) in &shard.read().map {
                let (_, sig, from, to) = key.view();
                payload.edges.push((
                    *sig,
                    from.to_owned(),
                    to.to_owned(),
                    entry.ok,
                    entry.probed.clone(),
                ));
            }
        }
        payload
    }

    /// Seeds the cache from a decoded snapshot, returning how many entries
    /// were installed. First insert wins, exactly like live lookups.
    /// Advances the `snapshot_warm` counter.
    pub fn import(&self, payload: &SnapshotPayload) -> usize {
        let mut imported = 0usize;
        for (sn, value, cands) in &payload.nodes {
            let probe = Probe::new(*sn, value, "");
            let shard = &self.nodes[self.shard(probe.hash)];
            shard
                .write()
                .insert(probe.to_key(), Arc::new(cands.clone()));
            imported += 1;
        }
        for (sig, from, to, ok, probed) in &payload.edges {
            let probe = Probe::new(*sig, from, to);
            let shard = &self.edges[self.shard(probe.hash)];
            let entry = EdgeEntry {
                ok: *ok,
                probed: probed.clone(),
            };
            shard.write().insert(probe.to_key(), entry);
            imported += 1;
        }
        self.snapshot_warm.add(imported as u64);
        imported
    }

    /// Records that a snapshot was looked for and none was usable — the
    /// cache starts cold. Surfaces as `snapshot_cold` in [`CacheStats`].
    pub fn mark_snapshot_cold(&self) {
        self.snapshot_cold.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::nobel_schema;
    use crate::graph::schema::NodeType;
    use dr_kb::fixtures::{names, nobel_mini_kb};
    use dr_simmatch::SimFn;

    fn city_node(kb: &dr_kb::KnowledgeBase) -> SchemaNode {
        SchemaNode::new(
            nobel_schema().attr_expect("City"),
            NodeType::Class(kb.class_named(names::CITY).unwrap()),
            SimFn::Equal,
        )
    }

    #[test]
    fn value_keyed_entries_survive_value_changes() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let cache = ValueCache::new();
        let node = city_node(&kb);
        let a = cache.candidates(&ctx, &node, "Haifa");
        assert_eq!(a.len(), 1);
        // A different value is a different key — no invalidation involved.
        let b = cache.candidates(&ctx, &node, "Karcag");
        assert_eq!(kb.node_value(b[0]), "Karcag");
        // Probing the first value again hits.
        let again = cache.candidates(&ctx, &node, "Haifa");
        assert!(Arc::ptr_eq(&a, &again));
        assert_eq!(cache.stats().node_hits, 1);
        assert_eq!(cache.stats().node_misses, 2);
    }

    #[test]
    fn edge_checks_memoize_per_value_pair() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let cache = ValueCache::new();
        let name = SchemaNode::new(
            schema.attr_expect("Name"),
            NodeType::Class(kb.class_named(names::LAUREATE).unwrap()),
            SimFn::Equal,
        );
        let inst = SchemaNode::new(
            schema.attr_expect("Institution"),
            NodeType::Class(kb.class_named(names::ORGANIZATION).unwrap()),
            SimFn::EditDistance(2),
        );
        let works_at = kb.pred_named(names::WORKS_AT).unwrap();
        assert!(cache.edge_ok(
            &ctx,
            &name,
            works_at,
            &inst,
            "Avram Hershko",
            "Israel Institute of Technology",
        ));
        assert!(cache.edge_ok(
            &ctx,
            &name,
            works_at,
            &inst,
            "Avram Hershko",
            "Israel Institute of Technology",
        ));
        let stats = cache.stats();
        assert_eq!((stats.edge_hits, stats.edge_misses), (1, 1));
        // The edge miss pulled both endpoint candidate sets into the cache.
        assert_eq!(stats.node_misses, 2);
    }

    #[test]
    fn shared_across_threads() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let cache = ValueCache::new();
        let node = city_node(&kb);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        assert_eq!(cache.candidates(&ctx, &node, "Haifa").len(), 1);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.node_hits + stats.node_misses, 32);
        // At least one lookup computed, and most were hits.
        assert!(stats.node_misses >= 1);
        assert!(stats.node_hits >= 32 - 4);
    }

    #[test]
    fn hit_rate_is_well_defined() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        let stats = CacheStats {
            node_hits: 3,
            node_misses: 1,
            ..Default::default()
        };
        assert_eq!(stats.hit_rate(), 0.75);
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let earlier = CacheStats {
            node_hits: 5,
            node_misses: 2,
            edge_hits: 1,
            edge_misses: 1,
            snapshot_warm: 10,
            snapshot_cold: 1,
        };
        let later = CacheStats {
            node_hits: 9,
            node_misses: 2,
            edge_hits: 4,
            edge_misses: 2,
            snapshot_warm: 10,
            snapshot_cold: 1,
        };
        let d = later.delta_since(&earlier);
        assert_eq!(
            d,
            CacheStats {
                node_hits: 4,
                node_misses: 0,
                edge_hits: 3,
                edge_misses: 1,
                snapshot_warm: 0,
                snapshot_cold: 0,
            }
        );
    }

    /// Export → import into a fresh cache turns every exported key into a
    /// hit, and the importer's counters say how it was warmed.
    #[test]
    fn export_import_roundtrip_warms_a_fresh_cache() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let donor = ValueCache::new();
        let node = city_node(&kb);
        let a = donor.candidates(&ctx, &node, "Haifa");
        let b = donor.candidates(&ctx, &node, "Karcag");
        let payload = donor.export();
        assert_eq!(payload.nodes.len(), 2);

        let fresh = ValueCache::new();
        assert_eq!(fresh.import(&payload), 2);
        let x = fresh.candidates(&ctx, &node, "Haifa");
        let y = fresh.candidates(&ctx, &node, "Karcag");
        assert_eq!(*x, *a);
        assert_eq!(*y, *b);
        let stats = fresh.stats();
        assert_eq!(stats.node_hits, 2, "imported entries answer as hits");
        assert_eq!(stats.node_misses, 0);
        assert_eq!(stats.snapshot_warm, 2);
        assert_eq!(stats.snapshot_cold, 0);
    }

    #[test]
    fn mark_snapshot_cold_sets_the_counter() {
        let cache = ValueCache::new();
        cache.mark_snapshot_cold();
        assert_eq!(cache.stats().snapshot_cold, 1);
        assert_eq!(cache.stats().snapshot_warm, 0);
    }

    /// A footprint that touches the class a node entry depends on drops
    /// exactly that entry; an unrelated footprint drops nothing.
    #[test]
    fn invalidate_drops_only_intersecting_entries() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let cache = ValueCache::new();
        let node = city_node(&kb);
        let _ = cache.candidates(&ctx, &node, "Haifa");
        assert_eq!(cache.len(), 1);

        let other: KbFootprint = [Region::Class(kb.class_named(names::COUNTRY).unwrap())]
            .into_iter()
            .collect();
        assert_eq!(cache.count_stale(&other), 0);
        assert_eq!(cache.invalidate(&other), 0);
        assert_eq!(cache.len(), 1, "unrelated delta leaves the entry warm");

        let hit: KbFootprint = [Region::Class(kb.class_named(names::CITY).unwrap())]
            .into_iter()
            .collect();
        assert_eq!(cache.count_stale(&hit), 1);
        assert_eq!(cache.invalidate(&hit), 1);
        assert!(cache.is_empty());
        // The dropped entry recomputes as a miss on the next probe.
        let _ = cache.candidates(&ctx, &node, "Haifa");
        assert_eq!(cache.stats().node_misses, 2);
    }

    /// Edge entries go stale when a delta touches an out-pair they probed,
    /// even if neither endpoint's candidate set changed.
    #[test]
    fn edge_entries_invalidate_on_probed_out_pairs() {
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let cache = ValueCache::new();
        let name = SchemaNode::new(
            schema.attr_expect("Name"),
            NodeType::Class(kb.class_named(names::LAUREATE).unwrap()),
            SimFn::Equal,
        );
        let inst = SchemaNode::new(
            schema.attr_expect("Institution"),
            NodeType::Class(kb.class_named(names::ORGANIZATION).unwrap()),
            SimFn::EditDistance(2),
        );
        let works_at = kb.pred_named(names::WORKS_AT).unwrap();
        assert!(cache.edge_ok(
            &ctx,
            &name,
            works_at,
            &inst,
            "Avram Hershko",
            "Israel Institute of Technology",
        ));
        let hershko = kb.instances_labeled("Avram Hershko")[0];
        let fp: KbFootprint = [Region::Out(hershko, works_at)].into_iter().collect();
        // Only the edge entry probed (hershko, worksAt); the two node
        // entries depend on class extents, which this delta leaves alone.
        assert_eq!(cache.count_stale(&fp), 1);
        assert_eq!(cache.invalidate(&fp), 1);
        assert_eq!(cache.len(), 2);
    }

    /// A lookup the shared cache answers records the same regions in the
    /// tuple's read set as the miss that computed it, so per-row
    /// footprints stay sound on warm paths.
    #[test]
    fn hits_record_footprints_like_misses() {
        use crate::repair::cache::ElementCache;
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let cache = ValueCache::new();
        let city = city_node(&kb);
        let name = SchemaNode::new(
            schema.attr_expect("Name"),
            NodeType::Class(kb.class_named(names::LAUREATE).unwrap()),
            SimFn::Equal,
        );
        let works_at = kb.pred_named(names::WORKS_AT).unwrap();
        let inst = SchemaNode::new(
            schema.attr_expect("Institution"),
            NodeType::Class(kb.class_named(names::ORGANIZATION).unwrap()),
            SimFn::EditDistance(2),
        );
        let tuple = crate::fixtures::table1_dirty().tuple(0).clone();
        let footprint = || {
            let mut overlay = ElementCache::with_shared(&cache);
            overlay.reads = ReadSet::recording();
            let _ = overlay.candidates(&ctx, &tuple, &city);
            assert!(overlay.edge_ok(&ctx, &tuple, &name, works_at, &inst));
            (overlay.reads.take().unwrap(), overlay.level_stats())
        };
        let (cold, cold_stats) = footprint();
        let (warm, warm_stats) = footprint();
        assert_eq!(cold_stats.shared_hits, 0);
        assert_eq!(warm_stats.shared_misses, 0, "the second pass only hits");
        assert!(warm.contains(Region::Class(kb.class_named(names::CITY).unwrap())));
        assert_eq!(warm, cold);
    }
}
