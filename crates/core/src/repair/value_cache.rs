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
//! [`ValueCache::invalidate`] removes only the entries whose recorded reads
//! intersect it: node entries depend on their schema-node type (a class
//! extent or the literal pool), edge entries additionally on the `(from
//! instance, predicate)` out-pairs they probed (see [`EdgeEntry`]). Every
//! other entry survives and keeps warm-starting repairs.
//!
//! A cache may outlive one relation: the
//! [`CacheRegistry`](crate::repair::registry::CacheRegistry) keys shared
//! caches by (KB generation, schema fingerprint) so consecutive relations of
//! the same schema warm-start. A cache holds every entry it computed until
//! a sweep removes it or the registry drops the whole cache; there is no
//! per-entry budget.

use crate::context::MatchContext;
use crate::graph::schema::{NodeType, SchemaNode};
use crate::repair::snapshot::SnapshotPayload;
use dr_kb::{FxHashMap, InstanceId, KbFootprint, Node, PredId};
use dr_obs::{Counter, MetricRegistry};
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

type NodeKey = (SchemaNode, String);
type EdgeKey = (EdgeSig, String, String);

/// Shards per map: the next power of two of four per available core, at
/// least 16 and at most 256. A power of two keeps the shard pick a mask, and
/// more shards than workers means writers essentially never collide. The
/// core count is read once per process: reading it opens cgroup files, and
/// a relation-scoped cache is created per repair.
fn shard_count() -> usize {
    static SHARDS: OnceLock<usize> = OnceLock::new();
    *SHARDS.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        (4 * cores).next_power_of_two().clamp(16, 256)
    })
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
/// KB. Shared by the per-tuple and relation-scoped caches.
pub(crate) fn edge_connected(
    ctx: &MatchContext<'_>,
    from_cands: &[Node],
    rel: PredId,
    to_cands: &[Node],
) -> bool {
    edge_probe(ctx, from_cands, rel, to_cands).0
}

/// [`edge_connected`] plus the probed-instance record an [`EdgeEntry`]
/// stores. Out-edge reads go through the context, so an attached
/// [`FootprintRecorder`](crate::context::FootprintRecorder) sees each probe.
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
            if ctx.kb_objects(i, rel).iter().any(|o| to_set.contains(o)) {
                return (true, probed);
            }
        }
    }
    (false, probed)
}

/// Whether a delta footprint invalidates a dependency on `ty`'s extent —
/// the one staleness rule for node entries, edge endpoints and the
/// registry's per-generation match indexes.
pub(crate) fn ty_stale(fp: &KbFootprint, ty: NodeType) -> bool {
    match ty {
        NodeType::Class(c) => fp.touches_class(c),
        NodeType::Literal => fp.literals,
    }
}

/// Whether a delta footprint can make any type's extent stale; when it
/// cannot, a sweep skips every node entry.
fn touches_types(fp: &KbFootprint) -> bool {
    fp.all_classes || fp.literals || !fp.classes.is_empty()
}

/// Whether a delta footprint invalidates a cached edge entry.
fn edge_stale(fp: &KbFootprint, sig: &EdgeSig, entry: &EdgeEntry) -> bool {
    let (from, rel, to) = sig;
    ty_stale(fp, from.ty)
        || ty_stale(fp, to.ty)
        || entry
            .probed
            .iter()
            .any(|&f| fp.out_pairs.contains(&(f, *rel)))
}

/// One KB region a cached answer was computed from.
#[derive(Debug, Clone, Copy)]
enum Dep {
    /// The extent of a schema-node type (a class, or the literal pool).
    Ty(NodeType),
    /// The out-edges `(instance, pred, *)`.
    Out(InstanceId, PredId),
}

/// A cache key that names the KB regions its entry was computed from. An
/// entry is stale under a delta exactly when one of its regions is:
/// [`ty_stale`] for a type, membership in `out_pairs` for an out-pair —
/// the same rule [`edge_stale`] spells out for the full-scan oracle.
trait Reads<V> {
    /// Calls `f` with each region the entry `(self, value)` read.
    fn reads(&self, value: &V, f: impl FnMut(Dep));

    fn stale(&self, value: &V, fp: &KbFootprint) -> bool {
        let mut stale = false;
        self.reads(value, |dep| {
            stale |= match dep {
                Dep::Ty(ty) => ty_stale(fp, ty),
                Dep::Out(s, p) => fp.out_pairs.contains(&(s, p)),
            }
        });
        stale
    }

    fn read_count(&self, value: &V) -> usize {
        let mut n = 0;
        self.reads(value, |_| n += 1);
        n
    }
}

impl Reads<Arc<Vec<Node>>> for NodeKey {
    fn reads(&self, _: &Arc<Vec<Node>>, mut f: impl FnMut(Dep)) {
        f(Dep::Ty(self.0.ty));
    }
}

impl Reads<EdgeEntry> for EdgeKey {
    fn reads(&self, entry: &EdgeEntry, mut f: impl FnMut(Dep)) {
        let ((from, rel, to), _, _) = self;
        f(Dep::Ty(from.ty));
        if to.ty != from.ty {
            f(Dep::Ty(to.ty));
        }
        for &i in &entry.probed {
            f(Dep::Out(i, *rel));
        }
    }
}

/// Lazily removed index references a shard tolerates beyond twice its live
/// count before it rebuilds the index.
const LAZY_SLACK: usize = 64;

/// A shard's reverse index from KB region to the entries that read it, so
/// a sweep reaches the entries a footprint can make stale without scanning
/// the rest.
///
/// Removal is lazy: an entry that leaves the map keeps its references
/// under the regions a sweep did not visit, and a sweep re-checks every
/// entry it reaches against the footprint before removing it. `refs`
/// counts the references held and `live` those the entries still in the
/// map account for; once dead references outnumber live ones (plus
/// [`LAZY_SLACK`]) the index is rebuilt from the map.
struct ReadIndex<K> {
    by_ty: FxHashMap<NodeType, Vec<Arc<K>>>,
    by_out: FxHashMap<(InstanceId, PredId), Vec<Arc<K>>>,
    refs: usize,
    live: usize,
}

impl<K> ReadIndex<K> {
    /// Indexes every entry of `map` (one full scan).
    fn build<V>(map: &FxHashMap<Arc<K>, V>) -> Self
    where
        K: Reads<V>,
    {
        let mut index = Self {
            by_ty: FxHashMap::default(),
            by_out: FxHashMap::default(),
            refs: 0,
            live: 0,
        };
        for (key, value) in map {
            index.add(key, value);
        }
        index
    }

    fn add<V>(&mut self, key: &Arc<K>, value: &V)
    where
        K: Reads<V>,
    {
        let mut added = 0;
        key.reads(value, |dep| {
            let list = match dep {
                Dep::Ty(ty) => self.by_ty.entry(ty).or_default(),
                Dep::Out(s, p) => self.by_out.entry((s, p)).or_default(),
            };
            list.push(Arc::clone(key));
            added += 1;
        });
        self.refs += added;
        self.live += added;
    }

    /// Drains the reference lists of every region `fp` makes stale. Types
    /// are few per shard, so the type lists are filtered whole; out-pairs
    /// are looked up one by one.
    fn take_stale(&mut self, fp: &KbFootprint) -> Vec<Arc<K>> {
        let mut out = Vec::new();
        if touches_types(fp) {
            self.by_ty.retain(|&ty, keys| {
                let stale = ty_stale(fp, ty);
                if stale {
                    out.append(keys);
                }
                !stale
            });
        }
        if !self.by_out.is_empty() {
            for pair in &fp.out_pairs {
                if let Some(keys) = self.by_out.remove(pair) {
                    out.extend(keys);
                }
            }
        }
        self.refs -= out.len();
        out
    }

    fn needs_rebuild(&self) -> bool {
        self.refs > 2 * self.live + LAZY_SLACK
    }
}

/// One lock's worth of a cache map.
///
/// Keys are `Arc`-shared between the map and the reverse index, so each
/// key's cell values are stored once.
struct Shard<K, V> {
    map: FxHashMap<Arc<K>, V>,
    /// Region → entries reverse index, built by the shard's first sweep. A
    /// shard that is never swept carries none.
    reads: Option<ReadIndex<K>>,
}

impl<K: Hash + Eq + Reads<V>, V> Shard<K, V> {
    fn new() -> Self {
        Self {
            map: FxHashMap::default(),
            reads: None,
        }
    }

    /// Removes `key`'s entry, keeping the reverse index's live count.
    fn remove(&mut self, key: &K) -> bool {
        let Some((key, value)) = self.map.remove_entry(key) else {
            return false;
        };
        if let Some(reads) = &mut self.reads {
            reads.live -= key.read_count(&value);
        }
        true
    }

    /// Inserts `value` under `key` unless present (first insert wins),
    /// returning a reference to the winning value.
    fn insert(&mut self, key: K, value: V) -> &V {
        match self.map.entry(Arc::new(key)) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                if let Some(reads) = &mut self.reads {
                    reads.add(v.key(), &value);
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
        let reads = self.reads.get_or_insert_with(|| ReadIndex::build(map));
        let reached = reads.take_stale(fp);
        let mut removed = 0;
        for key in reached {
            let stale = self.map.get(&*key).is_some_and(|v| key.stale(v, fp));
            if stale && self.remove(&key) {
                removed += 1;
            }
        }
        if self.reads.as_ref().is_some_and(ReadIndex::needs_rebuild) {
            self.reads = Some(ReadIndex::build(&self.map));
        }
        removed
    }

    /// Counts the entries for which `stale` holds — the full-scan oracle
    /// the indexed [`Shard::sweep`] is tested against.
    fn count_matching(&self, mut stale: impl FnMut(&K, &V) -> bool) -> u64 {
        self.map.iter().filter(|(k, v)| stale(k, v)).count() as u64
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

fn hash_of<K: Hash>(key: &K) -> usize {
    let mut h = std::hash::DefaultHasher::new();
    key.hash(&mut h);
    h.finish() as usize
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
    /// overlay to attribute hit/miss source levels in traces.
    pub fn candidates_with_outcome(
        &self,
        ctx: &MatchContext<'_>,
        node: &SchemaNode,
        value: &str,
    ) -> (Arc<Vec<Node>>, bool) {
        let key = (*node, value.to_owned());
        let shard = &self.nodes[hash_of(&key) & self.mask];
        let hit = if self.serves(ctx) {
            shard.read().map.get(&key).map(Arc::clone)
        } else {
            None
        };
        if let Some(cands) = hit {
            self.node_hits.inc();
            // A cached answer still *depends* on the KB region it was
            // computed from — record it so per-row footprints stay sound.
            if let Some(rec) = ctx.recorder() {
                rec.record_ty(node.ty);
            }
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
        (Arc::clone(guard.insert(key, cands)), false)
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
        self.edge_ok_with_outcome(ctx, from, rel, to, from_value, to_value)
            .0
    }

    /// Like [`ValueCache::edge_ok`], also reporting whether the check was
    /// answered from the cache (`true` = hit).
    pub fn edge_ok_with_outcome(
        &self,
        ctx: &MatchContext<'_>,
        from: &SchemaNode,
        rel: PredId,
        to: &SchemaNode,
        from_value: &str,
        to_value: &str,
    ) -> (bool, bool) {
        let sig = (*from, rel, *to);
        let key = (sig, from_value.to_owned(), to_value.to_owned());
        let shard = &self.edges[hash_of(&key) & self.mask];
        if self.serves(ctx) {
            let guard = shard.read();
            if let Some(entry) = guard.map.get(&key) {
                self.edge_hits.inc();
                // Replay the entry's recorded reads into the row's
                // footprint: endpoint candidate sets plus every out-pair
                // the original computation probed.
                if let Some(rec) = ctx.recorder() {
                    rec.record_ty(from.ty);
                    rec.record_ty(to.ty);
                    for &f in &entry.probed {
                        rec.record_out_pair(f, rel);
                    }
                }
                return (entry.ok, true);
            }
        }
        self.edge_misses.inc();
        let from_cands = self.candidates(ctx, from, from_value);
        let to_cands = self.candidates(ctx, to, to_value);
        let (ok, probed) = edge_probe(ctx, &from_cands, rel, &to_cands);
        let mut guard = shard.write();
        if !self.serves(ctx) {
            return (ok, false);
        }
        guard.insert(key, EdgeEntry { ok, probed });
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

    /// Removes every entry whose recorded KB reads intersect `fp` (the
    /// footprint of an applied [`dr_kb::KbDelta`]), returning how many
    /// entries were dropped. Everything else survives the delta.
    ///
    /// The cost is that of the entries the footprint reaches: each shard
    /// keeps a reverse index from KB region to entries, built by its first
    /// sweep. A footprint without a class or literal part skips the node
    /// entries outright.
    pub fn invalidate(&self, fp: &KbFootprint) -> u64 {
        if fp.is_empty() {
            return 0;
        }
        let mut removed = 0u64;
        if touches_types(fp) {
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
        let mut stale = 0u64;
        for shard in &self.nodes {
            stale += shard
                .read()
                .count_matching(|(sn, _), _| ty_stale(fp, sn.ty));
        }
        for shard in &self.edges {
            stale += shard
                .read()
                .count_matching(|(sig, _, _), entry| edge_stale(fp, sig, entry));
        }
        stale
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
                let (sn, value) = &**key;
                payload.nodes.push((*sn, value.clone(), (**cands).clone()));
            }
        }
        for shard in &self.edges {
            for (key, entry) in &shard.read().map {
                let (sig, from, to) = &**key;
                payload.edges.push((
                    *sig,
                    from.clone(),
                    to.clone(),
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
            let key = (*sn, value.clone());
            let shard = &self.nodes[hash_of(&key) & self.mask];
            shard.write().insert(key, Arc::new(cands.clone()));
            imported += 1;
        }
        for (sig, from, to, ok, probed) in &payload.edges {
            let key = (*sig, from.clone(), to.clone());
            let shard = &self.edges[hash_of(&key) & self.mask];
            let entry = EdgeEntry {
                ok: *ok,
                probed: probed.clone(),
            };
            shard.write().insert(key, entry);
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

        let mut other = KbFootprint::new();
        other
            .classes
            .insert(kb.class_named(names::COUNTRY).unwrap());
        assert_eq!(cache.count_stale(&other), 0);
        assert_eq!(cache.invalidate(&other), 0);
        assert_eq!(cache.len(), 1, "unrelated delta leaves the entry warm");

        let mut hit = KbFootprint::new();
        hit.classes.insert(kb.class_named(names::CITY).unwrap());
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
        let mut fp = KbFootprint::new();
        fp.out_pairs.insert((hershko, works_at));
        // Only the edge entry probed (hershko, worksAt); the two node
        // entries depend on class extents, which this delta leaves alone.
        assert_eq!(cache.count_stale(&fp), 1);
        assert_eq!(cache.invalidate(&fp), 1);
        assert_eq!(cache.len(), 2);
    }

    /// Cache hits replay the entry's recorded reads into an attached
    /// footprint recorder, so per-row footprints stay sound on warm paths.
    #[test]
    fn hits_record_footprints_like_misses() {
        let kb = nobel_mini_kb();
        let base = MatchContext::new(&kb);
        let cache = ValueCache::new();
        let node = city_node(&kb);
        // Warm the entry without a recorder attached.
        let _ = cache.candidates(&base, &node, "Haifa");
        let rec = Arc::new(crate::context::FootprintRecorder::new());
        let ctx = base.fork().with_recorder(Arc::clone(&rec));
        let (_, was_hit) = cache.candidates_with_outcome(&ctx, &node, "Haifa");
        assert!(was_hit);
        let fp = rec.take();
        assert!(fp.touches_class(kb.class_named(names::CITY).unwrap()));
    }
}
