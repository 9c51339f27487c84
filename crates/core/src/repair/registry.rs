//! Persistent, schema-keyed registry of shared [`ValueCache`]s — level 0 of
//! the caching hierarchy (DESIGN.md §4a).
//!
//! A [`ValueCache`]'s entries are pure functions of one immutable KB, keyed
//! by cell values of one schema's columns. Server-style workloads repair
//! *streams* of relations over the same schema (batches of rows, repeated
//! uploads, partitioned tables), and every batch re-derives the same
//! candidate sets from scratch when the cache dies with the relation. The
//! `CacheRegistry` keeps those caches alive across relations: callers ask
//! for the cache belonging to `(KB generation, schema fingerprint)` and get
//! the same warm instance back for as long as both stay live.
//!
//! Invalidation is by construction rather than by scanning:
//!
//! * **KB generation** — every finalized
//!   [`KnowledgeBase`](dr_kb::KnowledgeBase) carries a process-unique
//!   generation id, and it is part of the cache key. A rebuilt (even
//!   byte-identical) KB has a new generation, so entries computed against
//!   a stale KB can never be served — they are simply unreachable under
//!   the new key.
//! * **Schema fingerprint** — hash of the relation name and ordered
//!   attribute names; schema changes re-key the cache the same way.
//!
//! A [`dr_kb::KbDelta`] applied *in place* is the one mutation that should
//! NOT cold-start everything: [`CacheRegistry::apply_delta`] re-keys the old
//! generation's caches to the new generation, sweeping only the entries
//! whose recorded footprint intersects the delta's [`KbFootprint`]
//! ([`ValueCache::invalidate`]); everything else stays warm across the
//! generation bump. A migrated cache answers only for the new generation,
//! so a request still running on the old KB cannot poison it.
//!
//! The registry also keeps each live generation's `(type, sim)` match
//! indexes ([`MatchIndex`]). A [`crate::MatchContext`] with a registry
//! attached asks for an index here before it builds one, and
//! `apply_delta` hands the old generation's indexes to the new one, minus
//! those whose type the delta's footprint makes stale — an edge-only delta
//! rebuilds no index at all.
//!
//! Memory is bounded by cache count, not by entry count: the registry
//! retains at most `max_caches` distinct caches, dropping the least recently
//! used whole cache beyond that, and each cache holds the entries of the
//! relations repaired through it. The same bound caps the generations whose
//! index sets it keeps.
//!
//! ## Disk snapshots (cross-process warm starts)
//!
//! With a [`RegistryConfig::cache_dir`], the registry adds a persistence
//! tier below the in-process pool (see [`crate::repair::snapshot`] for the
//! file format). Disk files are keyed by `(KB content hash, schema
//! fingerprint)` — the *content* hash, not the process-local generation —
//! so a later process that rebuilds the same KB warm-starts from the files
//! an earlier process left behind:
//!
//! * a **cold miss** first tries the snapshot file for the key; a valid one
//!   seeds the fresh cache (`snapshot.warm_loads`), anything else — missing
//!   file, corruption, key mismatch, out-of-range ids — degrades to a cold
//!   cache with a capped diagnostic (`snapshot_diagnostics`), never an
//!   error;
//! * **eviction writes back**: a cache dropped by LRU pressure or
//!   [`CacheRegistry::evict_stale`] is snapshotted to disk first, so its
//!   working set survives its in-memory death;
//! * [`CacheRegistry::persist`] flushes every entry of every live cache.

use crate::graph::schema::NodeType;
use crate::repair::snapshot::{self, SnapshotKey, SnapshotPayload};
use crate::repair::value_cache::{ty_stale, ValueCache};
use dr_kb::{FxHashMap, KbFootprint, KbRef};
use dr_obs::{Counter, MetricRegistry};
use dr_relation::Schema;
use dr_simmatch::{MatchIndex, SimFn};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Cache identity: (KB generation, schema fingerprint).
pub type CacheKey = (u64, u64);

/// Most diagnostics retained by the snapshot ledger; later ones are counted
/// but dropped (same discipline as [`dr_kb::LenientOptions`]).
const MAX_SNAPSHOT_DIAGNOSTICS: usize = 64;

/// Settings for a [`CacheRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Distinct `(KB, schema)` caches retained; beyond this the least
    /// recently used cache is dropped. Must be at least 1.
    pub max_caches: usize,
    /// Directory for cross-process cache snapshots. `None` (the default)
    /// disables persistence entirely.
    pub cache_dir: Option<PathBuf>,
    /// Garbage collection of the snapshot directory, run by
    /// [`CacheRegistry::persist`].
    pub gc: SnapshotGcConfig,
}

/// Bounds on the snapshot directory, enforced after every
/// [`CacheRegistry::persist`]. A cache dir accretes files forever
/// otherwise: every distinct `(KB content, schema)` pair leaves a
/// `.drsnap` behind, and a crashed writer leaves `.tmp` orphans that no
/// rename will ever claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotGcConfig {
    /// Retain at most this many `.drsnap` files; beyond it the oldest
    /// (by mtime) files not belonging to a live in-memory cache are
    /// removed. `0` disables GC entirely.
    pub max_snapshots: usize,
    /// Never remove a `.drsnap` younger than this, even over the count
    /// cap — a concurrent writer's fresh output is not an orphan.
    pub min_prune_age: Duration,
    /// Remove `.tmp` write leftovers (`.vc-*.tmp`, `*.drkb.tmp`) older
    /// than this; younger ones may still be mid-rename in another
    /// process.
    pub max_tmp_age: Duration,
}

impl Default for SnapshotGcConfig {
    fn default() -> Self {
        Self {
            max_snapshots: 256,
            min_prune_age: Duration::from_secs(300),
            max_tmp_age: Duration::from_secs(3600),
        }
    }
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            max_caches: 8,
            cache_dir: None,
            gc: SnapshotGcConfig::default(),
        }
    }
}

impl RegistryConfig {
    /// Returns the config with snapshot persistence rooted at `dir`.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Returns the config with the given snapshot-directory GC policy.
    #[must_use]
    pub fn with_gc(mut self, gc: SnapshotGcConfig) -> Self {
        self.gc = gc;
        self
    }
}

/// Disk-snapshot counters, nested in [`RegistryStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Fresh caches successfully seeded from a disk snapshot.
    pub warm_loads: u64,
    /// Fresh caches that found no usable snapshot (missing or rejected).
    pub cold_loads: u64,
    /// Snapshots that existed but were rejected (corrupt, key-mismatched,
    /// or holding out-of-range ids) — a subset of `cold_loads`.
    pub rejected: u64,
    /// Snapshots written to disk (explicit persists and eviction
    /// write-backs).
    pub saves: u64,
    /// Snapshot-directory files removed by GC (`.drsnap` pruned over the
    /// count cap plus orphaned `.tmp` leftovers).
    pub gc_removed: u64,
}

impl SnapshotStats {
    /// Counter deltas since an `earlier` snapshot of the same registry.
    #[must_use]
    pub fn delta_since(&self, earlier: &SnapshotStats) -> SnapshotStats {
        SnapshotStats {
            warm_loads: self.warm_loads.saturating_sub(earlier.warm_loads),
            cold_loads: self.cold_loads.saturating_sub(earlier.cold_loads),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            saves: self.saves.saturating_sub(earlier.saves),
            gc_removed: self.gc_removed.saturating_sub(earlier.gc_removed),
        }
    }
}

impl std::ops::AddAssign for SnapshotStats {
    fn add_assign(&mut self, rhs: Self) {
        self.warm_loads += rhs.warm_loads;
        self.cold_loads += rhs.cold_loads;
        self.rejected += rhs.rejected;
        self.saves += rhs.saves;
        self.gc_removed += rhs.gc_removed;
    }
}

/// Registry-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups that found a live cache for the key (warm starts).
    pub warm_hits: u64,
    /// Lookups that created a fresh cache (cold starts).
    pub cold_misses: u64,
    /// Whole caches dropped to stay under `max_caches`.
    pub evicted_caches: u64,
    /// Entries swept by footprint intersection across all
    /// [`CacheRegistry::apply_delta`] calls.
    pub invalidated_entries: u64,
    /// Caches currently retained.
    pub live_caches: usize,
    /// Total entries across all retained caches.
    pub live_entries: usize,
    /// Disk-snapshot activity (all zeros without a `cache_dir`).
    pub snapshot: SnapshotStats,
}

impl RegistryStats {
    /// Counter deltas since an `earlier` snapshot of the same registry;
    /// the point-in-time gauges (`live_caches`, `live_entries`) keep their
    /// later values.
    #[must_use]
    pub fn delta_since(&self, earlier: &RegistryStats) -> RegistryStats {
        RegistryStats {
            warm_hits: self.warm_hits.saturating_sub(earlier.warm_hits),
            cold_misses: self.cold_misses.saturating_sub(earlier.cold_misses),
            evicted_caches: self.evicted_caches.saturating_sub(earlier.evicted_caches),
            invalidated_entries: self
                .invalidated_entries
                .saturating_sub(earlier.invalidated_entries),
            live_caches: self.live_caches,
            live_entries: self.live_entries,
            snapshot: self.snapshot.delta_since(&earlier.snapshot),
        }
    }
}

struct Slot {
    cache: Arc<ValueCache>,
    last_used: u64,
    /// Disk identity, captured at creation when persistence is on. `None`
    /// for slots created without a live KB in hand (or with persistence
    /// off): they are never written to disk.
    disk_key: Option<SnapshotKey>,
}

/// One KB generation's `(type, sim)` match indexes.
#[derive(Default)]
struct IndexSet {
    indexes: FxHashMap<(NodeType, SimFn), Arc<MatchIndex>>,
    last_used: u64,
}

/// A process-lifetime pool of schema-keyed [`ValueCache`]s and
/// per-generation match indexes.
pub struct CacheRegistry {
    config: RegistryConfig,
    slots: Mutex<FxHashMap<CacheKey, Slot>>,
    index_sets: Mutex<FxHashMap<u64, IndexSet>>,
    clock: AtomicU64,
    // `dr_obs::Counter` cells, so an attached observability registry can
    // expose the same storage [`Self::stats`] reads (see
    // [`Self::register_metrics`]) — no dual bookkeeping.
    warm_hits: Counter,
    cold_misses: Counter,
    evicted_caches: Counter,
    invalidated_entries: Counter,
    snapshot_warm_loads: Counter,
    snapshot_cold_loads: Counter,
    snapshot_rejected: Counter,
    snapshot_saves: Counter,
    snapshot_gc_removed: Counter,
    snapshot_diagnostics: Mutex<Vec<String>>,
}

impl Default for CacheRegistry {
    fn default() -> Self {
        Self::new(RegistryConfig::default())
    }
}

impl CacheRegistry {
    /// An empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        assert!(config.max_caches >= 1, "max_caches must be at least 1");
        Self {
            config,
            slots: Mutex::new(FxHashMap::default()),
            index_sets: Mutex::new(FxHashMap::default()),
            clock: AtomicU64::new(0),
            warm_hits: Counter::new(),
            cold_misses: Counter::new(),
            evicted_caches: Counter::new(),
            invalidated_entries: Counter::new(),
            snapshot_warm_loads: Counter::new(),
            snapshot_cold_loads: Counter::new(),
            snapshot_rejected: Counter::new(),
            snapshot_saves: Counter::new(),
            snapshot_gc_removed: Counter::new(),
            snapshot_diagnostics: Mutex::new(Vec::new()),
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// Attaches this registry's counter cells to `metrics` under the
    /// `cache_invalidated_entries_total` / `snapshot_*` metric names (its
    /// warm/cold/eviction tallies stay report-only). Idempotent; live
    /// caches register their own cells as they are handed out (see
    /// [`crate::context::MatchContext::value_cache_for`]).
    pub fn register_metrics(&self, metrics: &MetricRegistry) {
        metrics.register_counter(
            "cache_invalidated_entries_total",
            &[],
            &self.invalidated_entries,
        );
        metrics.register_counter("snapshot_warm_loads_total", &[], &self.snapshot_warm_loads);
        metrics.register_counter("snapshot_cold_loads_total", &[], &self.snapshot_cold_loads);
        metrics.register_counter("snapshot_rejected_total", &[], &self.snapshot_rejected);
        metrics.register_counter("snapshot_saves_total", &[], &self.snapshot_saves);
        metrics.register_counter("snapshot_gc_removed_total", &[], &self.snapshot_gc_removed);
    }

    /// The shared cache for `(kb, schema)`, creating (and, beyond
    /// `max_caches`, evicting the least recently used) as needed. Repeated
    /// calls with the same live KB and an equal schema return the same warm
    /// instance.
    ///
    /// With a [`RegistryConfig::cache_dir`], a newly created cache is first
    /// seeded from the disk snapshot keyed by `(kb content hash, schema
    /// fingerprint)` when a valid one exists; missing or corrupt snapshots
    /// degrade to a cold start and leave a diagnostic, never an error.
    pub fn cache_for<'a>(&self, kb: impl Into<KbRef<'a>>, schema: &Schema) -> Arc<ValueCache> {
        let kb = kb.into();
        let disk_key = self
            .config
            .cache_dir
            .is_some()
            .then(|| SnapshotKey::for_pair(kb, schema));
        let (cache, created) =
            self.lookup_or_create((kb.generation(), schema.fingerprint()), disk_key);
        if created {
            if let (Some(dir), Some(key)) = (self.config.cache_dir.as_deref(), disk_key) {
                self.seed_from_disk(dir, key, kb, schema, &cache);
            }
        }
        cache
    }

    /// Returns the cache for `key` and whether this call created it.
    /// Evicted LRU victims are written back to disk (outside the pool lock).
    fn lookup_or_create(
        &self,
        key: CacheKey,
        disk_key: Option<SnapshotKey>,
    ) -> (Arc<ValueCache>, bool) {
        let stamp = self.clock.fetch_add(1, Relaxed) + 1;
        let mut victims: Vec<(SnapshotKey, Arc<ValueCache>)> = Vec::new();
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get_mut(&key) {
            slot.last_used = stamp;
            self.warm_hits.inc();
            return (Arc::clone(&slot.cache), false);
        }
        self.cold_misses.inc();
        while slots.len() >= self.config.max_caches {
            let lru = slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(&k, _)| k);
            match lru {
                Some(k) => {
                    if let Some(slot) = slots.remove(&k) {
                        if let Some(dk) = slot.disk_key {
                            victims.push((dk, slot.cache));
                        }
                    }
                    self.evicted_caches.inc();
                }
                None => break,
            }
        }
        let cache = Arc::new(ValueCache::for_generation(key.0));
        slots.insert(
            key,
            Slot {
                cache: Arc::clone(&cache),
                last_used: stamp,
                disk_key,
            },
        );
        drop(slots);
        self.write_back(victims);
        (cache, true)
    }

    /// The `(ty, sim)` match index of KB generation `generation`: the one
    /// this registry holds, or `build()`'s, which it then holds. `build`
    /// runs outside the lock; when two callers race, the first insert wins.
    pub(crate) fn index_for(
        &self,
        generation: u64,
        ty: NodeType,
        sim: SimFn,
        build: impl FnOnce() -> MatchIndex,
    ) -> Arc<MatchIndex> {
        let stamp = self.clock.fetch_add(1, Relaxed) + 1;
        if let Some(set) = self.index_sets.lock().get_mut(&generation) {
            set.last_used = stamp;
            if let Some(index) = set.indexes.get(&(ty, sim)) {
                return Arc::clone(index);
            }
        }
        let built = Arc::new(build());
        let mut sets = self.index_sets.lock();
        if !sets.contains_key(&generation) {
            while sets.len() >= self.config.max_caches {
                let lru = sets
                    .iter()
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(&g, _)| g);
                match lru {
                    Some(g) => sets.remove(&g),
                    None => break,
                };
            }
        }
        let set = sets.entry(generation).or_default();
        set.last_used = stamp;
        Arc::clone(set.indexes.entry((ty, sim)).or_insert(built))
    }

    /// The KB generations whose match indexes this registry holds.
    pub fn indexed_generations(&self) -> Vec<u64> {
        self.index_sets.lock().keys().copied().collect()
    }

    /// Migrates every cache of `old_generation` across a KB delta: sweeps
    /// the entries whose recorded footprint intersects `fp`
    /// ([`ValueCache::invalidate`]), re-keys the cache under
    /// `new_generation`, and re-points its disk identity at
    /// `new_content_hash` so later persists land under the post-delta KB's
    /// key. Returns the number of entries swept (also accumulated into the
    /// `cache_invalidated_entries_total` metric).
    ///
    /// The old generation's match indexes move to `new_generation` too,
    /// except those of a type `fp` makes stale, by the rule node entries
    /// follow. A class index reads only the class's closed extent and its
    /// labels, the literal index only the literal pool, and a delta that
    /// changes either marks the class (ancestor-expanded) or the literals
    /// in its footprint.
    ///
    /// Everything the delta did not touch survives warm — this is the whole
    /// point of footprint-based invalidation; compare
    /// [`Self::evict_stale`], which drops stale caches wholesale.
    pub fn apply_delta(
        &self,
        old_generation: u64,
        new_generation: u64,
        new_content_hash: u64,
        fp: &KbFootprint,
    ) -> u64 {
        {
            let mut sets = self.index_sets.lock();
            if let Some(mut set) = sets.remove(&old_generation) {
                set.indexes.retain(|&(ty, _), _| !ty_stale(fp, ty));
                let successor = sets.entry(new_generation).or_default();
                for (key, index) in set.indexes {
                    successor.indexes.entry(key).or_insert(index);
                }
                successor.last_used = successor.last_used.max(set.last_used);
            }
        }
        let mut invalidated = 0u64;
        let mut slots = self.slots.lock();
        let keys: Vec<CacheKey> = slots
            .keys()
            .filter(|&&(generation, _)| generation == old_generation)
            .copied()
            .collect();
        for key in keys {
            let Some(mut slot) = slots.remove(&key) else {
                continue;
            };
            invalidated += slot.cache.migrate(fp, new_generation);
            if let Some(dk) = slot.disk_key.as_mut() {
                dk.kb_content_hash = new_content_hash;
            }
            slots.insert((new_generation, key.1), slot);
        }
        drop(slots);
        if invalidated > 0 {
            self.invalidated_entries.add(invalidated);
        }
        invalidated
    }

    /// Drops every cache and the match indexes belonging to `generation` —
    /// the unload path: a KB removed from a serving pool releases its cache
    /// memory immediately. Evicted caches with a disk identity are
    /// snapshotted first, exactly like LRU victims. Returns how many caches
    /// were dropped.
    pub fn evict_generation(&self, generation: u64) -> usize {
        self.index_sets.lock().remove(&generation);
        let mut victims: Vec<(SnapshotKey, Arc<ValueCache>)> = Vec::new();
        let mut slots = self.slots.lock();
        let before = slots.len();
        slots.retain(|&(g, _), slot| {
            let keep = g != generation;
            if !keep {
                if let Some(dk) = slot.disk_key {
                    victims.push((dk, Arc::clone(&slot.cache)));
                }
            }
            keep
        });
        let dropped = before - slots.len();
        if dropped > 0 {
            self.evicted_caches.add(dropped as u64);
        }
        drop(slots);
        self.write_back(victims);
        dropped
    }

    /// Drops every cache and index set not belonging to `live_generation`
    /// — for server-style workloads that rebuild their KB in place and want
    /// the stale caches' memory back immediately instead of waiting for LRU
    /// pressure. (Correctness never depends on this: stale generations are
    /// unreachable through [`Self::cache_for`] regardless.) Evicted caches
    /// with a disk identity are snapshotted to disk first.
    pub fn evict_stale(&self, live_generation: u64) {
        self.index_sets
            .lock()
            .retain(|&generation, _| generation == live_generation);
        let mut victims: Vec<(SnapshotKey, Arc<ValueCache>)> = Vec::new();
        let mut slots = self.slots.lock();
        let before = slots.len();
        slots.retain(|&(generation, _), slot| {
            let keep = generation == live_generation;
            if !keep {
                if let Some(dk) = slot.disk_key {
                    victims.push((dk, Arc::clone(&slot.cache)));
                }
            }
            keep
        });
        let dropped = (before - slots.len()) as u64;
        if dropped > 0 {
            self.evicted_caches.add(dropped);
        }
        drop(slots);
        self.write_back(victims);
    }

    /// Writes every entry of every live cache that has a disk identity to
    /// the cache directory, then garbage-collects the snapshot directory
    /// (see [`SnapshotGcConfig`]). Returns the number of snapshots written. A
    /// no-op (returning 0) without a `cache_dir`.
    pub fn persist(&self) -> usize {
        let targets: Vec<(SnapshotKey, Arc<ValueCache>)> = {
            let slots = self.slots.lock();
            slots
                .values()
                .filter_map(|s| s.disk_key.map(|k| (k, Arc::clone(&s.cache))))
                .collect()
        };
        let saved = self.write_back(targets);
        self.gc_snapshots();
        saved
    }

    /// Enforces [`SnapshotGcConfig`] on the cache directory: removes aged
    /// `.tmp` write leftovers, then prunes the oldest `.drsnap` files over
    /// the count cap — skipping files that back a live in-memory cache and
    /// files younger than `min_prune_age`, so a concurrent writer's output
    /// is never reaped. Unreadable directories and racing deletes are
    /// ignored: GC is best-effort by design.
    fn gc_snapshots(&self) {
        let Some(dir) = self.config.cache_dir.as_deref() else {
            return;
        };
        let gc = self.config.gc;
        if gc.max_snapshots == 0 {
            return;
        }
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let now = SystemTime::now();
        let age_of = |mtime: SystemTime| now.duration_since(mtime).unwrap_or_default();
        let live: std::collections::HashSet<PathBuf> = {
            let slots = self.slots.lock();
            slots
                .values()
                .filter_map(|s| s.disk_key.map(|k| k.path_in(dir)))
                .collect()
        };
        let mut snaps: Vec<(PathBuf, SystemTime)> = Vec::new();
        let mut removed = 0u64;
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Ok(meta) = entry.metadata() else {
                continue;
            };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(now);
            let orphan_tmp = name.ends_with(".tmp")
                && (name.starts_with(".vc-")
                    || name.ends_with(format!(".{}.tmp", dr_kb::image::EXTENSION).as_str()));
            if orphan_tmp {
                if age_of(mtime) >= gc.max_tmp_age && std::fs::remove_file(&path).is_ok() {
                    removed += 1;
                }
            } else if name.ends_with(&format!(".{}", snapshot::EXTENSION)) {
                snaps.push((path, mtime));
            }
        }
        if snaps.len() > gc.max_snapshots {
            snaps.sort_by_key(|&(_, mtime)| mtime);
            let mut excess = snaps.len() - gc.max_snapshots;
            for (path, mtime) in snaps {
                if excess == 0 {
                    break;
                }
                if live.contains(&path) || age_of(mtime) < gc.min_prune_age {
                    continue;
                }
                if std::fs::remove_file(&path).is_ok() {
                    removed += 1;
                    excess -= 1;
                }
            }
        }
        if removed > 0 {
            self.snapshot_gc_removed.add(removed);
        }
    }

    /// Saves `(key, cache)` pairs to disk; shared by [`Self::persist`] and
    /// the eviction paths. Empty caches are skipped.
    fn write_back(&self, targets: Vec<(SnapshotKey, Arc<ValueCache>)>) -> usize {
        let Some(dir) = self.config.cache_dir.as_deref() else {
            return 0;
        };
        let mut saved = 0;
        for (key, cache) in targets {
            let payload = cache.export();
            if payload.is_empty() {
                continue;
            }
            match snapshot::write_snapshot(dir, key, &payload) {
                Ok(_) => {
                    self.snapshot_saves.inc();
                    saved += 1;
                }
                Err(e) => self.record_diagnostic(format!(
                    "snapshot save kb={:#x} schema={:#x}: {e}",
                    key.kb_content_hash, key.schema_fingerprint
                )),
            }
        }
        saved
    }

    /// Seeds a freshly created cache from its disk snapshot, if a usable one
    /// exists. Every failure mode is a cold start; corruption (as opposed to
    /// simple absence) additionally counts as `rejected` and leaves a
    /// diagnostic.
    fn seed_from_disk(
        &self,
        dir: &Path,
        key: SnapshotKey,
        kb: KbRef<'_>,
        schema: &Schema,
        cache: &ValueCache,
    ) {
        let loaded = snapshot::read_snapshot(dir, key)
            .and_then(|payload| payload.validate(kb, schema).map(|()| payload));
        match loaded {
            Ok(payload) => {
                cache.import(&payload);
                self.snapshot_warm_loads.inc();
            }
            Err(e) => {
                cache.mark_snapshot_cold();
                self.snapshot_cold_loads.inc();
                if !e.is_absence() {
                    self.snapshot_rejected.inc();
                    self.record_diagnostic(format!(
                        "snapshot load kb={:#x} schema={:#x}: {e}",
                        key.kb_content_hash, key.schema_fingerprint
                    ));
                }
            }
        }
    }

    fn record_diagnostic(&self, message: String) {
        let mut diags = self.snapshot_diagnostics.lock();
        if diags.len() < MAX_SNAPSHOT_DIAGNOSTICS {
            diags.push(message);
        }
    }

    /// Quarantine-style ledger of snapshot load/save failures (capped at
    /// `MAX_SNAPSHOT_DIAGNOSTICS`; absence of a snapshot file is routine
    /// and never recorded).
    pub fn snapshot_diagnostics(&self) -> Vec<String> {
        self.snapshot_diagnostics.lock().clone()
    }

    /// Exports the portable payload for `(kb, schema)`'s live cache —
    /// what [`Self::persist`] would write for it. Mostly for tests and
    /// tooling; `None` when no live cache exists for the pair.
    pub fn export_payload<'a>(
        &self,
        kb: impl Into<KbRef<'a>>,
        schema: &Schema,
    ) -> Option<SnapshotPayload> {
        let key = (kb.into().generation(), schema.fingerprint());
        let slots = self.slots.lock();
        slots.get(&key).map(|s| s.cache.export())
    }

    /// Snapshot of the registry counters.
    pub fn stats(&self) -> RegistryStats {
        let slots = self.slots.lock();
        RegistryStats {
            warm_hits: self.warm_hits.get(),
            cold_misses: self.cold_misses.get(),
            evicted_caches: self.evicted_caches.get(),
            invalidated_entries: self.invalidated_entries.get(),
            live_caches: slots.len(),
            live_entries: slots.values().map(|s| s.cache.len()).sum(),
            snapshot: SnapshotStats {
                warm_loads: self.snapshot_warm_loads.get(),
                cold_loads: self.snapshot_cold_loads.get(),
                rejected: self.snapshot_rejected.get(),
                saves: self.snapshot_saves.get(),
                gc_removed: self.snapshot_gc_removed.get(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MatchContext;
    use crate::fixtures::nobel_schema;
    use crate::graph::schema::{NodeType, SchemaNode};
    use dr_kb::fixtures::{names, nobel_mini_kb};
    use dr_kb::KnowledgeBase;
    use dr_simmatch::SimFn;

    fn city_node(kb: &KnowledgeBase) -> SchemaNode {
        SchemaNode::new(
            nobel_schema().attr_expect("City"),
            NodeType::Class(kb.class_named(names::CITY).unwrap()),
            SimFn::Equal,
        )
    }

    #[test]
    fn same_kb_and_schema_warm_start() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let registry = CacheRegistry::default();
        let a = registry.cache_for(&kb, &schema);
        let b = registry.cache_for(&kb, &schema);
        assert!(Arc::ptr_eq(&a, &b), "same key must return the same cache");
        let stats = registry.stats();
        assert_eq!((stats.warm_hits, stats.cold_misses), (1, 1));
        assert_eq!(stats.live_caches, 1);
    }

    #[test]
    fn entries_persist_across_lookups() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let ctx = MatchContext::new(&kb);
        let registry = CacheRegistry::default();
        let node = city_node(&kb);

        let warm = registry.cache_for(&kb, &schema);
        let _ = warm.candidates(&ctx, &node, "Haifa");
        drop(warm);

        // A later "relation" of the same schema sees the warm entry.
        let again = registry.cache_for(&kb, &schema);
        let _ = again.candidates(&ctx, &node, "Haifa");
        assert_eq!(again.stats().node_hits, 1);
        assert!(registry.stats().live_entries >= 1);
    }

    /// A rebuilt KB (new generation) must never be served entries computed
    /// against the old one — the key changes, so the old cache is invisible.
    #[test]
    fn stale_kb_generation_is_never_served() {
        let schema = nobel_schema();
        let registry = CacheRegistry::default();

        let kb1 = nobel_mini_kb();
        let node = city_node(&kb1);
        {
            let ctx = MatchContext::new(&kb1);
            let cache = registry.cache_for(&kb1, &schema);
            let _ = cache.candidates(&ctx, &node, "Haifa");
            assert_eq!(cache.stats().node_misses, 1);
        }

        // Same content, new generation: a fresh, empty cache.
        let kb2 = nobel_mini_kb();
        assert_ne!(kb1.generation(), kb2.generation());
        let cache = registry.cache_for(&kb2, &schema);
        assert!(cache.is_empty(), "stale entries must be unreachable");
        let stats = cache.stats();
        assert_eq!((stats.node_hits, stats.node_misses), (0, 0));
        assert_eq!(registry.stats().cold_misses, 2);
    }

    #[test]
    fn distinct_schemas_get_distinct_caches() {
        let kb = nobel_mini_kb();
        let registry = CacheRegistry::default();
        let a = registry.cache_for(&kb, &nobel_schema());
        let b = registry.cache_for(&kb, &dr_relation::Schema::new("Other", &["X", "Y"]));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(registry.stats().live_caches, 2);
    }

    #[test]
    fn lru_cache_eviction_beyond_max_caches() {
        let kb = nobel_mini_kb();
        let registry = CacheRegistry::new(RegistryConfig {
            max_caches: 2,
            ..Default::default()
        });
        let s1 = dr_relation::Schema::new("R1", &["A"]);
        let s2 = dr_relation::Schema::new("R2", &["A"]);
        let s3 = dr_relation::Schema::new("R3", &["A"]);
        let c1 = registry.cache_for(&kb, &s1);
        let _c2 = registry.cache_for(&kb, &s2);
        // Touch R1 so R2 is the LRU, then overflow.
        let _ = registry.cache_for(&kb, &s1);
        let _c3 = registry.cache_for(&kb, &s3);
        let stats = registry.stats();
        assert_eq!(stats.live_caches, 2);
        assert_eq!(stats.evicted_caches, 1);
        // R1 survived (same instance), R2 did not: re-asking for R1 is warm
        // (cold misses stay at the three creations), re-asking for R2 is not.
        assert!(Arc::ptr_eq(&c1, &registry.cache_for(&kb, &s1)));
        assert_eq!(registry.stats().cold_misses, 3);
        let _ = registry.cache_for(&kb, &s2);
        assert_eq!(registry.stats().cold_misses, 4);
    }

    #[test]
    fn evict_stale_drops_dead_generations() {
        let schema = nobel_schema();
        let registry = CacheRegistry::default();
        let kb1 = nobel_mini_kb();
        let kb2 = nobel_mini_kb();
        let _ = registry.cache_for(&kb1, &schema);
        let _ = registry.cache_for(&kb2, &schema);
        assert_eq!(registry.stats().live_caches, 2);
        registry.evict_stale(kb2.generation());
        let stats = registry.stats();
        assert_eq!(stats.live_caches, 1);
        assert_eq!(stats.evicted_caches, 1);
        // The survivor is kb2's cache.
        let survivor = registry.cache_for(&kb2, &schema);
        assert_eq!(registry.stats().warm_hits, 1);
        drop(survivor);
    }

    /// apply_delta migrates the cache to the new generation, sweeping only
    /// the entries the footprint touches; untouched entries survive warm
    /// under the *new* key while the old key becomes a cold miss.
    #[test]
    fn apply_delta_rekeys_and_sweeps_intersecting_entries() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let registry = CacheRegistry::default();
        let ctx = MatchContext::new(&kb);
        let city = city_node(&kb);
        let country = SchemaNode::new(
            nobel_schema().attr_expect("Country"),
            NodeType::Class(kb.class_named(names::COUNTRY).unwrap()),
            SimFn::Equal,
        );
        let cache = registry.cache_for(&kb, &schema);
        let _ = cache.candidates(&ctx, &city, "Haifa");
        let _ = cache.candidates(&ctx, &country, "Israel");
        assert_eq!(cache.len(), 2);

        let mut fp = KbFootprint::new();
        fp.classes.insert(kb.class_named(names::CITY).unwrap());
        let new_gen = kb.generation() + 1_000_000; // simulated bump
        let swept = registry.apply_delta(kb.generation(), new_gen, 0xFEED, &fp);
        assert_eq!(swept, 1, "only the city entry intersects");
        assert_eq!(registry.stats().invalidated_entries, 1);
        assert_eq!(registry.stats().live_caches, 1);
        assert_eq!(cache.len(), 1, "country entry survives the sweep");
        // The old generation no longer resolves to the migrated cache.
        let old_key_cache = registry.cache_for(&kb, &schema);
        assert!(!Arc::ptr_eq(&cache, &old_key_cache));
        assert_eq!(registry.stats().cold_misses, 2);
    }

    /// The retract the in-flight tests apply: afterwards the Technion is
    /// no longer located in Haifa.
    fn retract_technion_in_haifa(kb: &KnowledgeBase) -> (KnowledgeBase, KbFootprint) {
        let mut delta = dr_kb::KbDelta::new();
        delta.retract(
            "Israel Institute of Technology",
            names::LOCATED_IN,
            dr_kb::DeltaNode::Instance("Haifa".into()),
        );
        let mut next = kb.clone();
        let fp = next.apply_delta(&delta).expect("edge delta applies");
        (next, fp)
    }

    /// `(organization -locatedIn-> city)` on "Israel Institute of
    /// Technology" → "Haifa" through `cache`.
    fn technion_in_haifa(cache: &ValueCache, ctx: &MatchContext<'_>) -> bool {
        let kb = ctx.kb();
        let org = SchemaNode::new(
            nobel_schema().attr_expect("Institution"),
            NodeType::Class(kb.class_named(names::ORGANIZATION).unwrap()),
            SimFn::Equal,
        );
        let city = SchemaNode::new(
            nobel_schema().attr_expect("City"),
            NodeType::Class(kb.class_named(names::CITY).unwrap()),
            SimFn::Equal,
        );
        let located_in = kb.pred_named(names::LOCATED_IN).unwrap();
        cache.edge_ok(
            ctx,
            &org,
            located_in,
            &city,
            "Israel Institute of Technology",
            "Haifa",
        )
    }

    /// A request still running on the generation a delta replaced holds
    /// the migrated cache's `Arc`. What it computes on the old KB must not
    /// land in the cache the new generation reads.
    #[test]
    fn in_flight_old_generation_cannot_fill_a_migrated_cache() {
        let kb = nobel_mini_kb();
        let registry = CacheRegistry::default();
        let cache = registry.cache_for(&kb, &nobel_schema());
        let old_ctx = MatchContext::new(&kb);

        let (next, fp) = retract_technion_in_haifa(&kb);
        registry.apply_delta(kb.generation(), next.generation(), next.content_hash(), &fp);

        assert!(technion_in_haifa(&cache, &old_ctx), "true on the old KB");
        assert_eq!(cache.count_stale(&fp), 0, "no old-KB answer was kept");
        let new_ctx = MatchContext::new(&next);
        assert!(!technion_in_haifa(&cache, &new_ctx), "false on the new KB");
    }

    /// The read direction: an old-generation request must not be served
    /// what the new generation computed.
    #[test]
    fn in_flight_old_generation_cannot_read_a_migrated_cache() {
        let kb = nobel_mini_kb();
        let registry = CacheRegistry::default();
        let cache = registry.cache_for(&kb, &nobel_schema());
        let old_ctx = MatchContext::new(&kb);

        let (next, fp) = retract_technion_in_haifa(&kb);
        registry.apply_delta(kb.generation(), next.generation(), next.content_hash(), &fp);

        let new_ctx = MatchContext::new(&next);
        assert!(!technion_in_haifa(&cache, &new_ctx), "false on the new KB");
        assert!(technion_in_haifa(&cache, &old_ctx), "true on the old KB");
    }

    #[test]
    fn evict_generation_drops_only_that_generation() {
        let schema = nobel_schema();
        let registry = CacheRegistry::default();
        let kb1 = nobel_mini_kb();
        let kb2 = nobel_mini_kb();
        let _ = registry.cache_for(&kb1, &schema);
        let survivor = registry.cache_for(&kb2, &schema);
        assert_eq!(registry.evict_generation(kb1.generation()), 1);
        let stats = registry.stats();
        assert_eq!(stats.live_caches, 1);
        assert_eq!(stats.evicted_caches, 1);
        assert!(Arc::ptr_eq(&survivor, &registry.cache_for(&kb2, &schema)));
        assert_eq!(registry.evict_generation(kb1.generation()), 0);
    }

    #[test]
    #[should_panic(expected = "max_caches")]
    fn zero_max_caches_is_rejected() {
        let _ = CacheRegistry::new(RegistryConfig {
            max_caches: 0,
            ..Default::default()
        });
    }

    // ----- disk snapshots -------------------------------------------------

    /// A unique throwaway directory per test (std-only tempdir).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU32;
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dr-registry-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn persisting_registry(dir: &std::path::Path) -> CacheRegistry {
        CacheRegistry::new(RegistryConfig::default().with_cache_dir(dir))
    }

    /// persist() → fresh registry (simulating a new process) → warm load:
    /// the same entries answer as hits, and both sides count it.
    #[test]
    fn persisted_snapshot_warms_a_fresh_registry() {
        let dir = scratch_dir("warm");
        let schema = nobel_schema();
        let kb = nobel_mini_kb();
        let node = city_node(&kb);

        let first = persisting_registry(&dir);
        {
            let ctx = MatchContext::new(&kb);
            let cache = first.cache_for(&kb, &schema);
            let _ = cache.candidates(&ctx, &node, "Haifa");
            let _ = cache.candidates(&ctx, &node, "Karcag");
        }
        assert_eq!(first.persist(), 1);
        let s = first.stats();
        assert_eq!(s.snapshot.saves, 1);
        assert_eq!(s.snapshot.cold_loads, 1, "first process started cold");

        // A brand-new registry *and* a rebuilt KB: the generation differs,
        // the content hash does not, so the snapshot applies.
        let kb2 = nobel_mini_kb();
        assert_ne!(kb.generation(), kb2.generation());
        let second = persisting_registry(&dir);
        let cache = second.cache_for(&kb2, &schema);
        assert_eq!(cache.stats().snapshot_warm, 2, "both entries seeded");
        let ctx = MatchContext::new(&kb2);
        let node2 = city_node(&kb2);
        let _ = cache.candidates(&ctx, &node2, "Haifa");
        assert_eq!(cache.stats().node_hits, 1);
        assert_eq!(cache.stats().node_misses, 0);
        let s = second.stats();
        assert_eq!(s.snapshot.warm_loads, 1);
        assert_eq!(s.snapshot.rejected, 0);
        assert!(second.snapshot_diagnostics().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `persist` writes every entry, however many the cache holds: a fresh
    /// registry seeded from the snapshot answers each key as a hit.
    #[test]
    fn persist_round_trips_every_entry_of_a_large_cache() {
        const ENTRIES: usize = 70_000;
        let dir = scratch_dir("large");
        let schema = nobel_schema();
        let kb = nobel_mini_kb();
        let node = city_node(&kb);
        let value = |i: usize| format!("no-such-city-{i}");

        let first = persisting_registry(&dir);
        {
            let ctx = MatchContext::new(&kb);
            let cache = first.cache_for(&kb, &schema);
            for i in 0..ENTRIES {
                let _ = cache.candidates(&ctx, &node, &value(i));
            }
            assert_eq!(cache.len(), ENTRIES);
        }
        assert_eq!(first.persist(), 1);

        let second = persisting_registry(&dir);
        let cache = second.cache_for(&kb, &schema);
        assert_eq!(cache.len(), ENTRIES, "every entry was persisted");
        assert_eq!(cache.stats().snapshot_warm, ENTRIES as u64);
        let ctx = MatchContext::new(&kb);
        for i in 0..ENTRIES {
            let _ = cache.candidates(&ctx, &node, &value(i));
        }
        let stats = cache.stats();
        assert_eq!((stats.node_hits, stats.node_misses), (ENTRIES as u64, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupt snapshot file degrades to a cold cache with a diagnostic —
    /// never an error, never partial state.
    #[test]
    fn corrupt_snapshot_degrades_to_cold_with_diagnostic() {
        let dir = scratch_dir("corrupt");
        let schema = nobel_schema();
        let kb = nobel_mini_kb();
        let node = city_node(&kb);
        {
            let first = persisting_registry(&dir);
            let ctx = MatchContext::new(&kb);
            let cache = first.cache_for(&kb, &schema);
            let _ = cache.candidates(&ctx, &node, "Haifa");
            assert_eq!(first.persist(), 1);
        }
        let key = crate::repair::snapshot::SnapshotKey::for_pair(&kb, &schema);
        let path = key.path_in(&dir);
        let mut bytes = std::fs::read(&path).expect("snapshot exists");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");

        let second = persisting_registry(&dir);
        let cache = second.cache_for(&kb, &schema);
        assert!(cache.is_empty(), "no partial state from a corrupt file");
        assert_eq!(cache.stats().snapshot_cold, 1);
        let s = second.stats();
        assert_eq!(s.snapshot.warm_loads, 0);
        assert_eq!(s.snapshot.cold_loads, 1);
        assert_eq!(s.snapshot.rejected, 1);
        let diags = second.snapshot_diagnostics();
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].contains("checksum"),
            "diagnostic names the cause: {diags:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// LRU eviction writes the victim back to disk, so its working set
    /// survives in-memory death and warms the next cold miss.
    #[test]
    fn lru_eviction_writes_back_to_disk() {
        let dir = scratch_dir("evict");
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);
        let node = city_node(&kb);
        let registry = CacheRegistry::new(
            RegistryConfig {
                max_caches: 1,
                ..Default::default()
            }
            .with_cache_dir(&dir),
        );
        let s1 = dr_relation::Schema::new("R1", &["City"]);
        let s2 = dr_relation::Schema::new("R2", &["City"]);
        // The cached entry must be keyed by a column of *s1* — snapshot
        // validation checks ids against the owning schema on reload.
        let node = SchemaNode::new(s1.attr_expect("City"), node.ty, node.sim);
        {
            let cache = registry.cache_for(&kb, &s1);
            let _ = cache.candidates(&ctx, &node, "Haifa");
        }
        // Asking for R2 evicts R1's cache, snapshotting it on the way out.
        let _ = registry.cache_for(&kb, &s2);
        assert_eq!(registry.stats().snapshot.saves, 1);
        assert!(registry.snapshot_diagnostics().is_empty());
        // R1 comes back warm from disk.
        let back = registry.cache_for(&kb, &s1);
        assert_eq!(back.stats().snapshot_warm, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Without a cache_dir nothing touches the filesystem and persist is a
    /// no-op.
    #[test]
    fn no_cache_dir_means_no_persistence() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let registry = CacheRegistry::default();
        let _ = registry.cache_for(&kb, &schema);
        assert_eq!(registry.persist(), 0);
        let s = registry.stats();
        assert_eq!(s.snapshot, SnapshotStats::default());
    }

    // ----- snapshot-directory GC ------------------------------------------

    /// Backdates a file's mtime so GC age thresholds see it as old.
    fn backdate(path: &std::path::Path, by: Duration) {
        let old = SystemTime::now() - by;
        let f = std::fs::File::options()
            .append(true)
            .open(path)
            .expect("open for set_times");
        f.set_times(std::fs::FileTimes::new().set_modified(old))
            .expect("set mtime");
    }

    /// An eagerly-pruning GC policy: no age grace for snapshots or temps.
    fn eager_gc(max_snapshots: usize) -> SnapshotGcConfig {
        SnapshotGcConfig {
            max_snapshots,
            min_prune_age: Duration::ZERO,
            max_tmp_age: Duration::ZERO,
        }
    }

    /// Two writers share a cache dir. Writer B persisted snapshots that
    /// writer A has no live cache for (dead generations); over the count
    /// cap, GC reaps B's oldest orphans but never a file backing one of
    /// A's live caches — even when the live file's mtime is the oldest of
    /// all.
    #[test]
    fn gc_prunes_orphans_but_never_live_snapshots() {
        let dir = scratch_dir("gc-two-writer");
        let kb = nobel_mini_kb();
        let ctx = MatchContext::new(&kb);

        // Writer B: three schemas, persisted, then dropped entirely — its
        // snapshot files are orphans from writer A's point of view.
        {
            let writer_b = persisting_registry(&dir);
            for name in ["B1", "B2", "B3"] {
                let schema = dr_relation::Schema::new(name, &["City"]);
                let node = SchemaNode::new(
                    schema.attr_expect("City"),
                    city_node(&kb).ty,
                    city_node(&kb).sim,
                );
                let cache = writer_b.cache_for(&kb, &schema);
                let _ = cache.candidates(&ctx, &node, "Haifa");
            }
            assert_eq!(writer_b.persist(), 3);
        }

        // Writer A: one live schema, GC capped at 2 files total.
        let writer_a = CacheRegistry::new(
            RegistryConfig::default()
                .with_cache_dir(&dir)
                .with_gc(eager_gc(2)),
        );
        let schema_a = dr_relation::Schema::new("A1", &["City"]);
        let node_a = SchemaNode::new(
            schema_a.attr_expect("City"),
            city_node(&kb).ty,
            city_node(&kb).sim,
        );
        let live_path = SnapshotKey::for_pair(&kb, &schema_a).path_in(&dir);
        {
            let cache = writer_a.cache_for(&kb, &schema_a);
            let _ = cache.candidates(&ctx, &node_a, "Haifa");
        }
        assert_eq!(writer_a.persist(), 1);
        // Make A's live file the OLDEST on disk: a naive oldest-first
        // reaper would pick it first.
        backdate(&live_path, Duration::from_secs(7200));

        assert_eq!(writer_a.persist(), 1);
        assert!(live_path.exists(), "live snapshot must never be reaped");
        let remaining: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            remaining.len(),
            2,
            "pruned down to max_snapshots: {remaining:?}"
        );
        assert_eq!(writer_a.stats().snapshot.gc_removed, 2);

        // The reaped keys come back cold but intact — a prune is an
        // eviction from disk, not corruption.
        let schema_b1 = dr_relation::Schema::new("B1", &["City"]);
        let cache = writer_a.cache_for(&kb, &schema_b1);
        assert_eq!(cache.stats().snapshot_warm + cache.stats().snapshot_cold, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Orphaned `.tmp` files from crashed writers are reaped once old
    /// enough; fresh ones (possibly mid-rename in another process) are not.
    #[test]
    fn gc_reaps_aged_tmp_orphans_only() {
        let dir = scratch_dir("gc-tmp");
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let registry = CacheRegistry::new(RegistryConfig::default().with_cache_dir(&dir).with_gc(
            SnapshotGcConfig {
                max_tmp_age: Duration::from_secs(60),
                ..eager_gc(8)
            },
        ));
        let ctx = MatchContext::new(&kb);
        let node = city_node(&kb);
        {
            let cache = registry.cache_for(&kb, &schema);
            let _ = cache.candidates(&ctx, &node, "Haifa");
        }

        let old_vc = dir.join(".vc-dead-writer.0.0.tmp");
        let old_img = dir.join(".nobel.999.0.drkb.tmp");
        let fresh = dir.join(".vc-fresh-writer.1.0.tmp");
        let unrelated = dir.join("notes.txt");
        for p in [&old_vc, &old_img, &fresh, &unrelated] {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(p, b"leftover").unwrap();
        }
        backdate(&old_vc, Duration::from_secs(3600));
        backdate(&old_img, Duration::from_secs(3600));

        assert_eq!(registry.persist(), 1);
        assert!(!old_vc.exists(), "aged .vc tmp reaped");
        assert!(!old_img.exists(), "aged .drkb tmp reaped");
        assert!(fresh.exists(), "fresh tmp kept — may be mid-rename");
        assert!(unrelated.exists(), "non-snapshot files are never touched");
        assert_eq!(registry.stats().snapshot.gc_removed, 2);

        // GC off (max_snapshots = 0) leaves even aged orphans alone.
        backdate(&fresh, Duration::from_secs(3600));
        let off = CacheRegistry::new(RegistryConfig::default().with_cache_dir(&dir).with_gc(
            SnapshotGcConfig {
                max_snapshots: 0,
                ..eager_gc(0)
            },
        ));
        let _ = off.cache_for(&kb, &schema);
        let _ = off.persist();
        assert!(fresh.exists(), "disabled GC removes nothing");
        assert_eq!(off.stats().snapshot.gc_removed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_stats_delta_subtracts_counters() {
        let earlier = RegistryStats {
            warm_hits: 2,
            cold_misses: 1,
            evicted_caches: 0,
            invalidated_entries: 1,
            live_caches: 1,
            live_entries: 10,
            snapshot: SnapshotStats {
                warm_loads: 1,
                cold_loads: 1,
                rejected: 0,
                saves: 2,
                gc_removed: 1,
            },
        };
        let later = RegistryStats {
            warm_hits: 5,
            cold_misses: 2,
            evicted_caches: 1,
            invalidated_entries: 4,
            live_caches: 2,
            live_entries: 30,
            snapshot: SnapshotStats {
                warm_loads: 2,
                cold_loads: 2,
                rejected: 1,
                saves: 2,
                gc_removed: 4,
            },
        };
        let d = later.delta_since(&earlier);
        assert_eq!((d.warm_hits, d.cold_misses, d.evicted_caches), (3, 1, 1));
        assert_eq!(d.invalidated_entries, 3);
        assert_eq!(
            (d.live_caches, d.live_entries),
            (2, 30),
            "gauges keep later values"
        );
        assert_eq!(
            d.snapshot,
            SnapshotStats {
                warm_loads: 1,
                cold_loads: 1,
                rejected: 1,
                saves: 0,
                gc_removed: 3,
            }
        );
    }
}
