//! Quality ablations for the design choices beyond raw speed (the speed
//! ablations live in `dr-bench`):
//!
//! * **Typo normalization** (DESIGN.md extensions) — disabling
//!   `normalize_fuzzy` shows how much recall the paper's "repair to the most
//!   similar candidate" behaviour is worth on a typo-heavy workload.
//! * **Detection without repair** (§II-C case (2)) — enabling
//!   `detect_without_repair` shows the extra annotation (#-POS) available
//!   when the KB can prove a value wrong but offers no correction.
//! * **Cache persistence** — repairing a stream of same-schema relations
//!   with and without a shared [`CacheRegistry`](dr_core::CacheRegistry)
//!   shows what warm-starting the value cache is worth.

use crate::metrics::{evaluate, Quality, RepairExtras};
use dr_core::{fast_repair, ApplyOptions, MatchContext};
use dr_datasets::{KbProfile, NobelWorld, UisWorld};
use dr_relation::noise::{inject, NoiseSpec};
use std::sync::Arc;

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Quality against ground truth.
    pub quality: Quality,
    /// Cells marked positive.
    pub pos: usize,
    /// Cells flagged wrong without a repair (detection mode only).
    pub flagged: usize,
}

/// Ablation sizes and seeds.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Tuple count.
    pub size: usize,
    /// Error rate.
    pub error_rate: f64,
    /// Typo share of the injected errors.
    pub typo_share: f64,
    /// Master seed.
    pub seed: u64,
    /// Observability handle (DESIGN.md §4d); `None` keeps the
    /// zero-overhead path.
    pub obs: Option<Arc<dr_obs::Obs>>,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            size: 1_000,
            error_rate: 0.10,
            typo_share: 0.5,
            seed: 47,
            obs: None,
        }
    }
}

fn run_with_options(
    kb: &dr_kb::KnowledgeBase,
    rules: &[dr_core::DetectiveRule],
    clean: &dr_relation::Relation,
    dirty: &dr_relation::Relation,
    label: &str,
    opts: &ApplyOptions,
    obs: Option<Arc<dr_obs::Obs>>,
) -> AblationRow {
    let ctx = MatchContext::new(kb).with_obs_opt(obs);
    let mut working = dirty.clone();
    let report = fast_repair(&ctx, rules, &mut working, opts);
    let extras = RepairExtras::from_report(&report);
    let flagged = report
        .tuples
        .iter()
        .flat_map(|t| &t.steps)
        .filter(|s| {
            matches!(
                s.application,
                dr_core::RuleApplication::DetectedWrong { .. }
            )
        })
        .count();
    AblationRow {
        config: label.to_owned(),
        quality: evaluate(clean, dirty, &working, &extras),
        pos: working.positive_count(),
        flagged,
    }
}

/// Normalization ablation on a typo-heavy Nobel workload.
pub fn normalization_ablation(cfg: &AblationConfig) -> Vec<AblationRow> {
    let world = NobelWorld::generate(cfg.size, cfg.seed);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(cfg.error_rate, cfg.seed)
            .with_typo_share(cfg.typo_share)
            .with_excluded(vec![name]),
        &world.semantic_source(),
    );
    let kb = world.kb(&KbProfile::yago());
    let rules = NobelWorld::rules(&kb);
    vec![
        run_with_options(
            &kb,
            &rules,
            &clean,
            &dirty,
            "normalize_fuzzy=on (default)",
            &ApplyOptions::default(),
            cfg.obs.clone(),
        ),
        run_with_options(
            &kb,
            &rules,
            &clean,
            &dirty,
            "normalize_fuzzy=off",
            &ApplyOptions {
                normalize_fuzzy: false,
                ..Default::default()
            },
            cfg.obs.clone(),
        ),
    ]
}

/// Detection-without-repair ablation on a sparse UIS KB: positive edges
/// are frequently missing, so the negative semantics often matches with no
/// correction available — exactly the situation §II-C case (2) covers.
pub fn detection_ablation(cfg: &AblationConfig) -> Vec<AblationRow> {
    let world = UisWorld::generate(cfg.size, cfg.seed);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(cfg.error_rate, cfg.seed)
            .with_typo_share(cfg.typo_share)
            .with_excluded(vec![name]),
        &world.semantic_source(),
    );
    let mut profile = KbProfile::dbpedia();
    profile.edge_dropout = 0.35; // a very incomplete KB
    let kb = world.kb(&profile);
    let rules = UisWorld::rules(&kb);
    vec![
        run_with_options(
            &kb,
            &rules,
            &clean,
            &dirty,
            "detect_without_repair=off (default)",
            &ApplyOptions::default(),
            cfg.obs.clone(),
        ),
        run_with_options(
            &kb,
            &rules,
            &clean,
            &dirty,
            "detect_without_repair=on",
            &ApplyOptions {
                detect_without_repair: true,
                ..Default::default()
            },
            cfg.obs.clone(),
        ),
    ]
}

/// One cache-persistence measurement: a whole stream of same-schema
/// relations repaired under one cache regime.
#[derive(Debug, Clone)]
pub struct CachePersistenceRow {
    /// Configuration label.
    pub config: String,
    /// Relations in the stream.
    pub relations: usize,
    /// Total repair seconds across the stream.
    pub seconds: f64,
    /// Aggregated value-cache counters across the stream.
    pub cache: dr_core::CacheStats,
    /// Aggregated phase timings across the stream.
    pub timing: dr_core::PhaseTimings,
    /// Aggregated degraded / failed / quarantined counters across the
    /// stream (all-zero for fault-free unbounded runs).
    pub resilience: dr_core::ResilienceReport,
    /// Total value rewrites (identical across regimes by construction —
    /// exposed so callers can assert it).
    pub changes: usize,
}

/// Cache-persistence ablation: repair `stream_len` dirty variants of the
/// same Nobel relation, cold (a fresh value cache per relation — the
/// registry-free default) vs warm (one [`CacheRegistry`](dr_core::CacheRegistry)
/// shared across the stream). Both regimes share the same `MatchContext`,
/// so the delta isolates value-cache persistence.
pub fn cache_persistence_ablation(
    cfg: &AblationConfig,
    stream_len: usize,
) -> Vec<CachePersistenceRow> {
    let world = NobelWorld::generate(cfg.size, cfg.seed);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let stream: Vec<dr_relation::Relation> = (0..stream_len as u64)
        .map(|i| {
            inject(
                &clean,
                &NoiseSpec::new(cfg.error_rate, cfg.seed ^ (i + 1)).with_excluded(vec![name]),
                &world.semantic_source(),
            )
            .0
        })
        .collect();
    let kb = world.kb(&KbProfile::yago());
    let rules = NobelWorld::rules(&kb);
    let opts = ApplyOptions::default();

    let mut rows = Vec::new();
    let registry = Arc::new(dr_core::CacheRegistry::new(
        dr_core::RegistryConfig::default(),
    ));
    let regimes: [(&str, MatchContext<'_>); 2] = [
        (
            "cold (fresh cache per relation)",
            MatchContext::new(&kb).with_obs_opt(cfg.obs.clone()),
        ),
        (
            "warm (shared registry)",
            MatchContext::with_registry(&kb, registry).with_obs_opt(cfg.obs.clone()),
        ),
    ];
    for (label, ctx) in regimes {
        let mut row = CachePersistenceRow {
            config: label.to_owned(),
            relations: stream.len(),
            seconds: 0.0,
            cache: dr_core::CacheStats::default(),
            timing: dr_core::PhaseTimings::default(),
            resilience: dr_core::ResilienceReport::default(),
            changes: 0,
        };
        for dirty in &stream {
            let mut working = dirty.clone();
            let start = std::time::Instant::now();
            let report = fast_repair(&ctx, &rules, &mut working, &opts);
            row.seconds += start.elapsed().as_secs_f64();
            row.cache += report.cache;
            row.timing += report.timing;
            row.resilience += report.resilience;
            row.changes += report.total_changes();
        }
        rows.push(row);
    }
    rows
}

/// One snapshot warm-start measurement: a whole stream repaired by one
/// registry "process".
#[derive(Debug, Clone)]
pub struct SnapshotWarmStartRow {
    /// Configuration label.
    pub config: String,
    /// Relations in the stream.
    pub relations: usize,
    /// Total repair seconds across the stream.
    pub seconds: f64,
    /// Aggregated value-cache counters across the stream.
    pub cache: dr_core::CacheStats,
    /// Disk-snapshot counters for this process's registry.
    pub snapshot: dr_core::SnapshotStats,
    /// Total value rewrites (identical across processes by construction —
    /// exposed so callers can assert it).
    pub changes: usize,
}

/// Snapshot warm-start ablation (DESIGN.md §4a): repair the same stream of
/// dirty Nobel variants twice, each time through a *fresh*
/// [`CacheRegistry`](dr_core::CacheRegistry) sharing `cache_dir` — the
/// first plays the process that writes the snapshot (cold disk), the
/// second a later process that seeds its value cache from it. Repair
/// outcomes must be identical; the second row's `snapshot.warm_loads` and
/// reduced cache misses are what cross-process persistence buys.
pub fn snapshot_warm_start_ablation(
    cfg: &AblationConfig,
    stream_len: usize,
    cache_dir: &std::path::Path,
) -> Vec<SnapshotWarmStartRow> {
    let world = NobelWorld::generate(cfg.size, cfg.seed);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let stream: Vec<dr_relation::Relation> = (0..stream_len as u64)
        .map(|i| {
            inject(
                &clean,
                &NoiseSpec::new(cfg.error_rate, cfg.seed ^ (i + 1)).with_excluded(vec![name]),
                &world.semantic_source(),
            )
            .0
        })
        .collect();
    let kb = world.kb(&KbProfile::yago());
    let rules = NobelWorld::rules(&kb);
    let opts = ApplyOptions::default();

    let mut rows = Vec::new();
    for label in ["first process (cold disk)", "second process (disk-warm)"] {
        let registry = Arc::new(dr_core::CacheRegistry::new(
            dr_core::RegistryConfig::default().with_cache_dir(cache_dir),
        ));
        let ctx =
            MatchContext::with_registry(&kb, Arc::clone(&registry)).with_obs_opt(cfg.obs.clone());
        let mut row = SnapshotWarmStartRow {
            config: label.to_owned(),
            relations: stream.len(),
            seconds: 0.0,
            cache: dr_core::CacheStats::default(),
            snapshot: dr_core::SnapshotStats::default(),
            changes: 0,
        };
        for dirty in &stream {
            let mut working = dirty.clone();
            let start = std::time::Instant::now();
            let report = fast_repair(&ctx, &rules, &mut working, &opts);
            row.seconds += start.elapsed().as_secs_f64();
            row.cache += report.cache;
            row.changes += report.total_changes();
        }
        registry.persist();
        row.snapshot = registry.stats().snapshot;
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AblationConfig {
        AblationConfig {
            size: 200,
            ..Default::default()
        }
    }

    #[test]
    fn normalization_buys_recall_on_typos() {
        let cfg = AblationConfig {
            typo_share: 1.0, // all typos: normalization is the only repair path
            ..tiny()
        };
        let rows = normalization_ablation(&cfg);
        assert_eq!(rows.len(), 2);
        let on = &rows[0];
        let off = &rows[1];
        assert!(
            on.quality.recall > off.quality.recall + 0.2,
            "normalization should dominate on typos: on {:?} vs off {:?}",
            on.quality,
            off.quality
        );
        // Without normalization, typos are never *rewritten*.
        assert_eq!(off.quality.repaired, 0);
    }

    #[test]
    fn detection_flags_unrepairable_errors_without_hurting_precision() {
        let rows = detection_ablation(&tiny());
        let off = &rows[0];
        let on = &rows[1];
        assert_eq!(off.flagged, 0, "default mode never flags");
        assert!(
            on.flagged > 0,
            "a 35%-dropout KB leaves detectable-but-unrepairable errors"
        );
        assert!(on.pos >= off.pos, "detection can only add marks");
        // Repair quality is untouched (detection never rewrites values).
        assert_eq!(on.quality.repaired, off.quality.repaired);
        assert_eq!(on.quality.correct, off.quality.correct);
    }

    #[test]
    fn cache_persistence_is_transparent_and_warm_hits_accumulate() {
        let rows = cache_persistence_ablation(&tiny(), 4);
        assert_eq!(rows.len(), 2);
        let cold = &rows[0];
        let warm = &rows[1];
        // The registry must be invisible to repair outcomes.
        assert_eq!(cold.changes, warm.changes);
        assert!(cold.changes > 0, "stream actually repaired something");
        // Warm-starting converts cold misses into hits: relations 2..n of
        // the stream probe values already cached by their predecessors.
        // (Total hit counts are not comparable across regimes — a miss on an
        // edge probe performs internal node lookups a hit skips — but every
        // repeated-value miss must disappear.)
        assert!(
            warm.cache.misses() < cold.cache.misses(),
            "warm {:?} vs cold {:?}",
            warm.cache,
            cold.cache
        );
        assert!(warm.cache.hits() > 0);
    }

    #[test]
    fn snapshot_warm_start_is_transparent_and_loads_from_disk() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dr-ablation-snap-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create cache dir");

        let rows = snapshot_warm_start_ablation(&tiny(), 3, &dir);
        assert_eq!(rows.len(), 2);
        let first = &rows[0];
        let second = &rows[1];

        // The snapshot must be invisible to repair outcomes.
        assert_eq!(first.changes, second.changes);
        assert!(first.changes > 0, "stream actually repaired something");

        // Process one starts from an empty directory and writes back.
        assert_eq!(first.snapshot.warm_loads, 0, "{:?}", first.snapshot);
        assert_eq!(first.snapshot.cold_loads, 1);
        assert!(first.snapshot.saves >= 1);

        // Process two seeds from disk: a warm load, no rejection, and the
        // imported entries turn the first relation's misses into hits.
        assert_eq!(second.snapshot.warm_loads, 1, "{:?}", second.snapshot);
        assert_eq!(second.snapshot.rejected, 0);
        assert!(
            second.cache.misses() < first.cache.misses(),
            "disk-warm {:?} vs cold {:?}",
            second.cache,
            first.cache
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
