//! Ablations of the design choices DESIGN.md §4 calls out:
//!
//! * **Speed (§IV-B, Exp-3)** — the paper's two repair-time optimisations
//!   timed in isolation: fRepair's rule order plus its shared caches
//!   against order-only and bRepair, the relation-scoped
//!   [`ValueCache`](dr_core::ValueCache) against per-tuple caches only,
//!   and the PASS-JOIN [`SignatureIndex`] against a linear scan. Every
//!   variant must produce the same output before any time is reported.
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
use dr_core::repair::basic::basic_repair;
use dr_core::repair::rule_graph::RuleGraph;
use dr_core::{
    apply_rule_cached, fast_repair, parallel_repair, ApplyOptions, DetectiveRule, ElementCache,
    FastRepairer, MatchContext, ParallelOptions,
};
use dr_datasets::{KbProfile, NobelWorld, UisWorld};
use dr_relation::noise::{inject, NoiseSpec};
use dr_relation::Relation;
use dr_simmatch::{normalize, within_bool, SignatureIndex};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

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

/// One speed-ablation measurement: the best of N wall-clock runs.
#[derive(Debug, Clone)]
pub struct SpeedRow {
    /// What each run does (a whole-relation repair or a lookup batch).
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// Best-of-N wall seconds.
    pub seconds: f64,
    /// Value-cache hit rate, for configurations that share a
    /// [`ValueCache`](dr_core::ValueCache) across tuples.
    pub hit_rate: Option<f64>,
}

/// Runs `run` `reps` times; returns the fastest wall time and the last
/// output.
fn best_of<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let value = run();
        best = best.min(started.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.expect("at least one rep"))
}

/// fRepair's check order but a fresh element cache per rule application:
/// the rule-order optimisation without the shared cache.
fn order_only_repair(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    relation: &mut Relation,
    opts: &ApplyOptions,
) {
    let order = RuleGraph::build(rules).check_order();
    for row in 0..relation.len() {
        let tuple = relation.tuple_mut(row);
        for group in &order {
            let mut remaining = group.clone();
            while let Some(pos) = remaining.iter().position(|&ri| {
                let mut cache = ElementCache::new(); // fresh: no sharing
                apply_rule_cached(ctx, &rules[ri], tuple, opts, &mut cache).applied()
            }) {
                remaining.remove(pos);
            }
        }
    }
}

/// fRepair with per-tuple element caches only: no relation-scoped
/// [`ValueCache`](dr_core::ValueCache) shared across tuples.
fn tuple_only_repair(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    relation: &mut Relation,
    opts: &ApplyOptions,
) {
    let repairer = FastRepairer::new(rules);
    for row in 0..relation.len() {
        repairer.repair_tuple(ctx, relation.tuple_mut(row), opts);
    }
}

/// Panics unless `got` equals `expected` cell for cell: values and marks.
fn assert_same_relation(expected: &Relation, got: &Relation, label: &str) {
    assert_eq!(expected.len(), got.len(), "{label}: row count");
    for cell in expected.cell_refs() {
        assert_eq!(
            expected.value(cell),
            got.value(cell),
            "{label}: value at {cell:?}"
        );
        assert_eq!(
            expected.tuple(cell.row).mark(cell.attr),
            got.tuple(cell.row).mark(cell.attr),
            "{label}: mark at {cell:?}"
        );
    }
}

/// Speed ablation of the paper's §IV-B optimisations (Exp-3), each timed
/// as the best of `reps` runs:
///
/// * repairing a noisy UIS relation with fRepair (rule order + shared
///   caches) at 1 and 2 threads, with per-tuple caches only, with the rule
///   order but a fresh cache per rule, and with bRepair (neither);
/// * looking up 50 perturbed street names among 2,000 with the PASS-JOIN
///   signature index and with a linear scan.
///
/// Panics before returning any time unless every repair variant leaves
/// the same relation, cell for cell, and the index returns the same id
/// set as the scan for every query.
pub fn speed_ablation(cfg: &AblationConfig, reps: usize) -> Vec<SpeedRow> {
    let world = UisWorld::generate(cfg.size, cfg.seed);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(cfg.error_rate, cfg.seed).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    let kb = world.kb(&KbProfile::yago());
    let rules = UisWorld::rules(&kb);
    let ctx = MatchContext::new(&kb).with_obs_opt(cfg.obs.clone());
    let opts = ApplyOptions::default();
    let two_threads = ParallelOptions {
        threads: 2,
        ..Default::default()
    };

    type Variant<'v> = &'v dyn Fn(&mut Relation) -> Option<f64>;
    let variants: [(&str, Variant<'_>); 5] = [
        ("fRepair: rule order + shared caches, 1 thread", &|r| {
            Some(fast_repair(&ctx, &rules, r, &opts).cache.hit_rate())
        }),
        ("fRepair: rule order + shared caches, 2 threads", &|r| {
            Some(
                parallel_repair(&ctx, &rules, r, &two_threads)
                    .cache
                    .hit_rate(),
            )
        }),
        ("per-tuple ElementCache only (no ValueCache)", &|r| {
            tuple_only_repair(&ctx, &rules, r, &opts);
            None
        }),
        ("rule order only (fresh ElementCache per rule)", &|r| {
            order_only_repair(&ctx, &rules, r, &opts);
            None
        }),
        ("bRepair: neither", &|r| {
            basic_repair(&ctx, &rules, r, &opts);
            None
        }),
    ];
    let workload = format!("repair UIS x{}", dirty.len());
    let mut rows = Vec::new();
    let mut reference: Option<Relation> = None;
    for (config, run) in variants {
        let (seconds, (repaired, hit_rate)) = best_of(reps, || {
            let mut working = dirty.clone();
            let hit_rate = run(&mut working);
            (working, hit_rate)
        });
        match &reference {
            Some(expected) => assert_same_relation(expected, &repaired, config),
            None => reference = Some(repaired),
        }
        rows.push(SpeedRow {
            workload: workload.clone(),
            config: config.to_owned(),
            seconds,
            hit_rate,
        });
    }

    // Street names, each query the name with its first two chars swapped.
    const K: u32 = 2;
    let labels: Vec<String> = (0..2_000).map(dr_datasets::names::street).collect();
    let queries: Vec<String> = labels
        .iter()
        .take(50)
        .map(|s| {
            let mut chars: Vec<char> = s.chars().collect();
            chars.swap(0, 1);
            chars.into_iter().collect()
        })
        .collect();
    let index = SignatureIndex::build(
        K,
        labels
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str())),
    );
    // The index normalizes labels once at build time and each query per
    // lookup; the scan does the same, so both answer the same question.
    let normalized: Vec<String> = labels.iter().map(|s| normalize(s)).collect();
    let (index_s, by_index) = best_of(reps, || {
        queries
            .iter()
            .map(|q| index.lookup(q).iter().map(|m| m.id).collect())
            .collect::<Vec<BTreeSet<u32>>>()
    });
    let (scan_s, by_scan) = best_of(reps, || {
        queries
            .iter()
            .map(|q| {
                let q = normalize(q);
                (0..normalized.len() as u32)
                    .filter(|&i| within_bool(&q, &normalized[i as usize], K as usize))
                    .collect()
            })
            .collect::<Vec<BTreeSet<u32>>>()
    });
    for ((q, got), expected) in queries.iter().zip(&by_index).zip(&by_scan) {
        assert_eq!(got, expected, "signature index vs linear scan for {q:?}");
    }
    let workload = format!("{} lookups, {} labels, k={K}", queries.len(), labels.len());
    for (config, seconds) in [
        ("PASS-JOIN SignatureIndex", index_s),
        ("linear scan (bit-parallel ED)", scan_s),
    ] {
        rows.push(SpeedRow {
            workload: workload.clone(),
            config: config.to_owned(),
            seconds,
            hit_rate: None,
        });
    }
    rows
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
    fn speed_ablation_variants_agree() {
        // The driver itself asserts that every variant agrees; this pins
        // the row set and that the shared-cache rows report a hit rate.
        let rows = speed_ablation(&tiny(), 1);
        assert_eq!(rows.len(), 7);
        assert!(rows[..2].iter().all(|r| r.hit_rate.is_some()));
        assert!(rows[2..].iter().all(|r| r.hit_rate.is_none()));
        assert!(rows.iter().all(|r| r.seconds.is_finite()));
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
