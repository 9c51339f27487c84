//! Differential tests for the disk snapshot layer (DESIGN.md §4a): a
//! registry warm-started from another registry's on-disk snapshot must be
//! *invisible* in repair outcomes — bit-identical to a cold, registry-free
//! run at every thread count — while its stats prove the snapshot was
//! actually loaded rather than silently cold-started.

use dr_core::fast_repair;
use dr_core::{
    parallel_repair, ApplyOptions, CacheRegistry, MatchContext, ParallelOptions, RegistryConfig,
};
use dr_datasets::{KbFlavor, KbProfile, UisWorld};
use dr_relation::noise::{inject, NoiseSpec};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// A unique, created scratch directory under the system temp dir (no
/// tempfile crate in the workspace; pid + counter keeps concurrent test
/// processes and cases apart).
fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dr-snap-eq-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A duplicate-heavy dirty relation (repeated rows maximize value-cache
/// reuse — exactly the entries a snapshot carries across processes).
fn heavy_dirty(world: &UisWorld, rate: f64, seed: u64, copies: usize) -> dr_relation::Relation {
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(rate, seed).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    let mut heavy = dr_relation::Relation::new(dirty.schema().clone());
    for _ in 0..copies {
        for t in dirty.tuples() {
            heavy.push(t.clone());
        }
    }
    heavy
}

proptest! {
    // Each case does real file I/O (persist + reload); keep the case count
    // low and the relations small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The ISSUE acceptance property: repair through a registry warm-started
    /// from *disk* — a snapshot persisted by a different registry instance
    /// over a *rebuilt* (same-content) KB — is bit-identical to a cold,
    /// registry-free repair at 1, 2, 4, and 8 workers, and the fresh
    /// registry's stats report the warm load.
    #[test]
    fn disk_warm_repair_is_bit_identical_to_cold(
        seed in 0u64..500,
        n in 10usize..30,
        rate in 0.02f64..0.25,
        copies in 2usize..4,
        yago in any::<bool>(),
    ) {
        let dir = scratch_dir("prop");
        let flavor = if yago { KbFlavor::YagoLike } else { KbFlavor::DbpediaLike };

        let world = UisWorld::generate(n, seed);
        let dirty = heavy_dirty(&world, rate, seed, copies);
        let kb = world.kb(&KbProfile::of(flavor));
        let rules = UisWorld::rules(&kb);

        // Cold baseline: registry-free sequential repair.
        let plain_ctx = MatchContext::new(&kb);
        let mut baseline = dirty.clone();
        let base_report = fast_repair(&plain_ctx, &rules, &mut baseline, &ApplyOptions::default());

        // "Process one": repair through a persisting registry, then flush
        // its value cache to disk.
        let writer = Arc::new(CacheRegistry::new(
            RegistryConfig::default().with_cache_dir(&dir),
        ));
        let writer_ctx = MatchContext::with_registry(&kb, Arc::clone(&writer));
        let mut first = dirty.clone();
        fast_repair(&writer_ctx, &rules, &mut first, &ApplyOptions::default());
        let saved = writer.persist();
        prop_assert!(saved >= 1, "repair populated a cache worth persisting");
        prop_assert_eq!(writer.stats().snapshot.saves, saved as u64);

        // "Process two": a fresh registry over a *rebuilt* KB. Same
        // deterministic construction ⇒ same content hash ⇒ the snapshot is
        // accepted, and the imported entries surface in the cache stats.
        let kb2 = world.kb(&KbProfile::of(flavor));
        let rules2 = UisWorld::rules(&kb2);
        let reader = Arc::new(CacheRegistry::new(
            RegistryConfig::default().with_cache_dir(&dir),
        ));
        let cache = reader.cache_for(&kb2, dirty.schema());
        prop_assert!(
            cache.stats().snapshot_warm > 0,
            "fresh registry imported the other registry's snapshot: {:?}",
            cache.stats()
        );
        let stats = reader.stats();
        prop_assert_eq!(stats.snapshot.warm_loads, 1);
        prop_assert_eq!(stats.snapshot.rejected, 0);
        prop_assert!(reader.snapshot_diagnostics().is_empty(),
            "clean load leaves no diagnostics: {:?}", reader.snapshot_diagnostics());

        // Disk-warm repair is bit-identical to the cold baseline, at every
        // thread count, sequential and parallel.
        let reader_ctx = MatchContext::with_registry(&kb2, Arc::clone(&reader));
        let mut warm_seq = dirty.clone();
        let warm_report = fast_repair(&reader_ctx, &rules2, &mut warm_seq, &ApplyOptions::default());
        for cell in baseline.cell_refs() {
            prop_assert_eq!(
                baseline.value(cell),
                warm_seq.value(cell),
                "disk-warm sequential diverged at {:?}",
                cell
            );
        }
        prop_assert_eq!(&base_report.tuples, &warm_report.tuples);

        for threads in [1usize, 2, 4, 8] {
            let mut parallel = dirty.clone();
            let par_report = parallel_repair(
                &reader_ctx,
                &rules2,
                &mut parallel,
                &ParallelOptions { threads, ..Default::default() },
            );
            for cell in baseline.cell_refs() {
                prop_assert_eq!(
                    baseline.value(cell),
                    parallel.value(cell),
                    "disk-warm {} threads diverged at {:?}",
                    threads,
                    cell
                );
                prop_assert_eq!(
                    baseline.tuple(cell.row).is_positive(cell.attr),
                    parallel.tuple(cell.row).is_positive(cell.attr),
                    "disk-warm {} threads: marks diverged at {:?}",
                    threads,
                    cell
                );
            }
            prop_assert_eq!(&base_report.tuples, &par_report.tuples);
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A snapshot is keyed by KB *content*: a registry pointed at the same
/// cache directory but holding a different KB (one more noise-free world
/// entity) must cold-start — absence of the matching snapshot file is not
/// an error and leaves no diagnostic.
#[test]
fn different_kb_content_cold_starts_cleanly() {
    let dir = scratch_dir("mismatch");
    let world = UisWorld::generate(16, 7);
    let dirty = heavy_dirty(&world, 0.1, 7, 2);
    let kb = world.kb(&KbProfile::yago());
    let rules = UisWorld::rules(&kb);

    let writer = Arc::new(CacheRegistry::new(
        RegistryConfig::default().with_cache_dir(&dir),
    ));
    let ctx = MatchContext::with_registry(&kb, Arc::clone(&writer));
    let mut first = dirty.clone();
    fast_repair(&ctx, &rules, &mut first, &ApplyOptions::default());
    assert!(writer.persist() >= 1);

    // A different world ⇒ different KB content ⇒ different snapshot key.
    let other_world = UisWorld::generate(17, 8);
    let other_kb = other_world.kb(&KbProfile::yago());
    let reader = Arc::new(CacheRegistry::new(
        RegistryConfig::default().with_cache_dir(&dir),
    ));
    let cache = reader.cache_for(&other_kb, dirty.schema());
    assert_eq!(cache.stats().snapshot_warm, 0, "no matching snapshot");
    assert_eq!(cache.stats().snapshot_cold, 1);
    let stats = reader.stats();
    assert_eq!(stats.snapshot.warm_loads, 0);
    assert_eq!(stats.snapshot.cold_loads, 1);
    assert_eq!(stats.snapshot.rejected, 0, "absence is not a rejection");
    assert!(reader.snapshot_diagnostics().is_empty());

    std::fs::remove_dir_all(&dir).ok();
}
