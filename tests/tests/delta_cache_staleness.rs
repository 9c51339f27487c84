//! Staleness soundness for footprint-based cache invalidation and
//! selective re-repair (DESIGN.md §10):
//!
//! 1. After any delta, no surviving [`dr_core::ValueCache`] entry's
//!    recorded read footprint intersects the delta's write footprint —
//!    `count_stale` must report zero once `invalidate` (or the registry's
//!    `apply_delta` migration) has run.
//! 2. `parallel_repair_selective` — re-running only the rows whose prior
//!    provenance depended on a changed KB region — produces outcomes
//!    identical to a full re-repair, on the Nobel and UIS fixture worlds,
//!    at one and four worker threads. The prior and the selective pass
//!    run on registry contexts, the only kind whose passes record
//!    footprints and whose selective calls splice rather than fall back
//!    to a full pass; the registry migrates its cache across the delta.
//!
//! Set `DR_QUICK=1` to shrink the property-test case counts.

use std::sync::Arc;

use dr_core::{
    parallel_repair, parallel_repair_selective, CacheRegistry, DetectiveRule, MatchContext,
    ParallelOptions, RegistryConfig,
};
use dr_datasets::{KbProfile, NobelWorld, UisWorld};
use dr_integration_tests::differential::{proptest_cases, random_delta};
use dr_kb::{DeltaNode, KbDelta, KnowledgeBase};
use dr_relation::noise::{inject, NoiseSpec};
use dr_relation::Relation;
use proptest::prelude::*;

/// Warms a registry-backed value cache by repairing `dirty` against `kb`,
/// then returns the cache.
fn warm_cache(
    kb: &KnowledgeBase,
    rules: &[DetectiveRule],
    dirty: &Relation,
    registry: &Arc<CacheRegistry>,
) -> Arc<dr_core::ValueCache> {
    let ctx = MatchContext::with_registry(kb, Arc::clone(registry));
    let mut relation = dirty.clone();
    let opts = ParallelOptions {
        threads: 2,
        ..Default::default()
    };
    parallel_repair(&ctx, rules, &mut relation, &opts);
    let cache = registry.cache_for(kb, dirty.schema());
    assert!(!cache.is_empty(), "repair must populate the value cache");
    cache
}

/// Asserts full re-repair and selective re-repair agree cell-for-cell and
/// report-for-report after `delta` moves `kb` to the next generation. The
/// prior and the selective pass share one registry, which the delta
/// migrates; the full re-repair runs on a fresh registry-free context.
fn assert_selective_matches_full(
    kb: &KnowledgeBase,
    rules: &[DetectiveRule],
    dirty: &Relation,
    delta: &KbDelta,
) {
    for threads in [1usize, 4] {
        let opts = ParallelOptions {
            threads,
            ..Default::default()
        };

        let registry = Arc::new(CacheRegistry::new(RegistryConfig::default()));
        let ctx = MatchContext::with_registry(kb, Arc::clone(&registry));
        let mut prior_repaired = dirty.clone();
        let prior = parallel_repair(&ctx, rules, &mut prior_repaired, &opts);
        assert_eq!(
            prior.footprints.len(),
            dirty.len(),
            "a registry pass records a footprint per row, so selective splices"
        );

        let mut next_kb = kb.clone();
        let footprint = next_kb
            .apply_delta(delta)
            .expect("test deltas keep the taxonomy acyclic");
        registry.apply_delta(
            kb.generation(),
            next_kb.generation(),
            next_kb.content_hash(),
            &footprint,
        );
        let next_ctx = MatchContext::with_registry(&next_kb, Arc::clone(&registry));

        let mut full = dirty.clone();
        let full_report = parallel_repair(&MatchContext::new(&next_kb), rules, &mut full, &opts);

        let mut selective = dirty.clone();
        let selective_report = parallel_repair_selective(
            &next_ctx,
            rules,
            &mut selective,
            &opts,
            &prior,
            &prior_repaired,
            &footprint,
        );

        let selected = selective_report
            .selected_rows
            .expect("selective mode reports its selection");
        assert!(selected <= dirty.len());
        let label = format!("selective vs full ({threads} threads, {selected} selected)");
        assert_eq!(full.len(), selective.len(), "{label}: row counts");
        for cell in full.cell_refs() {
            assert_eq!(
                full.value(cell),
                selective.value(cell),
                "{label}: value at {cell:?}"
            );
            assert_eq!(
                full.tuple(cell.row).is_positive(cell.attr),
                selective.tuple(cell.row).is_positive(cell.attr),
                "{label}: positive mark at {cell:?}"
            );
        }
        assert_eq!(
            full_report.tuples, selective_report.tuples,
            "{label}: per-tuple reports diverged"
        );
    }
}

fn nobel_fixture(rows: usize, seed: u64) -> (KnowledgeBase, Vec<DetectiveRule>, Relation) {
    let world = NobelWorld::generate(rows, seed);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(0.15, seed).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    let kb = world.kb(&KbProfile::yago());
    let rules = NobelWorld::rules(&kb);
    (kb, rules, dirty)
}

fn uis_fixture(rows: usize, seed: u64) -> (KnowledgeBase, Vec<DetectiveRule>, Relation) {
    let world = UisWorld::generate(rows, seed);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(0.15, seed).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    let kb = world.kb(&KbProfile::yago());
    let rules = UisWorld::rules(&kb);
    (kb, rules, dirty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(24)))]

    /// Staleness soundness, direct form: warm a cache through repair,
    /// apply an arbitrary delta, invalidate with its write footprint — no
    /// surviving entry may still intersect it.
    #[test]
    fn no_surviving_entry_intersects_the_delta_footprint(delta_seed in any::<u64>()) {
        let (kb, rules, dirty) = nobel_fixture(40, 7);
        let registry = Arc::new(CacheRegistry::new(RegistryConfig::default()));
        let cache = warm_cache(&kb, &rules, &dirty, &registry);

        let delta = random_delta(delta_seed, &kb);
        let mut next = kb.clone();
        let Ok(footprint) = next.apply_delta(&delta) else {
            return Ok(()); // cycle-rejected delta: nothing to invalidate
        };
        cache.invalidate(&footprint);
        prop_assert_eq!(
            cache.count_stale(&footprint),
            0,
            "entries intersecting the delta footprint survived invalidation"
        );
    }

    /// Staleness soundness, registry form: `CacheRegistry::apply_delta`
    /// migrates the cache to the next generation with zero stale entries
    /// surviving, and accounts every swept entry in its stats.
    #[test]
    fn registry_migration_leaves_no_stale_entries(delta_seed in any::<u64>()) {
        let (kb, rules, dirty) = nobel_fixture(40, 11);
        let registry = Arc::new(CacheRegistry::new(RegistryConfig::default()));
        let cache = warm_cache(&kb, &rules, &dirty, &registry);
        let entries_before = cache.len();

        let delta = random_delta(delta_seed, &kb);
        let mut next = kb.clone();
        let Ok(footprint) = next.apply_delta(&delta) else {
            return Ok(());
        };
        let swept = registry.apply_delta(
            kb.generation(),
            next.generation(),
            next.content_hash(),
            &footprint,
        );
        prop_assert_eq!(registry.stats().invalidated_entries, swept);

        // The migrated cache is reachable under the *next* generation…
        let migrated = registry.cache_for(&next, dirty.schema());
        prop_assert!(Arc::ptr_eq(&cache, &migrated), "migration must re-key, not recreate");
        prop_assert_eq!(migrated.count_stale(&footprint), 0);
        // …and everything the delta did not touch survived warm.
        prop_assert_eq!(migrated.len() as u64, entries_before as u64 - swept);
    }

    /// Selective re-repair ≡ full re-repair under arbitrary deltas on the
    /// Nobel world.
    #[test]
    fn nobel_selective_matches_full(delta_seed in any::<u64>()) {
        let (kb, rules, dirty) = nobel_fixture(36, 13);
        let delta = random_delta(delta_seed, &kb);
        if kb.clone().apply_delta(&delta).is_ok() {
            assert_selective_matches_full(&kb, &rules, &dirty, &delta);
        }
    }

    /// Selective re-repair ≡ full re-repair under arbitrary deltas on the
    /// UIS world.
    #[test]
    fn uis_selective_matches_full(delta_seed in any::<u64>()) {
        let (kb, rules, dirty) = uis_fixture(36, 17);
        let delta = random_delta(delta_seed, &kb);
        if kb.clone().apply_delta(&delta).is_ok() {
            assert_selective_matches_full(&kb, &rules, &dirty, &delta);
        }
    }
}

/// A small edge-only delta must select strictly fewer rows than a full
/// re-repair re-runs — the economic point of footprint-based selection —
/// while still agreeing with it exactly.
#[test]
fn small_edge_delta_selects_a_strict_subset() {
    let (kb, rules, dirty) = nobel_fixture(80, 19);
    // Retract one real worksAt edge: only rows whose provenance touched
    // that adjacency pair should re-run.
    let (subject, pred, object) = kb
        .triples()
        .find_map(|(s, p, o)| {
            (kb.pred_name(p) == "worksAt").then(|| {
                let object = match o {
                    dr_kb::Node::Instance(i) => DeltaNode::Instance(kb.instance_label(i).into()),
                    dr_kb::Node::Literal(l) => DeltaNode::Literal(kb.literal_value(l).into()),
                };
                (
                    kb.instance_label(s).to_owned(),
                    kb.pred_name(p).to_owned(),
                    object,
                )
            })
        })
        .expect("nobel world has worksAt edges");
    let mut delta = KbDelta::new();
    delta.retract(&subject, &pred, object);

    let opts = ParallelOptions {
        threads: 2,
        ..Default::default()
    };
    let registry = Arc::new(CacheRegistry::new(RegistryConfig::default()));
    let ctx = MatchContext::with_registry(&kb, Arc::clone(&registry));
    let mut prior_repaired = dirty.clone();
    let prior = parallel_repair(&ctx, &rules, &mut prior_repaired, &opts);
    assert_eq!(prior.footprints.len(), dirty.len());

    let mut next_kb = kb.clone();
    let footprint = next_kb.apply_delta(&delta).expect("edge delta applies");
    registry.apply_delta(
        kb.generation(),
        next_kb.generation(),
        next_kb.content_hash(),
        &footprint,
    );
    let next_ctx = MatchContext::with_registry(&next_kb, Arc::clone(&registry));
    let mut selective = dirty.clone();
    let report = parallel_repair_selective(
        &next_ctx,
        &rules,
        &mut selective,
        &opts,
        &prior,
        &prior_repaired,
        &footprint,
    );
    let selected = report
        .selected_rows
        .expect("selective mode reports selection");
    assert!(
        selected < dirty.len(),
        "a one-edge delta must not force re-repairing all {} rows (selected {selected})",
        dirty.len()
    );
    assert_selective_matches_full(&kb, &rules, &dirty, &delta);
}
