//! Cross-crate property tests: randomized worlds and noise, checking the
//! invariants DESIGN.md §7 lists at the whole-pipeline level.

use dr_core::fast_repair;
use dr_core::repair::basic::basic_repair;
use dr_core::{parallel_repair, ApplyOptions, MatchContext, ParallelOptions};
use dr_datasets::{KbFlavor, KbProfile, NobelWorld, UisWorld};
use dr_relation::noise::{inject, NoiseSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Basic and fast repair agree on arbitrary seeds, sizes, rates, and
    /// KB flavors (chase equivalence).
    #[test]
    fn algorithms_agree_on_random_worlds(
        seed in 0u64..1_000,
        n in 20usize..80,
        rate in 0.0f64..0.25,
        yago in any::<bool>(),
    ) {
        let world = NobelWorld::generate(n, seed);
        let clean = world.clean_relation();
        let name = clean.schema().attr_expect("Name");
        let (dirty, _) = inject(
            &clean,
            &NoiseSpec::new(rate, seed).with_excluded(vec![name]),
            &world.semantic_source(),
        );
        let flavor = if yago { KbFlavor::YagoLike } else { KbFlavor::DbpediaLike };
        let kb = world.kb(&KbProfile::of(flavor));
        let rules = NobelWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);

        let mut a = dirty.clone();
        basic_repair(&ctx, &rules, &mut a, &ApplyOptions::default());
        let mut b = dirty.clone();
        fast_repair(&ctx, &rules, &mut b, &ApplyOptions::default());
        for cell in dirty.cell_refs() {
            prop_assert_eq!(a.value(cell), b.value(cell), "diverged at {:?}", cell);
        }
    }

    /// Repair never rewrites a cell that matches the ground truth AND is
    /// positively marked afterwards to a different value (soundness of
    /// marking): marked cells hold KB-backed values.
    #[test]
    fn repair_changes_are_conservative(seed in 0u64..500, rate in 0.05f64..0.2) {
        let world = UisWorld::generate(60, seed);
        let clean = world.clean_relation();
        let name = clean.schema().attr_expect("Name");
        let (dirty, log) = inject(
            &clean,
            &NoiseSpec::new(rate, seed).with_excluded(vec![name]),
            &world.semantic_source(),
        );
        let kb = world.kb(&KbProfile::yago());
        let rules = UisWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);
        let mut repaired = dirty.clone();
        let report = fast_repair(&ctx, &rules, &mut repaired, &ApplyOptions::default());

        // Every rewrite targets an injected-dirty cell (UIS has no
        // multi-version sources, so no cascades).
        for (row, tr) in report.tuples.iter().enumerate() {
            for (col, _, _) in tr.rewrites() {
                let was_injected = log
                    .iter()
                    .any(|e| e.cell.row == row && e.cell.attr == col);
                prop_assert!(was_injected, "rewrote an uninjected cell at row {row}");
            }
        }
    }

    /// The work-stealing parallel repair with its shared relation-scoped
    /// value cache is cell-for-cell and mark-for-mark identical to the
    /// sequential fast repair, over randomized duplicate-heavy relations
    /// (repeated rows maximize cross-tuple cache reuse — exactly where a
    /// staleness or ordering bug would surface) for 1, 2, 4, and 8 workers.
    #[test]
    fn parallel_repair_is_bit_identical_to_sequential(
        seed in 0u64..500,
        n in 10usize..40,
        rate in 0.0f64..0.25,
        copies in 2usize..5,
        yago in any::<bool>(),
    ) {
        let world = UisWorld::generate(n, seed);
        let clean = world.clean_relation();
        let name = clean.schema().attr_expect("Name");
        let (dirty, _) = inject(
            &clean,
            &NoiseSpec::new(rate, seed).with_excluded(vec![name]),
            &world.semantic_source(),
        );
        // Duplicate the dirty rows so the same values recur across tuples.
        let mut heavy = dr_relation::Relation::new(dirty.schema().clone());
        for _ in 0..copies {
            for t in dirty.tuples() {
                heavy.push(t.clone());
            }
        }
        let flavor = if yago { KbFlavor::YagoLike } else { KbFlavor::DbpediaLike };
        let kb = world.kb(&KbProfile::of(flavor));
        let rules = UisWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);

        let mut sequential = heavy.clone();
        let seq_report = fast_repair(&ctx, &rules, &mut sequential, &ApplyOptions::default());

        for threads in [1usize, 2, 4, 8] {
            let mut parallel = heavy.clone();
            let par_report = parallel_repair(
                &ctx,
                &rules,
                &mut parallel,
                &ParallelOptions { threads, ..Default::default() },
            );
            for cell in sequential.cell_refs() {
                prop_assert_eq!(
                    sequential.value(cell),
                    parallel.value(cell),
                    "{} threads diverged at {:?}",
                    threads,
                    cell
                );
                prop_assert_eq!(
                    sequential.tuple(cell.row).is_positive(cell.attr),
                    parallel.tuple(cell.row).is_positive(cell.attr),
                    "{} threads: marks diverged at {:?}",
                    threads,
                    cell
                );
            }
            prop_assert_eq!(seq_report.tuples.len(), par_report.tuples.len());
            for (a, b) in seq_report.tuples.iter().zip(&par_report.tuples) {
                prop_assert_eq!(a, b);
            }
        }
    }

    /// A `CacheRegistry` shared across a stream of same-schema relations is
    /// invisible to repair outcomes: registry-backed repair — sequential and
    /// parallel at 1, 2, 4, and 8 workers — is bit-identical to registry-free
    /// sequential repair on every relation of the stream, even though every
    /// run after the first warm-starts from its predecessors' value cache.
    #[test]
    fn registry_backed_repair_is_bit_identical_to_registry_free(
        seed in 0u64..500,
        n in 10usize..30,
        rate in 0.0f64..0.25,
        stream_len in 3usize..6,
        yago in any::<bool>(),
    ) {
        let world = UisWorld::generate(n, seed);
        let clean = world.clean_relation();
        let name = clean.schema().attr_expect("Name");
        let stream: Vec<dr_relation::Relation> = (0..stream_len as u64)
            .map(|i| {
                inject(
                    &clean,
                    &NoiseSpec::new(rate, seed ^ (i + 1)).with_excluded(vec![name]),
                    &world.semantic_source(),
                )
                .0
            })
            .collect();
        let flavor = if yago { KbFlavor::YagoLike } else { KbFlavor::DbpediaLike };
        let kb = world.kb(&KbProfile::of(flavor));
        let rules = UisWorld::rules(&kb);

        let plain_ctx = MatchContext::new(&kb);
        let registry = std::sync::Arc::new(dr_core::CacheRegistry::new(
            dr_core::RegistryConfig::default(),
        ));
        let reg_ctx = MatchContext::with_registry(&kb, registry.clone());

        for dirty in &stream {
            let mut baseline = dirty.clone();
            let base_report = fast_repair(&plain_ctx, &rules, &mut baseline, &ApplyOptions::default());

            let mut warm = dirty.clone();
            let warm_report = fast_repair(&reg_ctx, &rules, &mut warm, &ApplyOptions::default());
            for cell in baseline.cell_refs() {
                prop_assert_eq!(
                    baseline.value(cell),
                    warm.value(cell),
                    "registry-backed sequential diverged at {:?}",
                    cell
                );
                prop_assert_eq!(
                    baseline.tuple(cell.row).is_positive(cell.attr),
                    warm.tuple(cell.row).is_positive(cell.attr),
                    "registry-backed sequential: marks diverged at {:?}",
                    cell
                );
            }
            prop_assert_eq!(&base_report.tuples, &warm_report.tuples);

            for threads in [1usize, 2, 4, 8] {
                let mut parallel = dirty.clone();
                let par_report = parallel_repair(
                    &reg_ctx,
                    &rules,
                    &mut parallel,
                    &ParallelOptions { threads, ..Default::default() },
                );
                for cell in baseline.cell_refs() {
                    prop_assert_eq!(
                        baseline.value(cell),
                        parallel.value(cell),
                        "registry-backed {} threads diverged at {:?}",
                        threads,
                        cell
                    );
                    prop_assert_eq!(
                        baseline.tuple(cell.row).is_positive(cell.attr),
                        parallel.tuple(cell.row).is_positive(cell.attr),
                        "registry-backed {} threads: marks diverged at {:?}",
                        threads,
                        cell
                    );
                }
                prop_assert_eq!(&base_report.tuples, &par_report.tuples);
            }
        }
        // The stream really exercised warm-starts: every repair after the
        // first asked the registry for the same (KB, schema) cache.
        let stats = registry.stats();
        prop_assert_eq!(stats.cold_misses, 1);
        prop_assert!(stats.warm_hits >= stream.len() as u64 * 5 - 1);
    }

    /// Zero noise ⇒ zero rewrites, for every KB flavor (pure marking).
    #[test]
    fn clean_input_is_never_rewritten(seed in 0u64..500, yago in any::<bool>()) {
        let world = NobelWorld::generate(40, seed);
        let clean = world.clean_relation();
        let flavor = if yago { KbFlavor::YagoLike } else { KbFlavor::DbpediaLike };
        let kb = world.kb(&KbProfile::of(flavor));
        let rules = NobelWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);
        let mut working = clean.clone();
        let report = fast_repair(&ctx, &rules, &mut working, &ApplyOptions::default());
        prop_assert_eq!(report.total_changes(), 0);
        for cell in clean.cell_refs() {
            prop_assert_eq!(working.value(cell), clean.value(cell));
        }
    }
}
