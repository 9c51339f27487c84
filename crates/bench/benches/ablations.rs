//! Ablation benches for the design choices DESIGN.md §4 calls out:
//!
//! 1. **Rule order selection** — fRepair's topological check order vs the
//!    basic chase's re-scanning, with the element cache held constant.
//! 2. **Shared element cache** — per-rule element memoization vs fresh
//!    caches, with the check order held constant.
//! 3. **Signature index** — PASS-JOIN threshold-ED lookup vs a linear scan
//!    with the banded verifier.
//! 4. **Relation-scoped value cache** — cross-tuple memoization of element
//!    checks (sequential and work-stealing parallel) vs the per-tuple-only
//!    overlay, on a duplicate-heavy relation; prints the hit rate and phase
//!    timings from the repair report.
//! 5. **Cache persistence** — a stream of same-schema relations repaired
//!    cold (fresh value cache per relation) vs warm (one `CacheRegistry`
//!    shared across the stream).
//! 6. **Observability overhead** — repair with no `Obs` handle vs an
//!    attached registry + tracer at sampling rates 0 / 1% / 100%
//!    (DESIGN.md §4d's "pay only for what you sample" claim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dr_bench::{nobel_stream_workload, uis_workload};
use dr_core::repair::basic::basic_repair;
use dr_core::repair::cache::ElementCache;
use dr_core::repair::rule_graph::RuleGraph;
use dr_core::{apply_rule_cached, fast_repair, ApplyOptions, MatchContext};
use dr_datasets::KbFlavor;
use dr_relation::Relation;
use dr_simmatch::{within_bool, SignatureIndex};

/// fRepair's check order but a fresh cache per rule application
/// (order-only ablation).
fn order_only_repair(
    ctx: &MatchContext<'_>,
    rules: &[dr_core::DetectiveRule],
    relation: &mut Relation,
    opts: &ApplyOptions,
) {
    let order = RuleGraph::build(rules).check_order();
    for row in 0..relation.len() {
        let tuple = relation.tuple_mut(row);
        for group in &order {
            let mut remaining = group.clone();
            loop {
                let mut fired = None;
                for (pos, &ri) in remaining.iter().enumerate() {
                    let mut cache = ElementCache::new(); // fresh: no sharing
                    if apply_rule_cached(ctx, &rules[ri], tuple, opts, &mut cache).applied() {
                        fired = Some(pos);
                        break;
                    }
                }
                match fired {
                    Some(pos) => {
                        remaining.remove(pos);
                    }
                    None => break,
                }
            }
        }
    }
}

fn bench_repair_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_repair");
    group.sample_size(10);
    let workload = uis_workload(1_000, KbFlavor::YagoLike);
    let ctx = workload.ctx();
    let opts = ApplyOptions::default();

    group.bench_function("full_fRepair(order+cache)", |b| {
        b.iter(|| {
            let mut working = workload.dirty.clone();
            fast_repair(&ctx, &workload.rules, &mut working, &opts)
        })
    });
    group.bench_function("order_only(no shared cache)", |b| {
        b.iter(|| {
            let mut working = workload.dirty.clone();
            order_only_repair(&ctx, &workload.rules, &mut working, &opts)
        })
    });
    group.bench_function("neither(bRepair)", |b| {
        b.iter(|| {
            let mut working = workload.dirty.clone();
            basic_repair(&ctx, &workload.rules, &mut working, &opts)
        })
    });
    group.finish();
}

/// The pre-`ValueCache` fast repair: per-tuple element caches only, no
/// cross-tuple sharing (cache-scope ablation baseline).
fn tuple_only_repair(
    ctx: &MatchContext<'_>,
    rules: &[dr_core::DetectiveRule],
    relation: &mut Relation,
    opts: &ApplyOptions,
) {
    let repairer = dr_core::FastRepairer::new(rules);
    for row in 0..relation.len() {
        let _ = repairer.repair_tuple(ctx, relation.tuple_mut(row), opts);
    }
}

fn bench_value_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_value_cache");
    group.sample_size(10);
    // UIS columns (City/State/Zip) are drawn from small pools, so values
    // repeat across many rows — the duplicate-heavy shape the
    // relation-scoped cache targets.
    let workload = uis_workload(1_000, KbFlavor::YagoLike);
    let ctx = workload.ctx();
    let opts = ApplyOptions::default();

    // Measure (and report) the cross-tuple hit rate once, outside timing.
    let mut probe = workload.dirty.clone();
    let report = fast_repair(&ctx, &workload.rules, &mut probe, &opts);
    assert!(
        report.cache.hits() > 0,
        "duplicate-heavy relation must produce cross-tuple cache hits: {:?}",
        report.cache
    );
    eprintln!(
        "value-cache: sequential hit rate {:.1}% ({} hits / {} misses), prewarm {:?}, repair {:?}",
        report.cache.hit_rate() * 100.0,
        report.cache.hits(),
        report.cache.misses(),
        report.timing.prewarm,
        report.timing.repair,
    );
    let mut probe = workload.dirty.clone();
    let par_opts = dr_core::ParallelOptions {
        apply: opts.clone(),
        threads: 4,
        ..Default::default()
    };
    let report = dr_core::parallel_repair(&ctx, &workload.rules, &mut probe, &par_opts);
    eprintln!(
        "value-cache: 4-thread hit rate {:.1}% ({} hits / {} misses), prewarm {:?}, repair {:?}",
        report.cache.hit_rate() * 100.0,
        report.cache.hits(),
        report.cache.misses(),
        report.timing.prewarm,
        report.timing.repair,
    );

    group.bench_function("shared_value_cache(sequential)", |b| {
        b.iter(|| {
            let mut working = workload.dirty.clone();
            fast_repair(&ctx, &workload.rules, &mut working, &opts)
        })
    });
    group.bench_function("shared_value_cache(4 threads)", |b| {
        b.iter(|| {
            let mut working = workload.dirty.clone();
            dr_core::parallel_repair(&ctx, &workload.rules, &mut working, &par_opts)
        })
    });
    group.bench_function("per_tuple_cache_only", |b| {
        b.iter(|| {
            let mut working = workload.dirty.clone();
            tuple_only_repair(&ctx, &workload.rules, &mut working, &opts)
        })
    });
    group.finish();
}

fn bench_signature_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_signature_index");

    // A realistic label pool: UIS street names.
    let world = dr_datasets::UisWorld::generate(20_000, 3);
    let labels: Vec<String> = world.streets.clone();
    let queries: Vec<String> = labels
        .iter()
        .take(50)
        .map(|s| {
            // Perturb to force fuzzy matching.
            let mut chars: Vec<char> = s.chars().collect();
            if chars.len() > 2 {
                chars.swap(0, 1);
            }
            chars.into_iter().collect()
        })
        .collect();

    let index = SignatureIndex::build(
        2,
        labels
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str())),
    );
    group.bench_with_input(
        BenchmarkId::new("passjoin_index", labels.len()),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut hits = 0usize;
                for q in &queries {
                    hits += index.lookup(q).len();
                }
                hits
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("linear_scan", labels.len()),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut hits = 0usize;
                for q in &queries {
                    hits += labels.iter().filter(|l| within_bool(q, l, 2)).count();
                }
                hits
            })
        },
    );
    group.finish();
}

fn bench_cache_persistence(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cache_persistence");
    group.sample_size(10);
    let (workload, stream) = nobel_stream_workload(1_000, 5, KbFlavor::YagoLike);
    let opts = ApplyOptions::default();

    // Both regimes share `workload`'s match context indexes; only the value
    // cache's lifetime differs, so the delta isolates persistence.
    let ctx = workload.ctx();
    group.bench_function("cold(fresh cache per relation)", |b| {
        b.iter(|| {
            for dirty in &stream {
                let mut working = dirty.clone();
                fast_repair(&ctx, &workload.rules, &mut working, &opts);
            }
        })
    });
    group.bench_function("warm(shared registry)", |b| {
        b.iter(|| {
            // A fresh registry per iteration: relation 1 is the cold fill,
            // relations 2..n warm-start from it.
            let registry = std::sync::Arc::new(dr_core::CacheRegistry::new(
                dr_core::RegistryConfig::default(),
            ));
            let ctx = workload.ctx_with_registry(registry);
            for dirty in &stream {
                let mut working = dirty.clone();
                fast_repair(&ctx, &workload.rules, &mut working, &opts);
            }
        })
    });
    group.finish();
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_obs_overhead");
    group.sample_size(10);
    let workload = uis_workload(1_000, KbFlavor::YagoLike);
    let opts = ApplyOptions::default();

    let ctx = workload.ctx();
    group.bench_function("no_obs", |b| {
        b.iter(|| {
            let mut working = workload.dirty.clone();
            fast_repair(&ctx, &workload.rules, &mut working, &opts)
        })
    });
    for (label, rate) in [
        ("obs(rate=0)", 0.0),
        ("obs(rate=0.01)", 0.01),
        ("obs(rate=1.0)", 1.0),
    ] {
        group.bench_function(label, |b| {
            // A fresh Obs per sample batch so the registry never grows
            // unboundedly; the tracer writes to a null sink so the bench
            // measures event construction + sampling, not disk.
            let obs = std::sync::Arc::new(dr_obs::Obs::with_tracer(dr_obs::Tracer::new(
                Box::new(std::io::sink()),
                dr_obs::Sampler::new(42, rate),
            )));
            let ctx = workload.ctx().with_obs(obs);
            b.iter(|| {
                let mut working = workload.dirty.clone();
                fast_repair(&ctx, &workload.rules, &mut working, &opts)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_repair_ablations,
    bench_value_cache,
    bench_signature_index,
    bench_cache_persistence,
    bench_obs_overhead
);
criterion_main!(benches);
