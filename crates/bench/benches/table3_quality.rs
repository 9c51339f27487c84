//! Table III bench: the full DR repair pass (fRepair) and the KATARA
//! simulation on Nobel and UIS against both KBs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dr_bench::{nobel_workload, uis_workload};
use dr_core::{fast_repair, ApplyOptions};
use dr_datasets::KbFlavor;
use dr_eval::katara_pattern;

fn bench_table3(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_quality");
    group.sample_size(10);

    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        for (name, workload) in [
            ("nobel-500", nobel_workload(500, flavor)),
            ("uis-1000", uis_workload(1_000, flavor)),
        ] {
            let ctx = workload.ctx();
            group.bench_with_input(
                BenchmarkId::new(format!("drs/{name}"), flavor.label()),
                &(),
                |b, ()| {
                    b.iter(|| {
                        let mut working = workload.dirty.clone();
                        fast_repair(
                            &ctx,
                            &workload.rules,
                            &mut working,
                            &ApplyOptions::default(),
                        )
                    })
                },
            );
            let pattern = katara_pattern(&workload.rules);
            group.bench_with_input(
                BenchmarkId::new(format!("katara/{name}"), flavor.label()),
                &(),
                |b, ()| {
                    b.iter(|| {
                        let katara = dr_baselines::Katara::new(&ctx, &pattern);
                        let mut working = workload.dirty.clone();
                        katara.clean(&mut working)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
