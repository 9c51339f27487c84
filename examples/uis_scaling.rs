//! UIS scaling: repair an increasingly large UIS relation with both DR
//! algorithms and watch the optimization gap grow (the Fig-8 story), plus a
//! comparison against the IC-based baselines.
//!
//! Run with: `cargo run -p dr-examples --bin uis_scaling --release`
//! (sizes can be overridden: `-- 1000 5000 20000`)

use dr_baselines::{llunatic_repair, mine_constant_cfds, LlunaticConfig};
use dr_core::repair::basic::basic_repair;
use dr_core::{fast_repair, ApplyOptions, MatchContext};
use dr_datasets::{KbProfile, UisWorld};
use dr_eval::runner::fds;
use dr_relation::noise::{inject, NoiseSpec};
use std::time::Instant;

fn main() {
    let sizes: Vec<usize> = {
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![1_000, 5_000, 20_000]
        } else {
            args
        }
    };

    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "tuples", "bRepair", "fRepair", "Llunatic", "cCFDs"
    );
    for size in sizes {
        let world = UisWorld::generate(size, 8);
        let clean = world.clean_relation();
        let name = clean.schema().attr_expect("Name");
        let (dirty, _) = inject(
            &clean,
            &NoiseSpec::new(0.10, 8).with_excluded(vec![name]),
            &world.semantic_source(),
        );
        let kb = world.kb(&KbProfile::yago());
        let ctx = MatchContext::new(&kb);
        let rules = UisWorld::rules(&kb);
        let opts = ApplyOptions::default();

        let mut a = dirty.clone();
        let t0 = Instant::now();
        basic_repair(&ctx, &rules, &mut a, &opts);
        let basic_time = t0.elapsed();

        let mut b = dirty.clone();
        let t0 = Instant::now();
        fast_repair(&ctx, &rules, &mut b, &opts);
        let fast_time = t0.elapsed();

        // The two algorithms must agree cell-for-cell (Church–Rosser).
        for cell in a.cell_refs() {
            assert_eq!(
                a.value(cell),
                b.value(cell),
                "algorithms diverged at {cell:?}"
            );
        }

        let fd_list = fds::uis(clean.schema());
        let mut c = dirty.clone();
        let t0 = Instant::now();
        llunatic_repair(&mut c, &fd_list, &LlunaticConfig::default());
        let llunatic_time = t0.elapsed();

        let cfds = mine_constant_cfds(&clean, &fd_list);
        let mut d = dirty.clone();
        let t0 = Instant::now();
        cfds.apply(&mut d);
        let ccfd_time = t0.elapsed();

        println!(
            "{size:>8} {basic_time:>12.2?} {fast_time:>12.2?} {llunatic_time:>12.2?} {ccfd_time:>12.2?}"
        );
    }
}
