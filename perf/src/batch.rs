//! The batch workloads: one relation repaired with `parallel_repair` over
//! and over, each pass on a fresh relation-scoped `ValueCache`.
//!
//! * `uis-batch` — UIS, 5000 rows, 10% noise, yago-profile KB, 2 threads.
//!   Distinct values dominate, so about a third of the node/edge lookups of
//!   a pass miss the value cache and go to simmatch candidate lookup; the
//!   rest of the time is the parallel scheduler.
//! * `tablei-1t` — the paper's Table I ×128 on the `nobel-mini` KB at one
//!   thread. Four distinct rows repeat, so nearly every lookup hits the
//!   cache and simmatch is bypassed; the time is the rule check/apply kernel
//!   and the `threads <= 1` driver.

use std::time::Duration;

use dr_core::{
    basic_repair, parallel_repair, ApplyOptions, IndexMemo, MatchContext, ParallelOptions,
};
use dr_datasets::{KbProfile, UisWorld};
use dr_kb::KnowledgeBase;
use dr_relation::Relation;
use dr_serve::KbSpec;

use crate::data::{csv_bodies, digest, noisy, settled, table1_times};
use crate::measure::{
    end_to_end, per_layer, repeat_setup, time_setup, Config, LayerInputs, OpSample, Window,
    Workload,
};
use crate::probes::{self, Rules, Subject};
use crate::report::{peak_rss_mb, Report};
use crate::trace::Tracer;

/// Warm-up passes inside set-up.
const WARM_PASSES: usize = 3;

/// Rows checked against the `basic_repair` (Algorithm 1) oracle.
const ORACLE_ROWS: usize = 200;

/// What a batch workload repairs, and how the KB it repairs against is
/// built.
struct Inputs {
    dirty: Relation,
    build_kb: Box<dyn Fn() -> KnowledgeBase>,
    rules: Rules,
    threads: usize,
    spec: KbSpec,
}

fn inputs(cfg: &Config) -> Inputs {
    let seed = cfg.seed;
    match cfg.workload {
        Workload::UisBatch => {
            let size = cfg.size(5000, 300);
            let world = UisWorld::generate(size, seed);
            Inputs {
                dirty: noisy(&world.clean_relation(), seed, &world.semantic_source()),
                build_kb: Box::new(move || world.kb(&KbProfile::yago())),
                rules: |kb| UisWorld::rules(kb),
                threads: 2,
                spec: KbSpec::Uis { size, seed },
            }
        }
        Workload::TableI1t => Inputs {
            dirty: table1_times(cfg.size(128, 8), seed),
            build_kb: Box::new(dr_kb::fixtures::nobel_mini_kb),
            rules: |kb| dr_core::fixtures::figure4_rules(kb),
            threads: 1,
            spec: KbSpec::NobelMini,
        },
        other => unreachable!("{} is not a batch workload", other.name()),
    }
}

/// Runs `uis-batch` or `tablei-1t`.
pub fn run(cfg: &Config) -> Report {
    let Inputs {
        dirty,
        build_kb,
        rules,
        threads,
        spec,
    } = inputs(cfg);
    let opts = ParallelOptions {
        threads,
        ..ParallelOptions::default()
    };

    // Set-up: build the KB and rules, prewarm the indexes, run the warm-up
    // passes. The memo keeps the prewarmed indexes for the measured passes.
    let setup = || {
        let kb = build_kb();
        let rule_set = rules(&kb);
        let memo = IndexMemo::new();
        let warm: Vec<(Relation, bool)> = {
            let ctx = MatchContext::with_memo(&kb, &memo, None);
            ctx.prewarm(&rule_set);
            (0..WARM_PASSES)
                .map(|_| {
                    let mut repaired = dirty.clone();
                    let report = parallel_repair(&ctx, &rule_set, &mut repaired, &opts);
                    (repaired, settled(&report))
                })
                .collect()
        };
        (kb, rule_set, memo, warm)
    };
    let ((kb, rule_set, memo, warm), first_setup) = time_setup(setup);
    let ctx = MatchContext::with_memo(&kb, &memo, None);

    // Every warm-up pass agrees, and a fixed sample of rows agrees with
    // Algorithm 1.
    let expected = digest(&warm[0].0);
    let passes_agree = warm.iter().all(|(r, ok)| *ok && digest(r) == expected);
    let oracle_ok = matches_oracle(&ctx, &rule_set, &dirty, &warm[0].0);
    if !passes_agree || !oracle_ok {
        eprintln!(
            "dr-perf: set-up check failed (passes agree: {passes_agree}, oracle: {oracle_ok})"
        );
    }
    let mut report = Report {
        checks_ok: passes_agree && oracle_ok,
        ..Report::default()
    };

    let main = |tracer: &Tracer, duration: Duration| {
        Window::run(tracer, duration, |lane| {
            let op = lane.op("bench.pass");
            let (mut repaired, _) = op.time("relation.clone", || dirty.clone());
            let (pass, latency) = op.time("core.parallel_repair", || {
                parallel_repair(&ctx, &rule_set, &mut repaired, &opts)
            });
            let verify = op.child("bench.verify");
            let ok = settled(&pass) && digest(&repaired) == expected;
            drop(verify);
            OpSample {
                latency,
                ok,
                tuples: repaired.len(),
                hits: pass.cache.hits(),
                lookups: pass.cache.hits() + pass.cache.misses(),
            }
        })
    };
    if cfg.trace {
        let third = cfg.window / 3;
        let mut inputs = LayerInputs {
            untraced: main(&Tracer::off(), third),
            ..LayerInputs::default()
        };
        let tracer = Tracer::on();
        inputs.traced = main(&tracer, third);
        let subject = Subject {
            spec,
            build_kb: &*build_kb,
            rules,
            relations: vec![dirty.clone()],
            bodies: csv_bodies(&dirty, 60).into_iter().take(16).collect(),
            threads,
            seed: cfg.seed,
        };
        probes::run(cfg, &subject, &tracer, true, None, &mut inputs);
        per_layer(cfg, &mut report, &tracer, &inputs);
    } else {
        let window = main(&Tracer::off(), cfg.window);
        let peak = peak_rss_mb();
        let tuples_per_s = dirty.len() as f64 / (window.fast_ms() / 1e3);
        let setup_s = repeat_setup(first_setup, setup);
        end_to_end(&mut report, &setup_s, peak, &window, tuples_per_s);
    }
    report
}

/// Repairs an evenly spaced sample of `dirty`'s rows with `basic_repair`
/// and compares them with the same rows of `repaired`.
fn matches_oracle(
    ctx: &MatchContext<'_>,
    rules: &[dr_core::DetectiveRule],
    dirty: &Relation,
    repaired: &Relation,
) -> bool {
    let n = dirty.len();
    let k = ORACLE_ROWS.min(n);
    let rows: Vec<usize> = (0..k).map(|i| i * n / k).collect();
    let mut sample = Relation::from_tuples(
        dirty.schema().clone(),
        rows.iter().map(|&r| dirty.tuple(r).clone()).collect(),
    );
    let report = basic_repair(ctx, rules, &mut sample, &ApplyOptions::default());
    settled(&report)
        && rows
            .iter()
            .zip(sample.tuples())
            .all(|(&r, tuple)| repaired.tuple(r) == tuple)
}
