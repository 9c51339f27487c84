//! Overhead gate for the span surface's two capture modes. Each leg
//! compares the same repair on the paper's running example (Table I ×128)
//! with capture off and on, and must stay within +2%:
//!
//! 1. **JSONL capture at sampling rate 0** (DESIGN.md §11): an attached
//!    `Obs` handle whose `JsonlSink` samples no row must be nearly free —
//!    counters are padded per-thread atomics, the relation envelope is a
//!    handful of spans, and an unsampled row costs one hash ("pay only
//!    for what you sample").
//! 2. **Armed live span capture**: spans created end to end, then
//!    discarded by tail sampling. This is the production steady state:
//!    `dr-serve` arms every repair request, and the tail policy keeps
//!    almost none of them.
//!
//! Usage: `cargo run -p dr-eval --bin exp_trace_overhead --release
//! [-- --out <path>]`
//!
//! Each leg interleaves its two paths round-robin (clock drift and CPU
//! contention hit both minima equally) and accepts as soon as the running
//! minima land inside the budget, from round 5 on. Exits 1 when either
//! leg exceeds the budget after 60 rounds.

use dr_core::{fast_repair, ApplyOptions, DetectiveRule, MatchContext};
use dr_kb::fixtures::nobel_mini_kb;
use dr_obs::{ActiveTrace, JsonlSink, Obs, Sampler, SpanCtx, TraceId, DEFAULT_MAX_SPANS};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUDGET: f64 = 1.02;
const COPIES: usize = 128;
const ROUNDS: usize = 60;

/// Table I duplicated until per-tuple work dominates setup.
fn table1_workload() -> dr_relation::Relation {
    let mut relation = dr_relation::Relation::new(dr_core::fixtures::nobel_schema());
    let base = dr_core::fixtures::table1_dirty();
    for _ in 0..COPIES {
        for t in base.tuples() {
            relation.push(t.clone());
        }
    }
    relation
}

/// One timed repair pass under `ctx`.
fn pass(ctx: &MatchContext<'_>, rules: &[DetectiveRule]) -> Duration {
    let mut relation = table1_workload();
    let start = Instant::now();
    fast_repair(ctx, rules, &mut relation, &ApplyOptions::default());
    start.elapsed()
}

/// One repair pass armed exactly like a served request: fresh trace, root
/// span, span ctx forked through the repair — and the whole capture
/// dropped unretained at the end (the tail-sampling "no" path).
fn pass_armed(ctx: &MatchContext<'_>, rules: &[DetectiveRule]) -> Duration {
    let mut relation = table1_workload();
    let start = Instant::now();
    let trace = Arc::new(ActiveTrace::new(
        TraceId::generate(),
        DEFAULT_MAX_SPANS,
        false,
    ));
    let root = SpanCtx::root(Arc::clone(&trace)).child("request");
    let armed = ctx.fork().with_span(root.ctx());
    fast_repair(&armed, rules, &mut relation, &ApplyOptions::default());
    root.finish();
    drop(trace); // discarded, not retained
    start.elapsed()
}

/// Times one leg and renders its report block; returns whether it passed.
fn leg(
    report: &mut String,
    title: &str,
    labels: [&str; 2],
    mut off: impl FnMut() -> Duration,
    mut on: impl FnMut() -> Duration,
) -> bool {
    // Warm indexes and the allocator on both paths before timing.
    off();
    on();
    let (mut bare, mut with) = (Duration::MAX, Duration::MAX);
    let mut used = ROUNDS;
    for round in 1..=ROUNDS {
        bare = bare.min(off());
        with = with.min(on());
        if round >= 5 && with.as_secs_f64() <= bare.as_secs_f64() * BUDGET {
            used = round;
            break;
        }
    }
    let ratio = with.as_secs_f64() / bare.as_secs_f64();
    let pass = ratio <= BUDGET;
    report.push_str(&format!("\n{title}, rounds used: {used}/{ROUNDS}\n"));
    for (label, time) in labels.iter().zip([bare, with]) {
        report.push_str(&format!(
            "{:<19}{:>10.3}ms\n",
            format!("{label}:"),
            time.as_secs_f64() * 1e3
        ));
    }
    report.push_str(&format!(
        "overhead: {:+.2}%  (budget {:+.0}%)  -> {}\n",
        (ratio - 1.0) * 100.0,
        (BUDGET - 1.0) * 100.0,
        if pass { "PASS" } else { "FAIL" }
    ));
    pass
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let bare = MatchContext::new(&kb);
    let rate0 = MatchContext::new(&kb).with_obs(Arc::new(Obs::with_jsonl(JsonlSink::new(
        Box::new(std::io::sink()),
        Sampler::new(42, 0.0),
    ))));

    let mut report = format!(
        "TRACE OVERHEAD (Table I x{COPIES}, {} rows; budget {:+.0}% per leg)\n",
        COPIES * 4,
        (BUDGET - 1.0) * 100.0
    );
    let rate0_pass = leg(
        &mut report,
        "JSONL capture at sampling rate 0",
        ["no Obs (min)", "JSONL, rate 0"],
        || pass(&bare, &rules),
        || pass(&rate0, &rules),
    );
    let armed_pass = leg(
        &mut report,
        "live span capture, armed and tail-sampled away",
        ["capture off (min)", "armed, unretained"],
        || pass(&bare, &rules),
        || pass_armed(&bare, &rules),
    );
    print!("{report}");

    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("exp_trace_overhead: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    if !(rate0_pass && armed_pass) {
        std::process::exit(1);
    }
}
