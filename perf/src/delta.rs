//! `nobel-delta`: KB writes beside reads. Each cycle applies a KB delta,
//! sweeps the cache registry, prewarms the new generation's indexes and
//! re-repairs selectively against the previous cycle's result — the same
//! write `POST /v1/kbs/{kb}/delta` performs, followed by the re-repair a
//! client of it needs.
//!
//! The delta alternately retracts and re-inserts the `worksAt` edges of 1%
//! of subjects, so the state is stationary and every cycle's output can be
//! checked against a full re-repair precomputed for each of the two KB
//! states.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dr_core::{
    parallel_repair, parallel_repair_selective, CacheRegistry, DetectiveRule, IndexMemo,
    MatchContext, ParallelOptions, RegistryConfig, RelationReport,
};
use dr_datasets::{KbProfile, NobelWorld};
use dr_kb::{KbDelta, KnowledgeBase};
use dr_relation::Relation;

use crate::data::{csv_bodies, noisy, settled, works_at_deltas};
use crate::measure::{
    end_to_end, per_layer, repeat_setup, time_setup, Config, CycleSample, LayerInputs, OpSample,
    Window,
};
use crate::probes::{self, Subject};
use crate::report::{median, peak_rss_mb, Metric, Report};
use crate::trace::{Span, Tracer};

/// Share of subjects whose `worksAt` edges each delta touches.
const DELTA_SHARE: f64 = 0.01;

/// A KB with a registry-backed repair of one relation, kept fresh across
/// deltas.
pub struct DeltaRig {
    rules: Vec<DetectiveRule>,
    dirty: Relation,
    opts: ParallelOptions,
    registry: Arc<CacheRegistry>,
    kb: KnowledgeBase,
    /// 0: the original KB; 1: the edges retracted.
    state: usize,
    /// `[retract, reinsert]`; `deltas[state]` moves to the other state.
    deltas: [KbDelta; 2],
    /// A full re-repair for each state.
    expected: [Relation; 2],
    prior: RelationReport,
    prior_repaired: Relation,
}

impl DeltaRig {
    /// Attaches a registry, prewarms, and runs the initial full repair —
    /// the set-up a server performs before the first delta arrives.
    pub fn prepare(
        kb: KnowledgeBase,
        rules: Vec<DetectiveRule>,
        dirty: Relation,
        threads: usize,
    ) -> Self {
        let registry = Arc::new(CacheRegistry::new(RegistryConfig::default()));
        let opts = ParallelOptions {
            threads,
            ..ParallelOptions::default()
        };
        let mut prior_repaired = dirty.clone();
        let prior = {
            let ctx = MatchContext::with_registry(&kb, Arc::clone(&registry));
            ctx.prewarm(&rules);
            parallel_repair(&ctx, &rules, &mut prior_repaired, &opts)
        };
        Self {
            rules,
            expected: [dirty.clone(), dirty.clone()],
            dirty,
            opts,
            registry,
            kb,
            state: 0,
            deltas: [KbDelta::new(), KbDelta::new()],
            prior,
            prior_repaired,
        }
    }

    /// Draws the deltas from `seed` and precomputes the full re-repair of
    /// both KB states with fresh, registry-free contexts. Returns whether the
    /// initial repair matches the first of them.
    pub fn references(&mut self, seed: u64, parent: &Span<'_>) -> bool {
        self.deltas = works_at_deltas(&self.kb, DELTA_SHARE, seed);
        let mut retracted = self.kb.clone();
        if retracted.apply_delta(&self.deltas[0]).is_err() {
            return false;
        }
        let mut ok = true;
        for (state, kb) in [&self.kb, &retracted].into_iter().enumerate() {
            let ctx = MatchContext::new(kb);
            let mut full = self.dirty.clone();
            let (report, _) = parent.time("core.parallel_repair", || {
                parallel_repair(&ctx, &self.rules, &mut full, &self.opts)
            });
            ok &= settled(&report);
            self.expected[state] = full;
        }
        ok && settled(&self.prior) && self.prior_repaired.tuples() == self.expected[0].tuples()
    }

    /// One delta, from its arrival to a fresh repaired relation, under a
    /// `bench.cycle` operation span.
    pub fn cycle(&mut self, parent: &Span<'_>) -> CycleSample {
        let op = parent.op("bench.cycle");
        let (live_entries, _) =
            op.time("core.registry.stats", || self.registry.stats().live_entries);
        let started = Instant::now();
        let delta = &self.deltas[self.state];
        let (mut next, _) = op.time("kb.clone", || self.kb.clone());
        let (applied, _) = op.time("kb.apply_delta", || next.apply_delta(delta));
        let Ok(footprint) = applied else {
            return CycleSample::default();
        };
        let (hash, _) = op.time("kb.content_hash", || next.content_hash());
        let (invalidated, _) = op.time("core.registry.sweep", || {
            self.registry
                .apply_delta(self.kb.generation(), next.generation(), hash, &footprint)
        });
        let memo = IndexMemo::new();
        let ctx = MatchContext::with_memo(&next, &memo, Some(Arc::clone(&self.registry)));
        op.time("core.prewarm", || ctx.prewarm(&self.rules));
        let (mut repaired, _) = op.time("relation.clone", || self.dirty.clone());
        let (report, _) = op.time("core.selective", || {
            parallel_repair_selective(
                &ctx,
                &self.rules,
                &mut repaired,
                &self.opts,
                &self.prior,
                &self.prior_repaired,
                &footprint,
            )
        });
        let latency = started.elapsed();
        drop(ctx);

        let verify = op.child("bench.verify");
        let state = 1 - self.state;
        let ok = settled(&report) && repaired.tuples() == self.expected[state].tuples();
        drop(verify);
        let sample = CycleSample {
            op: OpSample {
                latency,
                ok,
                tuples: repaired.len(),
                hits: report.cache.hits(),
                lookups: report.cache.hits() + report.cache.misses(),
            },
            invalidated,
            live_entries,
            rows_rerun: report.selected_rows.unwrap_or(repaired.len()),
            rows: repaired.len(),
        };
        self.state = state;
        let old_kb = std::mem::replace(&mut self.kb, next);
        let old_run = (
            std::mem::replace(&mut self.prior, report),
            std::mem::replace(&mut self.prior_repaired, repaired),
        );
        // Retiring the previous generation and this cycle's indexes is
        // program work too: freeing a KB costs about as much as cloning one.
        op.time("kb.drop", || drop(old_kb));
        op.time("core.drop", || drop((old_run, memo)));
        sample
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Report {
    let size = cfg.size(2000, 200);
    let world = NobelWorld::generate(size, cfg.seed);
    let dirty = noisy(&world.clean_relation(), cfg.seed, &world.semantic_source());
    let build_kb = || world.kb(&KbProfile::yago());

    let setup = || {
        let kb = build_kb();
        let rules = NobelWorld::rules(&kb);
        DeltaRig::prepare(kb, rules, dirty.clone(), 2)
    };
    let (mut rig, first_setup) = time_setup(setup);
    let checks_ok = rig.references(cfg.seed, &Tracer::off().root("bench.references"));
    if !checks_ok {
        eprintln!("dr-perf: initial repair differs from the full-repair reference");
    }
    let mut report = Report {
        checks_ok,
        ..Report::default()
    };

    let mut cycles: Vec<CycleSample> = Vec::new();
    let mut main = |tracer: &Tracer, duration: Duration| {
        Window::run(tracer, duration, |lane| {
            let cycle = rig.cycle(lane);
            cycles.push(cycle);
            cycle.op
        })
    };
    if cfg.trace {
        let third = cfg.window / 3;
        let untraced = main(&Tracer::off(), third);
        let tracer = Tracer::on();
        let traced = main(&tracer, third);
        let mut inputs = LayerInputs {
            cycles: cycles[untraced.samples.len()..].to_vec(),
            untraced,
            traced,
            ..LayerInputs::default()
        };
        let subject = Subject {
            spec: dr_serve::KbSpec::Nobel {
                size,
                seed: cfg.seed,
            },
            build_kb: &build_kb,
            rules: |kb| NobelWorld::rules(kb),
            relations: vec![dirty.clone()],
            bodies: csv_bodies(&dirty, 60).into_iter().take(16).collect(),
            threads: 2,
            seed: cfg.seed,
        };
        probes::run(cfg, &subject, &tracer, false, None, &mut inputs);
        per_layer(cfg, &mut report, &tracer, &inputs);
    } else {
        let window = main(&Tracer::off(), cfg.window);
        let peak = peak_rss_mb();
        let tuples_per_s = dirty.len() as f64 / (window.fast_ms() / 1e3);
        drop(rig);
        let setup_s = repeat_setup(first_setup, setup);
        end_to_end(&mut report, &setup_s, peak, &window, tuples_per_s);
        let rerun: Vec<f64> = cycles.iter().map(|c| c.rows_rerun as f64).collect();
        report
            .notes
            .push(Metric::new("rows_rerun_p50", median(&rerun), "count"));
    }
    report
}
