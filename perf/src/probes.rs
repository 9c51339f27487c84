//! Layer probes of the traced run.
//!
//! Each probe times a public function of one layer on the workload's own KB,
//! rules and rows, so every workload reports every per-layer metric:
//!
//! * KB build and prewarm — `kb.build`, `core.prewarm` with a fresh memo;
//! * simmatch — `MatchContext::index_for(..).lookup(value)` replayed for
//!   every rule node over its column's values;
//! * the per-tuple kernel — `FastRepairer::repair_tuple_shared` run
//!   sequentially against `parallel_repair` over the same rows;
//! * KB deltas — the `nobel-delta` cycle, on workloads whose main loop does
//!   not already run it;
//! * serving — CSV parse, in-process `dr_serve::handle`, and the HTTP round
//!   trip for the same bodies.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dr_core::{
    parallel_repair, ApplyOptions, DetectiveRule, FastRepairer, MatchContext, ParallelOptions,
    ValueCache,
};
use dr_kb::{KnowledgeBase, LenientOptions};
use dr_relation::Relation;
use dr_serve::{KbSpec, ServerState};

use crate::client::Conn;
use crate::data::settled;
use crate::delta::DeltaRig;
use crate::measure::{Config, LayerInputs, ServeSample};
use crate::report::ms;
use crate::serve::{boot, handle_in_process, post, repair_target};
use crate::trace::Tracer;

/// Builds a workload's rules over its KB.
pub type Rules = fn(&KnowledgeBase) -> Vec<DetectiveRule>;

/// What the probes run on: the workload's KB, rules and rows.
pub struct Subject<'a> {
    /// How `dr-serve` builds the same KB.
    pub spec: KbSpec,
    /// Builds the workload's KB.
    pub build_kb: &'a dyn Fn() -> KnowledgeBase,
    /// The workload's rules over a built KB.
    pub rules: Rules,
    /// Rows for the simmatch, kernel and delta probes, as the workload
    /// repairs them (one relation per pass or per request body).
    pub relations: Vec<Relation>,
    /// CSV bodies for the serve probe.
    pub bodies: Vec<String>,
    /// Worker threads of the workload's repairs (0 = one per core).
    pub threads: usize,
    /// Seed of the workload.
    pub seed: u64,
}

/// Runs every probe under its own `bench.probe` root span. `delta` adds the
/// KB-delta probe; `server` is a running, warm server to probe instead of
/// booting one.
pub fn run(
    cfg: &Config,
    subject: &Subject<'_>,
    tracer: &Tracer,
    delta: bool,
    server: Option<(&ServerState, SocketAddr)>,
    inputs: &mut LayerInputs,
) {
    let repeats = cfg.size(3, 1);

    let probe = tracer.root("bench.probe");
    let mut built = None;
    for _ in 0..3 {
        let op = probe.op("bench.build");
        built = Some(op.time("kb.build", subject.build_kb).0);
    }
    let kb = built.expect("built above");
    let (rules, _) = probe.time("datasets.rules", || (subject.rules)(&kb));
    let mut ctx = MatchContext::new(&kb);
    for _ in 0..3 {
        let op = probe.op("bench.prewarm");
        ctx = MatchContext::new(&kb);
        op.time("core.prewarm", || ctx.prewarm(&rules));
    }
    drop(probe);

    let probe = tracer.root("bench.probe");
    probe.time("simmatch.replay", || {
        replay_lookups(&ctx, &rules, subject, inputs)
    });
    drop(probe);

    let probe = tracer.root("bench.probe");
    let threads = match subject.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    inputs.kernel.threads = threads;
    let opts = ParallelOptions {
        threads,
        ..ParallelOptions::default()
    };
    let repairer = FastRepairer::new(&rules);
    for _ in 0..repeats {
        let op = probe.op("bench.kernel");
        let mut pass = Duration::ZERO;
        let mut outputs = Vec::with_capacity(subject.relations.len());
        for relation in &subject.relations {
            let (mut rows, _) = op.time("relation.clone", || relation.clone());
            let (report, took) = op.time("core.parallel_repair", || {
                parallel_repair(&ctx, &rules, &mut rows, &opts)
            });
            pass += took;
            inputs.count(settled(&report));
            outputs.push(rows);
        }
        let mut kernel = Duration::ZERO;
        for (relation, output) in subject.relations.iter().zip(&outputs) {
            let (mut rows, _) = op.time("relation.clone", || relation.clone());
            let span = op.child("core.tuple_kernel");
            let cache = ValueCache::new();
            let mut ok = true;
            for tuple in rows.tuples_mut() {
                let started = Instant::now();
                let report =
                    repairer.repair_tuple_shared(&ctx, tuple, &ApplyOptions::default(), &cache);
                let took = started.elapsed();
                kernel += took;
                inputs.kernel.tuple_us.push(took.as_secs_f64() * 1e6);
                ok &= report.outcome.is_completed();
            }
            drop(span);
            let verify = op.child("bench.verify");
            inputs.count(ok && rows.tuples() == output.tuples());
            drop(verify);
        }
        inputs.kernel.pass_ms.push(ms(pass));
        inputs.kernel.kernel_ms.push(ms(kernel));
    }
    drop(ctx);
    drop(probe);

    if delta {
        let probe = tracer.root("bench.probe");
        let relation = concat(&subject.relations);
        let (mut rig, _) = probe.time("core.parallel_repair", || {
            DeltaRig::prepare(kb, rules, relation, subject.threads)
        });
        let ok = rig.references(subject.seed, &probe);
        inputs.count(ok);
        for _ in 0..cfg.size(6, 2) {
            let cycle = rig.cycle(&probe);
            inputs.count(cycle.op.ok);
            inputs.cycles.push(cycle);
        }
    }

    serve_probe(subject, tracer, server, inputs);
}

/// One lookup per rule node and row, each timed on its own.
fn replay_lookups(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    subject: &Subject<'_>,
    inputs: &mut LayerInputs,
) {
    let mut nodes = Vec::new();
    for rule in rules {
        for node in rule
            .evidence()
            .iter()
            .chain([rule.positive(), rule.negative()])
        {
            if !nodes.contains(node) {
                nodes.push(*node);
            }
        }
    }
    for node in nodes {
        let index = ctx.index_for(node.ty, node.sim);
        for relation in &subject.relations {
            for tuple in relation.tuples() {
                let started = Instant::now();
                let found = index.lookup(tuple.get(node.col));
                inputs
                    .lookups
                    .us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                inputs.lookups.candidates += std::hint::black_box(found).len() as u64;
            }
        }
    }
}

fn concat(relations: &[Relation]) -> Relation {
    Relation::from_tuples(
        relations[0].schema().clone(),
        relations.iter().flat_map(|r| r.tuples().to_vec()).collect(),
    )
}

/// Parses, handles in process, and posts over HTTP each body, on a server
/// whose registry cache already holds them: the running one, or one booted
/// over the workload's KB.
fn serve_probe(
    subject: &Subject<'_>,
    tracer: &Tracer,
    running: Option<(&ServerState, SocketAddr)>,
    inputs: &mut LayerInputs,
) {
    let probe = tracer.root("bench.probe");
    let mut booted = running.is_none().then(|| {
        probe
            .time("serve.boot", || boot(&subject.spec, &subject.bodies, 1))
            .0
    });
    let (state, mut conn) = match (&mut booted, running) {
        (Some(booted), _) => {
            inputs.count(booted.ready);
            let conn = booted.conns.pop().expect("booted with one client");
            (booted.server().state().as_ref(), conn)
        }
        (None, Some((state, addr))) => (state, Conn::new(addr)),
        (None, None) => unreachable!("a server runs unless one was booted"),
    };

    let schema = state.entries[0].schema.name().to_owned();
    let target = repair_target(&subject.spec);
    for body in &subject.bodies {
        let op = probe.op("bench.request");
        let (parsed, parse) = op.time("relation.csv_parse", || {
            dr_relation::csv::parse_lenient_bytes(
                &schema,
                body.as_bytes(),
                &LenientOptions::default(),
            )
        });
        let (local, handle) = op.time("serve.handle", || {
            handle_in_process(state, &subject.spec, body)
        });
        let (remote, http) = op.time("serve.http_request", || post(&mut conn, &target, body));
        let verify = op.child("bench.verify");
        let ok = match (&parsed, &local, &remote) {
            (Ok(_), Some(local), Some(remote)) => {
                local.settled && remote.settled && local.tuples == remote.tuples
            }
            _ => false,
        };
        drop(verify);
        inputs.count(ok);
        inputs.serve.push(ServeSample {
            parse_ms: ms(parse),
            handle_ms: ms(handle),
            repair_ms: local.map_or(f64::NAN, |r| r.repair_ms),
            http_ms: ms(http),
        });
    }
    drop(conn);
    if let Some(booted) = booted {
        probe.time("serve.stop", || drop(booted));
    }
}
