//! `nobel-serve`: `dr-serve` booted in-process, two closed-loop clients on
//! keep-alive connections posting dirty CSV bodies.
//!
//! This is the only workload that runs HTTP, CSV parsing, NDJSON rendering,
//! admission and the armed trace capture. The registry cache is warm: set-up
//! repairs every body once in process, which is also where the expected
//! tuple lines come from.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dr_core::{parallel_repair, MatchContext, ParallelOptions, RegistryConfig};
use dr_datasets::NobelWorld;
use dr_kb::LenientOptions;
use dr_obs::json::{escape_into, JsonValue};
use dr_obs::Obs;
use dr_relation::{Relation, Tuple};
use dr_serve::http::Request;
use dr_serve::{build_state, handle, Body, KbSpec, ServeConfig, Server, ServerState};

use crate::client::Conn;
use crate::data::{noisy, settled};
use crate::measure::{
    end_to_end, per_layer, repeat_setup, time_setup, Config, LayerInputs, OpSample, Window,
};
use crate::probes::{self, Subject};
use crate::report::{peak_rss_mb, Metric, Report};
use crate::trace::Tracer;

/// Closed-loop clients, one keep-alive connection each.
const CLIENTS: usize = 2;

/// What a repair response said, reduced to what the benchmark checks.
pub struct Repaired {
    /// The `"kind":"tuple"` lines, in order.
    pub tuples: Vec<String>,
    /// No failed or degraded row.
    pub settled: bool,
    /// Value-cache hits.
    pub hits: u64,
    /// Value-cache lookups.
    pub lookups: u64,
    /// Prewarm plus repair time the server reported.
    pub repair_ms: f64,
}

/// Reads an NDJSON repair stream; `None` if it has no well-formed summary.
pub fn read_ndjson<'a>(lines: impl Iterator<Item = &'a str>) -> Option<Repaired> {
    let mut tuples = Vec::new();
    let mut summary = None;
    for line in lines {
        if line.contains("\"kind\":\"tuple\"") {
            tuples.push(line.to_owned());
        } else if line.contains("\"kind\":\"summary\"") {
            summary = Some(dr_obs::json::parse(line).ok()?);
        }
    }
    let summary = summary?;
    let num = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64);
    let cache = summary.get("cache")?;
    let hits = num(cache, "node_hits")? + num(cache, "edge_hits")?;
    let misses = num(cache, "node_misses")? + num(cache, "edge_misses")?;
    Some(Repaired {
        tuples,
        settled: num(&summary, "failed")? == 0.0 && num(&summary, "degraded")? == 0.0,
        hits: hits as u64,
        lookups: (hits + misses) as u64,
        repair_ms: (num(&summary, "prewarm_seconds")? + num(&summary, "repair_seconds")?) * 1e3,
    })
}

/// A CSV repair request for the KB `spec` serves.
pub fn repair_request(spec: &KbSpec, body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: repair_target(spec),
        query: String::new(),
        headers: vec![("content-type".into(), "text/csv".into())],
        body: body.as_bytes().to_vec(),
        http11: true,
    }
}

/// `/v1/repair/{kb}`.
pub fn repair_target(spec: &KbSpec) -> String {
    format!("/v1/repair/{}", spec.name())
}

/// Runs `body` through `dr_serve::handle` in process.
pub fn handle_in_process(state: &ServerState, spec: &KbSpec, body: &str) -> Option<Repaired> {
    let response = handle(state, &repair_request(spec, body));
    match (&response.status, &response.body) {
        (200, Body::Lines(lines)) => read_ndjson(lines.iter().map(String::as_str)),
        _ => None,
    }
}

/// Sends `body` over `conn`; `None` on a transport error, a non-200 status,
/// or a malformed stream.
pub fn post(conn: &mut Conn, target: &str, body: &str) -> Option<Repaired> {
    let response = conn.post(target, "text/csv", body.as_bytes()).ok()?;
    if response.status != 200 {
        return None;
    }
    read_ndjson(std::str::from_utf8(&response.body).ok()?.lines())
}

/// A booted server: state built, listener bound, every body repaired once in
/// process (which warms the registry cache and gives the expected tuple
/// lines), clients connected. Dropping it closes the connections and stops
/// the server.
pub struct Booted {
    server: Option<Server>,
    /// Open keep-alive connections, one per client. Each holds one of the
    /// server's acceptor threads, so a client must use these rather than
    /// open another.
    pub conns: Vec<Conn>,
    expected: Vec<Vec<String>>,
    /// The warm-up pass settled every row and every client connected.
    pub ready: bool,
}

impl Booted {
    /// The running server.
    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("running until dropped")
    }
}

impl Drop for Booted {
    fn drop(&mut self) {
        // The server stops once every connection to it is closed.
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// Boots `dr-serve` over the KB `spec` names with one acceptor thread per
/// client, warms it with `bodies`, and connects the clients.
pub fn boot(spec: &KbSpec, bodies: &[String], clients: usize) -> Booted {
    let state = build_state(
        std::slice::from_ref(spec),
        RegistryConfig::default(),
        Arc::new(Obs::new()),
        ServeConfig::default(),
    )
    .expect("a generated KB always builds");
    let server = Server::bind("127.0.0.1:0", state, clients).expect("bind a local port");
    let mut ready = true;
    let expected = bodies
        .iter()
        .map(|body| match handle_in_process(server.state(), spec, body) {
            Some(r) => {
                ready &= r.settled;
                r.tuples
            }
            None => {
                ready = false;
                Vec::new()
            }
        })
        .collect();
    let mut conns: Vec<Conn> = (0..clients).map(|_| Conn::new(server.addr())).collect();
    ready &= conns.iter_mut().all(|c| c.connect().is_ok());
    Booted {
        server: Some(server),
        conns,
        expected,
        ready,
    }
}

/// The `"cells":[...],"positive":[...]` fragment `dr-serve` renders for
/// `tuple`, built independently of its renderer.
fn cells_fragment(tuple: &Tuple, relation: &Relation) -> String {
    let mut out = String::from("\"cells\":[");
    for (i, cell) in tuple.cells().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, cell);
        out.push('"');
    }
    out.push_str("],\"positive\":[");
    for (i, attr) in tuple.positive_attrs().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, relation.schema().attr_name(attr));
        out.push('"');
    }
    out.push(']');
    out
}

/// The served tuple lines agree, body for body, with a cold, registry-free
/// `parallel_repair` of the same body.
fn matches_direct_repair(state: &ServerState, bodies: &[String], expected: &[Vec<String>]) -> bool {
    let entry = &state.entries[0];
    let Some(core) = entry.core() else {
        return false;
    };
    let ctx = MatchContext::new(core.kb.as_ref());
    bodies.iter().zip(expected).all(|(body, lines)| {
        let mut relation = parse_body(entry.schema.name(), body);
        let report = parallel_repair(
            &ctx,
            &core.rules,
            &mut relation,
            &ParallelOptions::default(),
        );
        settled(&report)
            && relation.len() == lines.len()
            && relation
                .tuples()
                .iter()
                .zip(lines)
                .enumerate()
                .all(|(row, (tuple, line))| {
                    line.starts_with(&format!("{{\"kind\":\"tuple\",\"row\":{row},"))
                        && line.contains(&cells_fragment(tuple, &relation))
                })
    })
}

/// Two clients, each on its own connection, post bodies back to back until
/// `duration` has passed. Client `c` cycles through bodies `c, c + 2, ...`.
fn client_window(
    tracer: &Tracer,
    duration: Duration,
    conns: &mut [Conn],
    target: &str,
    bodies: &[String],
    expected: &[Vec<String>],
    rows_per_body: usize,
) -> Window {
    let deadline = Instant::now() + duration;
    let lanes: Vec<(Vec<OpSample>, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let lane = tracer.root("bench.window");
                    let mut samples = Vec::new();
                    let mut i = c;
                    loop {
                        let op = lane.op("bench.request");
                        let (response, latency) =
                            op.time("serve.http_request", || post(conn, target, &bodies[i]));
                        let verify = op.child("bench.verify");
                        let (ok, hits, lookups) = match response {
                            Some(r) => (r.settled && r.tuples == expected[i], r.hits, r.lookups),
                            None => (false, 0, 0),
                        };
                        drop(verify);
                        samples.push(OpSample {
                            latency,
                            ok,
                            tuples: rows_per_body,
                            hits,
                            lookups,
                        });
                        i = (i + CLIENTS) % bodies.len();
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    (samples, lane.end())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = lanes.iter().map(|(_, d)| *d).max().unwrap_or_default();
    Window {
        samples: lanes.into_iter().flat_map(|(s, _)| s).collect(),
        elapsed,
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Report {
    let size = cfg.size(2000, 200);
    let rows_per_body = cfg.size(60, 20);
    let body_count = cfg.size(128, 8);
    let spec = KbSpec::Nobel {
        size,
        seed: cfg.seed,
    };

    // Inputs: `body_count` slices of the clean relation, each with its own
    // noise, as a stream of independent uploads.
    let world = NobelWorld::generate(size, cfg.seed);
    let clean = world.clean_relation();
    let semantic = world.semantic_source();
    let bodies: Vec<String> = (0..body_count)
        .map(|r| {
            let rows = (0..rows_per_body)
                .map(|i| clean.tuple((r * rows_per_body + i) % clean.len()).clone())
                .collect();
            let slice = Relation::from_tuples(clean.schema().clone(), rows);
            let seed = cfg.seed ^ (r as u64 + 1);
            dr_relation::csv::serialize(&noisy(&slice, seed, &semantic))
        })
        .collect();

    let setup = || boot(&spec, &bodies, CLIENTS);
    let (mut booted, first_setup) = time_setup(setup);
    let mut conns = std::mem::take(&mut booted.conns);
    let state = booted.server().state();
    let expected = &booted.expected;
    let direct_ok = matches_direct_repair(state, &bodies, expected);
    if !direct_ok {
        eprintln!("dr-perf: served tuples differ from a direct parallel_repair");
    }

    let target = repair_target(&spec);
    let mut report = Report {
        checks_ok: booted.ready && direct_ok,
        ..Report::default()
    };
    let mut main = |tracer: &Tracer, duration: Duration| {
        client_window(
            tracer,
            duration,
            &mut conns,
            &target,
            &bodies,
            expected,
            rows_per_body,
        )
    };
    if cfg.trace {
        let third = cfg.window / 3;
        let mut inputs = LayerInputs {
            untraced: main(&Tracer::off(), third),
            ..LayerInputs::default()
        };
        let tracer = Tracer::on();
        inputs.traced = main(&tracer, third);
        drop(conns);
        let build_kb = || world.kb(&dr_datasets::KbProfile::yago());
        let subject = Subject {
            spec: spec.clone(),
            build_kb: &build_kb,
            rules: |kb| NobelWorld::rules(kb),
            relations: bodies[..bodies.len().min(32)]
                .iter()
                .map(|b| parse_body(NobelWorld::schema().name(), b))
                .collect(),
            bodies: bodies[..bodies.len().min(16)].to_vec(),
            threads: ServeConfig::default().repair_threads,
            seed: cfg.seed,
        };
        probes::run(
            cfg,
            &subject,
            &tracer,
            true,
            Some((state, booted.server().addr())),
            &mut inputs,
        );
        per_layer(cfg, &mut report, &tracer, &inputs);
    } else {
        let window = main(&Tracer::off(), cfg.window);
        let peak = peak_rss_mb();
        drop(conns);
        drop(booted);
        let setup_s = repeat_setup(first_setup, setup);
        let secs = window.elapsed.as_secs_f64();
        let good = window.samples.iter().filter(|s| s.ok).count();
        end_to_end(
            &mut report,
            &setup_s,
            peak,
            &window,
            window.good_tuples() as f64 / secs,
        );
        report.notes.extend([
            Metric::new("req_per_s", good as f64 / secs, "1/s"),
            Metric::new("rows_per_request", rows_per_body as f64, "count"),
            Metric::new("clients", CLIENTS as f64, "count"),
        ]);
    }
    report
}

/// Parses a generated body the way the server does, under the served
/// schema's name.
fn parse_body(schema: &str, body: &str) -> Relation {
    dr_relation::csv::parse_lenient_bytes(schema, body.as_bytes(), &LenientOptions::default())
        .expect("generated bodies are valid CSV")
        .0
}
