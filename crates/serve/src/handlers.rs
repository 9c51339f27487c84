//! Route dispatch and endpoint logic, socket-free.
//!
//! Handlers consume a parsed [`Request`] and a shared [`ServerState`] and
//! produce a [`Response`] value; the socket layer in `lib.rs` only decides
//! *how* to put that on the wire (fixed-length vs chunked). Keeping the
//! service entry point free of I/O is what lets the concurrency tests
//! drive it from plain threads and compare byte-identical outputs.

use std::sync::Arc;
use std::time::Instant;

use dr_core::{available_cores, parallel_repair, ParallelOptions, RelationReport, TupleOutcome};
use dr_kb::quarantine::{LenientOptions, Quarantine};
use dr_kb::KbDelta;
use dr_obs::json::escape_into;
use dr_relation::Relation;

use crate::admission::Admission;
use crate::http::Request;
use crate::state::{DeltaApplyError, KbCore, KbEntry, ServerState};

/// The `{"error":"…"}` body of every 4xx/5xx response.
pub(crate) fn error_body(message: &str) -> String {
    let mut body = String::from("{\"error\":\"");
    escape_into(&mut body, message);
    body.push_str("\"}");
    body
}

/// A computed response, not yet serialized to a socket.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `content-type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond content-type/framing (e.g. `retry-after`).
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Body,
}

/// How the body should go on the wire.
pub enum Body {
    /// One buffer, sent with `content-length`.
    Full(Vec<u8>),
    /// NDJSON lines, sent with chunked encoding (one chunk per line)
    /// through the connection's response buffer: the socket sees one
    /// write per buffer-full and a final flush, not one per line.
    Lines(Vec<String>),
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: Body::Full(body.into_bytes()),
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Response::json(status, error_body(message))
    }

    fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }

    /// The body as one buffer (lines joined with `\n`, trailing newline) —
    /// what a client that concatenated every chunk would hold. Used by the
    /// determinism tests to compare responses byte for byte.
    pub fn body_bytes(&self) -> Vec<u8> {
        match &self.body {
            Body::Full(bytes) => bytes.clone(),
            Body::Lines(lines) => {
                let mut out = Vec::new();
                for line in lines {
                    out.extend_from_slice(line.as_bytes());
                    out.push(b'\n');
                }
                out
            }
        }
    }
}

/// Routes one request. Never panics; unknown routes get 404, wrong
/// methods 405.
pub fn handle(state: &ServerState, req: &Request) -> Response {
    let started = Instant::now();
    let (route, response) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("healthz", healthz(state)),
        ("GET", "/readyz") => ("readyz", readyz(state)),
        ("GET", "/metrics") => ("metrics", metrics(state)),
        ("GET", "/kbs") => ("kbs", kbs(state)),
        ("GET", "/v1/traces") => ("traces", traces_index(state)),
        (method, path) => {
            if let Some(id) = path.strip_prefix("/v1/traces/") {
                if method == "GET" {
                    ("traces", trace_get(state, id))
                } else {
                    ("traces", Response::error(405, "traces are GET-only"))
                }
            } else if let Some(kb) = path.strip_prefix("/v1/repair/") {
                if method == "POST" {
                    ("repair", repair(state, kb, req))
                } else {
                    ("repair", Response::error(405, "repair requires POST"))
                }
            } else if let Some(rest) = path.strip_prefix("/v1/kbs/") {
                if let Some(kb) = rest.strip_suffix("/delta") {
                    if method == "POST" {
                        ("kb_delta", kb_delta(state, kb, req))
                    } else {
                        ("kb_delta", Response::error(405, "delta requires POST"))
                    }
                } else if method == "DELETE" {
                    ("kb_unload", kb_unload(state, rest))
                } else {
                    (
                        "kb_unload",
                        Response::error(405, "KB management requires DELETE or POST .../delta"),
                    )
                }
            } else {
                ("other", Response::error(404, &format!("no route {path}")))
            }
        }
    };
    let metrics = state.obs.metrics();
    metrics
        .counter(
            "serve_requests_total",
            &[("route", route), ("status", status_class(response.status))],
        )
        .inc();
    let elapsed = started.elapsed();
    metrics
        .histogram("serve_request_seconds", &[("route", route)])
        .record(elapsed);
    // The same latency again into the sliding ~60s window, so /metrics
    // shows current-tail quantiles next to the since-boot histogram.
    metrics
        .window_histogram("serve_request_seconds_window", &[("route", route)])
        .record(elapsed);
    response
}

/// Status label kept low-cardinality: the exact code is in the response,
/// the metric only needs the class.
fn status_class(status: u16) -> &'static str {
    match status {
        200..=299 => "2xx",
        400..=499 => "4xx",
        _ => "5xx",
    }
}

fn healthz(state: &ServerState) -> Response {
    let loaded = state.entries.iter().filter(|e| e.core().is_some()).count();
    let body = format!(
        "{{\"status\":\"ok\",\"version\":\"{}\",\"uptime_seconds\":{},\"kbs\":{loaded}}}",
        env!("CARGO_PKG_VERSION"),
        state.started.elapsed().as_secs(),
    );
    Response::json(200, body)
}

/// `GET /v1/traces` — index of tail-sampled retained traces, newest
/// first: id, route, kb, duration, why it was kept, span count.
fn traces_index(state: &ServerState) -> Response {
    let mut body = String::from("{\"traces\":[");
    for (i, t) in state.traces.recent().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&t.summary_json());
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `GET /v1/traces/{id}` — one retained trace as a full span-tree JSON
/// document (what `dr_traceview` renders as a waterfall).
fn trace_get(state: &ServerState, id: &str) -> Response {
    match state.traces.get(id) {
        Some(trace) => Response::json(200, trace.to_json()),
        None => Response::error(
            404,
            &format!("no retained trace {id:?}; see /v1/traces for the index"),
        ),
    }
}

/// Readiness, split from liveness: a draining server is still *alive*
/// (`/healthz` 200 — don't restart it, it is finishing work) but no longer
/// *ready* (`/readyz` 503 — take it out of the balancer rotation).
fn readyz(state: &ServerState) -> Response {
    if state.lifecycle.is_draining() {
        Response::error(503, "draining")
    } else {
        Response::json(200, "{\"status\":\"ready\"}".to_owned())
    }
}

fn metrics(state: &ServerState) -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        headers: Vec::new(),
        body: Body::Full(state.obs.metrics().snapshot().render_prom().into_bytes()),
    }
}

fn kbs(state: &ServerState) -> Response {
    let mut body = String::from("{\"kbs\":[");
    let mut first = true;
    for entry in &state.entries {
        // Unloaded KBs no longer exist as far as clients are concerned.
        let Some(core) = entry.core() else { continue };
        if !first {
            body.push(',');
        }
        first = false;
        body.push_str("{\"name\":\"");
        escape_into(&mut body, &entry.name);
        body.push_str("\",\"schema\":\"");
        escape_into(&mut body, entry.schema.name());
        body.push_str("\",\"attrs\":[");
        for (j, (_, attr)) in entry.schema.attrs().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push('"');
            escape_into(&mut body, attr);
            body.push('"');
        }
        body.push_str("],");
        let kb = core.kb.as_ref();
        body.push_str(&format!(
            concat!(
                "\"rules\":{},\"instances\":{},\"edges\":{},\"literals\":{},",
                "\"generation\":{},\"backend\":\"{}\"}}"
            ),
            core.rules.len(),
            kb.num_instances(),
            kb.num_edges(),
            kb.num_literals(),
            kb.generation(),
            kb.backend(),
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `POST /v1/kbs/{kb}/delta` — applies a TSV-encoded [`KbDelta`] to an
/// in-memory KB: the entry swaps to a successor core at the next KB
/// generation, value-cache entries whose recorded footprint intersects the
/// delta's are swept (the rest re-key to the new generation and stay
/// warm), and the response reports the new generation.
fn kb_delta(state: &ServerState, kb_name: &str, req: &Request) -> Response {
    let Some(entry) = state.entry(kb_name) else {
        return Response::error(404, &format!("no KB named {kb_name:?}; see /kbs"));
    };
    if state.lifecycle.is_draining() {
        return Response::error(503, "server is draining").with_header("retry-after", "1".into());
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "delta body must be UTF-8 TSV");
    };
    let delta = match KbDelta::parse_tsv(text) {
        Ok(d) => d,
        Err(e) => {
            return Response::error(400, &format!("delta line {}: {}", e.line, e.message));
        }
    };
    if delta.ops().is_empty() {
        return Response::error(400, "empty delta (no ops)");
    }
    match entry.apply_delta(&delta, &state.registry) {
        Ok(outcome) => {
            state
                .obs
                .metrics()
                .counter("kb_delta_applied_total", &[("kb", &entry.name)])
                .inc();
            // Re-keyed snapshots carry the new content hash; flush them so
            // a restart against the post-delta KB warm-loads.
            state.registry.persist();
            let mut body = String::from("{\"kb\":\"");
            escape_into(&mut body, &entry.name);
            body.push_str(&format!(
                "\",\"generation\":{},\"ops\":{},\"invalidated\":{}}}",
                outcome.generation,
                delta.ops().len(),
                outcome.invalidated,
            ));
            Response::json(200, body)
        }
        Err(DeltaApplyError::Unloaded) => {
            Response::error(404, &format!("KB {kb_name:?} was unloaded"))
        }
        Err(DeltaApplyError::Immutable) => Response::error(
            409,
            &format!("KB {kb_name:?} is an immutable mmap image; deltas need an in-memory KB"),
        ),
        Err(DeltaApplyError::Rejected(msg)) => {
            Response::error(400, &format!("delta rejected: {msg}"))
        }
    }
}

/// `DELETE /v1/kbs/{kb}` — unloads a served KB: subsequent requests 404,
/// its value caches are evicted (written back to disk first when a cache
/// dir is configured), and the KB's memory is released once the last
/// in-flight request drops its core handle.
fn kb_unload(state: &ServerState, kb_name: &str) -> Response {
    let Some(entry) = state.entry(kb_name) else {
        return Response::error(404, &format!("no KB named {kb_name:?}; see /kbs"));
    };
    let Some(core) = entry.unload() else {
        return Response::error(404, &format!("KB {kb_name:?} was already unloaded"));
    };
    let caches_dropped = state
        .registry
        .evict_generation(core.kb.as_ref().generation());
    let mut body = String::from("{\"kb\":\"");
    escape_into(&mut body, &entry.name);
    body.push_str(&format!(
        "\",\"unloaded\":true,\"caches_dropped\":{caches_dropped}}}"
    ));
    Response::json(200, body)
}

/// Per-request knobs parsed out of the query string.
struct RepairParams {
    deadline_ms: Option<u64>,
    max_steps: Option<u64>,
    threads: Option<usize>,
    label: String,
}

/// The query keys a repair reads; `trace` is read when the request's span
/// capture is armed.
const REPAIR_PARAMS: [&str; 5] = ["label", "deadline_ms", "max_steps", "threads", "trace"];

fn parse_params(req: &Request) -> Result<RepairParams, String> {
    // A misspelt or retired key is an error, not a silent default.
    for pair in req.query.split('&').filter(|pair| !pair.is_empty()) {
        let key = pair.split_once('=').map_or(pair, |(key, _)| key);
        if !REPAIR_PARAMS.contains(&key) {
            return Err(format!(
                "unknown query parameter {key:?}; known: {}",
                REPAIR_PARAMS.join(", ")
            ));
        }
    }
    fn num<T: std::str::FromStr>(req: &Request, key: &str) -> Result<Option<T>, String> {
        req.query_param(key)
            .map(|v| v.parse::<T>().map_err(|_| format!("bad {key}={v:?}")))
            .transpose()
    }
    let label = match req.query_param("label") {
        None => "serve".to_owned(),
        Some(l) => {
            if l.is_empty()
                || l.len() > 32
                || !l
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
            {
                return Err(format!("label {l:?} must be 1-32 chars of [A-Za-z0-9_-]"));
            }
            l.to_owned()
        }
    };
    Ok(RepairParams {
        deadline_ms: num(req, "deadline_ms")?,
        max_steps: num(req, "max_steps")?,
        threads: num(req, "threads")?,
        label,
    })
}

fn repair(state: &ServerState, kb_name: &str, req: &Request) -> Response {
    let Some(entry) = state.entry(kb_name) else {
        return Response::error(404, &format!("no KB named {kb_name:?}; see /kbs"));
    };
    // Clone the core's Arc up front: a delta swapping a new generation in
    // mid-request leaves this repair on the generation it started with.
    let Some(core) = entry.core() else {
        return Response::error(404, &format!("KB {kb_name:?} was unloaded"));
    };
    if state.lifecycle.is_draining() {
        // In-flight repairs finish across a drain; *new* ones are refused
        // so the drain deadline is spent finishing, not starting.
        return Response::error(503, "server is draining").with_header("retry-after", "1".into());
    }
    let params = match parse_params(req) {
        Ok(p) => p,
        Err(msg) => return Response::error(400, &msg),
    };

    // Admission: everything beyond this point (body parse + repair) holds
    // a permit, so the in-flight cap bounds memory and scheduler load, not
    // just repair concurrency.
    let _permit = match state.gate.acquire() {
        Admission::Granted(permit) => permit,
        Admission::Shed {
            retry_after_secs, ..
        } => {
            return Response::error(429, "server at capacity; retry later")
                .with_header("retry-after", retry_after_secs.to_string());
        }
    };

    // Arm the live span capture now — the root `request` span covers body
    // parse and repair (admission rejections are not worth a trace).
    // Whether the capture is *kept* is decided at the end by the tail
    // policy; `?trace=1` forces it.
    let mut capture = state.start_trace(req, "repair", kb_name);

    // Parse the body with the entry's canonical schema *name* so the
    // parsed schema fingerprint matches the cache built at boot — that
    // match is what turns a cold first request into a warm one.
    let lenient = LenientOptions::default();
    let content_type = req.header("content-type").unwrap_or("text/csv");
    let parsed = if content_type.starts_with("application/json") {
        crate::json::parse_lenient_bytes(entry.schema.name(), &req.body, &lenient)
            .map_err(|e| format!("JSON parse error at byte {}: {}", e.offset, e.message))
    } else {
        dr_relation::csv::parse_lenient_bytes(entry.schema.name(), &req.body, &lenient)
            .map_err(|e| format!("CSV parse error at record {}: {}", e.record, e.message))
    };
    let (mut relation, quarantine) = match parsed {
        Ok(pair) => pair,
        Err(msg) => return Response::error(400, &msg),
    };
    if relation.schema().fingerprint() != entry.schema.fingerprint() {
        let expected: Vec<&str> = entry.schema.attrs().map(|(_, n)| n).collect();
        return Response::error(
            400,
            &format!("schema mismatch: {kb_name} expects columns {expected:?}"),
        );
    }
    if relation.is_empty() {
        return Response::error(400, "no data rows in body");
    }

    let repair_started = Instant::now();
    let ctx = core
        .context(Arc::clone(&state.registry), Arc::clone(&state.obs))
        .with_budget(state.budget(params.deadline_ms, params.max_steps))
        .with_span_opt(capture.as_ref().map(|c| c.root.ctx()));
    let opts = ParallelOptions {
        threads: request_threads(params.threads, state.config.repair_threads),
        ..ParallelOptions::default()
    };
    let mut report = parallel_repair(&ctx, &core.rules, &mut relation, &opts);
    report.resilience.add_quarantined(quarantine.quarantined());

    // Persist after every repair: the snapshot directory stays current
    // even if the process is killed, and concurrent requests exercising
    // the same key exercise the atomic-publish path on purpose.
    state.registry.persist();

    state
        .obs
        .metrics()
        .histogram("serve_repair_seconds", &[("phase", &params.label)])
        .record(repair_started.elapsed());

    // Finish the root span and make the tail-sampling call. A retained
    // trace's id is echoed in the NDJSON summary so the client can fetch
    // `/v1/traces/{id}` for the waterfall.
    let trace_id = capture.take().and_then(|mut c| {
        let error = report.resilience.failed > 0 || report.resilience.degraded > 0;
        c.root.attr_num("rows", relation.len() as u64);
        c.root.finish();
        state.finish_trace(&c.trace, "repair", &entry.name, error)
    });

    Response {
        status: 200,
        content_type: "application/x-ndjson",
        headers: Vec::new(),
        body: Body::Lines(render_ndjson(
            entry,
            &core,
            &relation,
            &report,
            &quarantine,
            trace_id.as_deref(),
        )),
    }
}

/// The scheduler width for one request. `?threads=` may narrow the
/// server's width (`repair_threads`, or every core when that is 0) but
/// never widen it, so a client cannot have a thread spawned per row.
/// Outputs are identical at every width.
fn request_threads(requested: Option<usize>, server: usize) -> usize {
    let width = match server {
        0 => available_cores(),
        n => n,
    };
    requested.filter(|&t| t > 0).map_or(width, |t| t.min(width))
}

/// Renders the streamed response: a header line, one line per quarantined
/// input record, one line per repaired tuple (cells + provenance), and a
/// summary line.
fn render_ndjson(
    entry: &KbEntry,
    core: &KbCore,
    relation: &Relation,
    report: &RelationReport,
    quarantine: &Quarantine,
    trace_id: Option<&str>,
) -> Vec<String> {
    let mut lines = Vec::with_capacity(relation.len() + 2);

    let mut header = String::from("{\"kind\":\"header\",\"kb\":\"");
    escape_into(&mut header, &entry.name);
    // No KB generation here: repair responses are byte-deterministic for
    // identical inputs (the concurrency suite compares them), and the
    // generation is a process-unique counter. Clients read it from /kbs.
    header.push_str(&format!(
        "\",\"rows\":{},\"rules\":{},\"quarantined\":{}}}",
        relation.len(),
        core.rules.len(),
        quarantine.quarantined()
    ));
    lines.push(header);

    for diag in quarantine.diagnostics() {
        let mut line = format!(
            "{{\"kind\":\"quarantined\",\"line\":{},\"message\":\"",
            diag.line
        );
        escape_into(&mut line, &diag.message);
        line.push_str("\"}");
        lines.push(line);
    }

    let schema = relation.schema();
    for (row, (tuple, tr)) in relation.tuples().iter().zip(&report.tuples).enumerate() {
        let mut line = format!("{{\"kind\":\"tuple\",\"row\":{row},\"outcome\":");
        match &tr.outcome {
            TupleOutcome::Completed => line.push_str("\"completed\""),
            TupleOutcome::Degraded { reason } => {
                line.push_str(&format!(
                    "\"degraded\",\"cause\":\"{}\",\"steps_spent\":{}",
                    reason.cause, reason.steps
                ));
            }
            TupleOutcome::Failed { message } => {
                line.push_str("\"failed\",\"message\":\"");
                escape_into(&mut line, message);
                line.push('"');
            }
        }
        line.push_str(",\"cells\":[");
        for (i, cell) in tuple.cells().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('"');
            escape_into(&mut line, cell);
            line.push('"');
        }
        line.push_str("],\"positive\":[");
        for (i, attr) in tuple.positive_attrs().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('"');
            escape_into(&mut line, schema.attr_name(attr));
            line.push('"');
        }
        line.push_str("],\"steps\":[");
        for (i, step) in tr.steps.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{{\"rule\":{},\"name\":\"", step.rule_index));
            escape_into(&mut line, &step.rule_name);
            line.push_str("\",\"kind\":\"");
            use dr_core::RuleApplication::*;
            match &step.application {
                NotApplicable => line.push_str("not_applicable\""),
                ProofPositive { .. } => line.push_str("proof_positive\""),
                DetectedWrong { col, .. } => {
                    line.push_str("detected_wrong\",\"col\":\"");
                    escape_into(&mut line, schema.attr_name(*col));
                    line.push('"');
                }
                Repaired { col, old, new, .. } => {
                    line.push_str("repaired\",\"col\":\"");
                    escape_into(&mut line, schema.attr_name(*col));
                    line.push_str("\",\"old\":\"");
                    escape_into(&mut line, old);
                    line.push_str("\",\"new\":\"");
                    escape_into(&mut line, new);
                    line.push('"');
                }
            }
            line.push('}');
        }
        line.push_str("]}");
        lines.push(line);
    }

    let r = &report.resilience;
    let completed = report
        .tuples
        .iter()
        .filter(|t| t.outcome.is_completed())
        .count();
    let mut summary = format!(
        concat!(
            "{{\"kind\":\"summary\",\"completed\":{},\"degraded\":{},",
            "\"failed\":{},\"quarantined\":{},",
            "\"cache\":{{\"node_hits\":{},\"node_misses\":{},",
            "\"edge_hits\":{},\"edge_misses\":{},\"snapshot_warm\":{}}},",
            "\"prewarm_seconds\":{:.6},\"repair_seconds\":{:.6}}}"
        ),
        completed,
        r.degraded,
        r.failed,
        r.quarantined,
        report.cache.node_hits,
        report.cache.node_misses,
        report.cache.edge_hits,
        report.cache.edge_misses,
        report.cache.snapshot_warm,
        report.timing.prewarm.as_secs_f64(),
        report.timing.repair.as_secs_f64(),
    );
    // Only retained traces get their id echoed: a discarded capture's id
    // would 404 on /v1/traces/{id}. Determinism note: the concurrency
    // suite byte-compares data lines, not the summary, so this field is
    // free to vary per request.
    if let Some(id) = trace_id {
        summary.pop();
        summary.push_str(",\"trace_id\":\"");
        summary.push_str(id);
        summary.push_str("\"}");
    }
    lines.push(summary);
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{build_state, KbSpec, ServeConfig};
    use dr_core::RegistryConfig;
    use dr_obs::Obs;
    use std::sync::Arc;

    fn test_state() -> ServerState {
        build_state(
            &[KbSpec::NobelMini],
            RegistryConfig::default(),
            Arc::new(Obs::new()),
            ServeConfig::default(),
        )
        .expect("state builds")
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
            http11: true,
        }
    }

    fn post_csv(path: &str, query: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: query.into(),
            headers: vec![("content-type".into(), "text/csv".into())],
            body: body.as_bytes().to_vec(),
            http11: true,
        }
    }

    #[test]
    fn health_metrics_and_kbs_respond() {
        let state = test_state();
        let health = handle(&state, &get("/healthz"));
        assert_eq!(health.status, 200);
        let text = String::from_utf8(health.body_bytes()).unwrap();
        assert!(text.contains("\"status\":\"ok\""), "{text}");

        let kbs = handle(&state, &get("/kbs"));
        let text = String::from_utf8(kbs.body_bytes()).unwrap();
        assert!(text.contains("\"name\":\"nobel-mini\""), "{text}");
        assert!(text.contains("\"attrs\":[\"Name\""), "{text}");

        let metrics = handle(&state, &get("/metrics"));
        let text = String::from_utf8(metrics.body_bytes()).unwrap();
        // The handler's own counter from the /healthz call above.
        assert!(text.contains("serve_requests_total"), "{text}");
    }

    #[test]
    fn unknown_routes_and_methods_are_typed_errors() {
        let state = test_state();
        assert_eq!(handle(&state, &get("/nope")).status, 404);
        assert_eq!(handle(&state, &get("/v1/repair/nobel-mini")).status, 405);
        assert_eq!(
            handle(&state, &post_csv("/v1/repair/unknown", "", "Name\nx")).status,
            404
        );
    }

    #[test]
    fn repair_streams_header_tuples_and_summary() {
        let state = test_state();
        // Table 1 row 1: Hershko with the published errors (wrong prize
        // and a city that is not in his country).
        let body = "Name,DOB,Country,Prize,Institution,City\n\
                    Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,Israel Institute of Technology,Karcag\n";
        let resp = handle(
            &state,
            &post_csv("/v1/repair/nobel-mini", "label=test", body),
        );
        assert_eq!(resp.status, 200);
        let Body::Lines(lines) = &resp.body else {
            panic!("repair must stream NDJSON")
        };
        assert!(lines[0].contains("\"kind\":\"header\""), "{}", lines[0]);
        assert!(lines[0].contains("\"rows\":1"), "{}", lines[0]);
        let tuple = &lines[1];
        assert!(tuple.contains("\"kind\":\"tuple\""), "{tuple}");
        assert!(tuple.contains("\"outcome\":\"completed\""), "{tuple}");
        let last = lines.last().unwrap();
        assert!(last.contains("\"kind\":\"summary\""), "{last}");
        assert!(last.contains("\"completed\":1"), "{last}");

        // Metrics recorded under the request label.
        let snap = state.obs.metrics().snapshot();
        assert_eq!(snap.counter_total("serve_requests_total"), 1);
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "serve_repair_seconds" && h.labels.contains("test")));
    }

    #[test]
    fn repair_rejects_bad_inputs() {
        let state = test_state();
        let wrong_schema = post_csv("/v1/repair/nobel-mini", "", "A,B\n1,2\n");
        let resp = handle(&state, &wrong_schema);
        assert_eq!(resp.status, 400);
        let text = String::from_utf8(resp.body_bytes()).unwrap();
        assert!(text.contains("schema mismatch"), "{text}");

        let empty = post_csv(
            "/v1/repair/nobel-mini",
            "",
            "Name,DOB,Country,Prize,Institution,City\n",
        );
        assert_eq!(handle(&state, &empty).status, 400);

        let bad_label = post_csv(
            "/v1/repair/nobel-mini",
            "label=no%20way",
            "Name,DOB,Country,Prize,Institution,City\nx,1,2,3,4,5\n",
        );
        assert_eq!(handle(&state, &bad_label).status, 400);

        let bad_param = post_csv(
            "/v1/repair/nobel-mini",
            "deadline_ms=abc",
            "Name,DOB,Country,Prize,Institution,City\nx,1,2,3,4,5\n",
        );
        assert_eq!(handle(&state, &bad_param).status, 400);
    }

    #[test]
    fn repair_rejects_unknown_query_parameters() {
        let state = test_state();
        let body = "Name,DOB,Country,Prize,Institution,City\nx,1,2,3,4,5\n";
        for (query, key) in [
            ("thraeds=2", "thraeds"),
            ("label=a&retry_attempts=3", "retry_attempts"),
            ("explain", "explain"),
            ("fault_seed=1", "fault_seed"),
        ] {
            let resp = handle(&state, &post_csv("/v1/repair/nobel-mini", query, body));
            assert_eq!(resp.status, 400, "{query}");
            let text = String::from_utf8(resp.body_bytes()).unwrap();
            assert!(
                text.contains("unknown query parameter") && text.contains(key),
                "{query}: {text}"
            );
        }
        let known = "label=a&deadline_ms=5000&max_steps=100&threads=1&trace=0&";
        let resp = handle(&state, &post_csv("/v1/repair/nobel-mini", known, body));
        assert_eq!(resp.status, 200);
    }

    fn post_tsv(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            headers: vec![("content-type".into(), "text/tab-separated-values".into())],
            body: body.as_bytes().to_vec(),
            http11: true,
        }
    }

    fn delete(path: &str) -> Request {
        Request {
            method: "DELETE".into(),
            path: path.into(),
            query: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
            http11: true,
        }
    }

    #[test]
    fn delta_endpoint_bumps_generation_and_repair_reflects_it() {
        let state = test_state();
        let kbs_before = String::from_utf8(handle(&state, &get("/kbs")).body_bytes()).unwrap();
        assert!(kbs_before.contains("\"generation\":"), "{kbs_before}");

        // Pre-delta: φ2 repairs Hershko's City from Karcag to Haifa via
        // `Technion locatedIn Haifa`.
        let body = "Name,DOB,Country,Prize,Institution,City\n\
                    Avram Hershko,1937-12-31,Israel,Nobel Prize in Chemistry,Israel Institute of Technology,Karcag\n";
        let resp = handle(&state, &post_csv("/v1/repair/nobel-mini", "", body));
        assert_eq!(resp.status, 200);
        let before = String::from_utf8(resp.body_bytes()).unwrap();
        assert!(
            before.contains("\"new\":\"Haifa\""),
            "pre-delta repair lands on Haifa: {before}"
        );

        // Retarget the institution's locatedIn edge: Haifa is no longer
        // derivable for this row.
        let delta = "retract\tIsrael Institute of Technology\tlocatedIn\ti:Haifa\n\
                     insert\tIsrael Institute of Technology\tlocatedIn\ti:Karcag\n";
        let resp = handle(&state, &post_tsv("/v1/kbs/nobel-mini/delta", delta));
        assert_eq!(
            resp.status,
            200,
            "{}",
            String::from_utf8(resp.body_bytes()).unwrap()
        );
        let text = String::from_utf8(resp.body_bytes()).unwrap();
        assert!(text.contains("\"kb\":\"nobel-mini\""), "{text}");
        assert!(text.contains("\"ops\":2"), "{text}");
        assert!(text.contains("\"generation\":"), "{text}");

        let kbs_after = String::from_utf8(handle(&state, &get("/kbs")).body_bytes()).unwrap();
        assert_ne!(
            kbs_before, kbs_after,
            "generation bump must be visible in /kbs"
        );

        // Post-delta: the same request no longer repairs to Haifa — the
        // swept value-cache entries were recomputed against the new edge,
        // and City=Karcag is now the consistent value.
        let resp = handle(&state, &post_csv("/v1/repair/nobel-mini", "", body));
        assert_eq!(resp.status, 200);
        let after = String::from_utf8(resp.body_bytes()).unwrap();
        assert!(
            !after.contains("\"new\":\"Haifa\""),
            "post-delta repair must not resurrect the retracted edge: {after}"
        );

        let snap = state.obs.metrics().snapshot();
        assert_eq!(snap.counter_total("kb_delta_applied_total"), 1);
        // The exported sweep counter reconciles with the registry's own
        // stats, and the pre-delta repair made at least one entry sweepable
        // (its footprint covered the retargeted locatedIn edge).
        let invalidated = state.registry.stats().invalidated_entries;
        assert!(invalidated > 0, "delta swept intersecting entries");
        assert_eq!(
            snap.counter_total("cache_invalidated_entries_total"),
            invalidated
        );
    }

    #[test]
    fn delta_endpoint_rejects_bad_bodies() {
        let state = test_state();
        assert_eq!(
            handle(&state, &post_tsv("/v1/kbs/nobel-mini/delta", "")).status,
            400,
            "empty delta"
        );
        assert_eq!(
            handle(&state, &post_tsv("/v1/kbs/nobel-mini/delta", "bogus\tx\n")).status,
            400,
            "unknown op"
        );
        assert_eq!(
            handle(&state, &post_tsv("/v1/kbs/missing/delta", "sub+\tA\tB\n")).status,
            404
        );
        assert_eq!(
            handle(&state, &get("/v1/kbs/nobel-mini/delta")).status,
            405,
            "delta requires POST"
        );
        // A self-cycle is validated and rejected with the KB untouched.
        let resp = handle(
            &state,
            &post_tsv("/v1/kbs/nobel-mini/delta", "sub+\tA\tB\nsub+\tB\tA\n"),
        );
        assert_eq!(resp.status, 400);
        let text = String::from_utf8(resp.body_bytes()).unwrap();
        assert!(text.contains("rejected"), "{text}");
    }

    #[test]
    fn unload_releases_the_kb_and_later_requests_404() {
        let state = test_state();
        let resp = handle(&state, &delete("/v1/kbs/nobel-mini"));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body_bytes()).unwrap();
        assert!(text.contains("\"unloaded\":true"), "{text}");

        assert_eq!(handle(&state, &delete("/v1/kbs/nobel-mini")).status, 404);
        assert_eq!(
            handle(
                &state,
                &post_csv(
                    "/v1/repair/nobel-mini",
                    "",
                    "Name,DOB,Country,Prize,Institution,City\nx,1,2,3,4,5\n"
                )
            )
            .status,
            404
        );
        assert_eq!(
            handle(
                &state,
                &post_tsv("/v1/kbs/nobel-mini/delta", "sub+\tA\tB\n")
            )
            .status,
            404
        );
        let kbs = String::from_utf8(handle(&state, &get("/kbs")).body_bytes()).unwrap();
        assert!(!kbs.contains("nobel-mini"), "{kbs}");
        assert_eq!(state.registry.stats().live_caches, 0, "caches evicted");
    }

    #[test]
    fn repair_accepts_json_bodies() {
        let state = test_state();
        let body = r#"[["Name","DOB","Country","Prize","Institution","City"],
                       ["Marie Curie","1867-11-07","France","Nobel Prize in Chemistry","Paster Institute","Paris"]]"#;
        let req = Request {
            method: "POST".into(),
            path: "/v1/repair/nobel-mini".into(),
            query: String::new(),
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.as_bytes().to_vec(),
            http11: true,
        };
        let resp = handle(&state, &req);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body_bytes()).unwrap();
        assert!(text.contains("\"kind\":\"summary\""), "{text}");
    }

    /// `?threads=` narrows the scheduler but never widens it past the
    /// server's width, and the width never changes what is returned.
    #[test]
    fn request_threads_are_capped_at_the_server_width() {
        let obs = Arc::new(Obs::new());
        let state = build_state(
            &[KbSpec::NobelMini],
            RegistryConfig::default(),
            Arc::clone(&obs),
            ServeConfig {
                repair_threads: 2,
                ..ServeConfig::default()
            },
        )
        .expect("state builds");
        let mut body = String::from("Name,DOB,Country,Prize,Institution,City\n");
        for _ in 0..64 {
            body.push_str(
                "Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,\
                 Israel Institute of Technology,Karcag\n",
            );
        }
        // Header and tuple lines; the summary carries timings.
        let data_lines = |query: &str| {
            let resp = handle(&state, &post_csv("/v1/repair/nobel-mini", query, &body));
            assert_eq!(resp.status, 200);
            let Body::Lines(mut lines) = resp.body else {
                panic!("repair streams lines");
            };
            assert!(lines
                .pop()
                .is_some_and(|l| l.contains("\"kind\":\"summary\"")));
            lines
        };
        let wide = data_lines("threads=1000000");
        let workers = obs
            .metrics()
            .snapshot()
            .gauges
            .into_iter()
            .find(|g| g.name == "scheduler_workers")
            .map(|g| g.value);
        assert_eq!(workers, Some(2));
        assert_eq!(wide.len(), 65);
        assert_eq!(wide, data_lines("threads=1"));
    }
}
