//! Live trace capture end to end (DESIGN.md §11): a forced-trace repair
//! over a real socket must retain a span tree whose root covers the
//! request, whose parents all exist, and whose id is echoed in the NDJSON
//! summary; quiet requests must leave no trace behind; and the sliding
//! latency window on `/metrics` must reconcile with the stored durations.

use std::sync::Arc;
use std::time::Duration;

use dr_core::RegistryConfig;
use dr_obs::{json, AttrValue, JsonValue, Obs, StoredTrace};
use dr_serve::http::Request;
use dr_serve::{build_state, client, handle, Body, KbSpec, ServeConfig, Server};

const CSV: &str = "Name,DOB,Country,Prize,Institution,City\n\
     Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,Israel Institute of Technology,Karcag\n";

fn boot(config: ServeConfig) -> Server {
    let state = build_state(
        &[KbSpec::NobelMini],
        RegistryConfig::default(),
        Arc::new(Obs::new()),
        config,
    )
    .expect("state builds");
    Server::bind("127.0.0.1:0", state, 2).expect("bind port 0")
}

/// Value of the first metric line starting with `prefix` (label set
/// included), e.g. `serve_requests_total{route="repair",status="2xx"}`.
fn metric(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn forced_trace_round_trips_a_valid_span_tree() {
    let server = boot(ServeConfig::default());
    let addr = server.addr();

    // threads=1 keeps spans strictly sequential, so child self-times must
    // sum within their parents.
    let resp = client::request(
        addr,
        "POST",
        "/v1/repair/nobel-mini?trace=1&threads=1",
        "text/csv",
        CSV.as_bytes(),
    )
    .expect("repair");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let text = resp.text();
    let summary = text.lines().last().expect("summary line");
    let at = summary
        .find("\"trace_id\":\"")
        .unwrap_or_else(|| panic!("summary echoes the trace id: {summary}"));
    let trace_id = &summary[at + 12..at + 12 + 32];
    assert_eq!(trace_id.len(), 32);

    // The index lists it as forced.
    let index = client::get(addr, "/v1/traces").expect("index");
    assert_eq!(index.status, 200);
    let index = json::parse(&index.text()).expect("index is JSON");
    let traces = index
        .get("traces")
        .and_then(JsonValue::as_array)
        .expect("traces array");
    let entry = traces
        .iter()
        .find(|t| t.get("trace_id").and_then(JsonValue::as_str) == Some(trace_id))
        .expect("forced trace is indexed");
    assert_eq!(entry.get("why").and_then(JsonValue::as_str), Some("forced"));
    assert_eq!(
        entry.get("route").and_then(JsonValue::as_str),
        Some("repair")
    );

    // The full document is a well-formed tree.
    let doc = client::get(addr, &format!("/v1/traces/{trace_id}")).expect("trace doc");
    assert_eq!(doc.status, 200);
    let doc = json::parse(&doc.text()).expect("trace is JSON");
    let trace = StoredTrace::from_json(&doc).expect("parses as a stored trace");
    assert_eq!(trace.trace_id, trace_id);
    assert_eq!(trace.dropped_spans, 0, "small request stays under the cap");

    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    let root = roots[0];
    assert_eq!(root.name, "request");
    assert!(
        root.attrs
            .iter()
            .any(|(k, v)| k == "kb" && matches!(v, AttrValue::Str(s) if s == "nobel-mini")),
        "{:?}",
        root.attrs
    );

    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_ref()).collect();
    for expected in ["prewarm", "repair", "row", "rule"] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }

    for span in &trace.spans {
        // Every parent id exists among the recorded spans.
        if let Some(p) = span.parent {
            assert!(
                trace.spans.iter().any(|o| o.id == p),
                "dangling parent {p:?}"
            );
        }
        // The root's window covers every span.
        assert!(
            span.start_nanos + span.duration_nanos <= root.start_nanos + root.duration_nanos,
            "span {} [{}..+{}] escapes the root window",
            span.name,
            span.start_nanos,
            span.duration_nanos
        );
        // Sequential execution: direct children's durations sum within
        // their parent (equivalently, every self-time is non-negative).
        let child_sum: u64 = trace
            .spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .map(|c| c.duration_nanos)
            .sum();
        assert!(
            child_sum <= span.duration_nanos,
            "children of {} ({child_sum}ns) exceed its duration ({}ns)",
            span.name,
            span.duration_nanos
        );
    }

    // Sliding-window reconciliation: the repair route's window sum must be
    // at least the root span's duration (the handler's clock starts before
    // the span and stops after it), and the window quantiles render.
    let metrics = client::get(addr, "/metrics").expect("metrics").text();
    assert!(
        metrics.contains("serve_request_seconds_window{route=\"repair\",quantile=\"0.95\"}"),
        "window quantiles render: {metrics}"
    );
    assert!(
        metrics.contains("repair_tuple_seconds_window"),
        "per-tuple window recorded: {metrics}"
    );
    let window_sum = metric(
        &metrics,
        "serve_request_seconds_window_sum{route=\"repair\"}",
    )
    .expect("window sum present");
    assert!(
        window_sum >= trace.duration_nanos as f64 / 1e9,
        "window sum {window_sum}s < stored trace duration {}ns",
        trace.duration_nanos
    );
    let window_count = metric(
        &metrics,
        "serve_request_seconds_window_count{route=\"repair\"}",
    )
    .expect("window count present");
    assert_eq!(window_count, 1.0, "one repair request in the window");

    server.shutdown();
    server.join();
}

#[test]
fn quiet_requests_leave_no_trace_and_unknown_ids_404() {
    let server = boot(ServeConfig::default());
    let addr = server.addr();

    let resp = client::request(
        addr,
        "POST",
        "/v1/repair/nobel-mini",
        "text/csv",
        CSV.as_bytes(),
    )
    .expect("repair");
    assert_eq!(resp.status, 200);
    let text = resp.text();
    assert!(
        !text.contains("\"trace_id\""),
        "unretained capture must not advertise an id: {text}"
    );

    let index = client::get(addr, "/v1/traces").expect("index");
    assert!(index.text().contains("\"traces\":[]"), "{}", index.text());
    let missing = client::get(addr, &format!("/v1/traces/{}", "ab".repeat(16))).expect("get");
    assert_eq!(missing.status, 404);

    server.shutdown();
    server.join();
}

#[test]
fn traceparent_header_adopts_the_callers_trace_id() {
    let server = boot(ServeConfig::default());
    let addr = server.addr();

    // Hand-rolled request so we can send the traceparent header; `?trace=1`
    // forces retention.
    use std::io::{BufReader, Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let remote_trace = "0af7651916cd43dd8448eb211c80319c";
    write!(
        stream,
        "POST /v1/repair/nobel-mini?trace=1&threads=1 HTTP/1.1\r\nhost: t\r\n\
         traceparent: 00-{remote_trace}-b7ad6b7169203331-01\r\n\
         content-type: text/csv\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{CSV}",
        CSV.len()
    )
    .expect("send");
    let mut raw = String::new();
    BufReader::new(&mut stream)
        .read_to_string(&mut raw)
        .expect("read");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(
        raw.contains(&format!("\"trace_id\":\"{remote_trace}\"")),
        "summary carries the adopted id: {raw}"
    );

    let doc = client::get(addr, &format!("/v1/traces/{remote_trace}")).expect("trace doc");
    assert_eq!(doc.status, 200, "{}", doc.text());
    let doc = json::parse(&doc.text()).expect("JSON");
    let trace = StoredTrace::from_json(&doc).expect("stored trace");
    let root = trace
        .spans
        .iter()
        .find(|s| s.parent.is_none())
        .expect("root");
    // The remote parent is an attribute; the stored root keeps a null
    // parent so the tree stays self-contained.
    assert!(
        root.attrs.iter().any(|(k, v)| k == "remote_parent"
            && matches!(v, AttrValue::Str(s) if s == "b7ad6b7169203331")),
        "{:?}",
        root.attrs
    );

    server.shutdown();
    server.join();
}

/// The `"kind":"tuple"` lines of an NDJSON repair stream, in order.
fn tuple_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<String> {
    lines
        .filter(|l| l.contains("\"kind\":\"tuple\""))
        .map(str::to_owned)
        .collect()
}

#[test]
fn keepalive_pipeline_counts_each_request_exactly_once() {
    const N: usize = 7;
    let server = boot(ServeConfig::default());
    let addr = server.addr();

    // Bodies grow from one row to a few hundred, so later responses
    // outgrow the connection's response buffer and span several writes.
    let (head, row) = CSV.split_once('\n').expect("header line");
    let bodies: Vec<String> = (0..N)
        .map(|i| format!("{head}\n{}", row.repeat(1 + 60 * i)))
        .collect();

    let mut conn = client::Connection::connect(addr).expect("connect");
    let mut served = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let resp = conn
            .request("POST", "/v1/repair/nobel-mini", "text/csv", body.as_bytes())
            .unwrap_or_else(|e| panic!("keep-alive request {i}: {e}"));
        assert_eq!(resp.status, 200);
        served.push(tuple_lines(resp.text().lines()));
    }
    let metrics = conn.get("/metrics").expect("metrics on the same socket");
    let text = metrics.text();
    assert_eq!(
        metric(
            &text,
            "serve_requests_total{route=\"repair\",status=\"2xx\"}"
        ),
        Some(N as f64),
        "{text}"
    );
    assert_eq!(
        metric(&text, "serve_request_seconds_count{route=\"repair\"}"),
        Some(N as f64),
        "{text}"
    );
    assert_eq!(
        metric(
            &text,
            "serve_request_seconds_window_count{route=\"repair\"}"
        ),
        Some(N as f64),
        "{text}"
    );

    // Buffered framing on a reused socket decodes to exactly what the
    // handler produced: each response's tuple lines equal those of the
    // same body run through `handle` in process (after the metric checks,
    // since `handle` counts its requests too).
    for (i, (body, served)) in bodies.iter().zip(&served).enumerate() {
        let request = Request {
            method: "POST".into(),
            path: "/v1/repair/nobel-mini".into(),
            query: String::new(),
            headers: vec![("content-type".into(), "text/csv".into())],
            body: body.as_bytes().to_vec(),
            http11: true,
        };
        let response = handle(server.state(), &request);
        assert_eq!(response.status, 200);
        let Body::Lines(lines) = &response.body else {
            panic!("repair responds with NDJSON lines");
        };
        let expected = tuple_lines(lines.iter().map(String::as_str));
        assert_eq!(expected.len(), 1 + 60 * i, "one tuple line per row");
        assert!(*served == expected, "response {i} differs from handle()");
    }

    // Close the socket first, or `join` waits out the idle timeout.
    drop(conn);
    server.shutdown();
    server.join();
}

#[test]
fn error_outcomes_are_tail_sampled_without_forcing() {
    // An impossible step budget: every row degrades, which the default
    // policy retains as `error`.
    let config = ServeConfig {
        trace_slow: Some(Duration::from_secs(3600)),
        ..ServeConfig::default()
    };
    let server = boot(config);
    let addr = server.addr();

    let resp = client::request(
        addr,
        "POST",
        "/v1/repair/nobel-mini?max_steps=1&threads=1",
        "text/csv",
        CSV.as_bytes(),
    )
    .expect("repair");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let text = resp.text();
    assert!(text.contains("\"degraded\":1"), "{text}");
    assert!(
        text.contains("\"trace_id\""),
        "degraded run is kept: {text}"
    );

    let index = client::get(addr, "/v1/traces").expect("index").text();
    assert!(index.contains("\"why\":\"error\""), "{index}");

    server.shutdown();
    server.join();
}
