//! Survival-layer integration tests (DESIGN.md §9), feature-free so they
//! run in the tier-1 suite: the 408/413/431 failure-mapping matrix over
//! raw sockets, keep-alive semantics (reuse, request caps, idle timeouts),
//! mid-stream client disconnects, admission shedding with exact overload
//! accounting, and graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dr_core::RegistryConfig;
use dr_obs::Obs;
use dr_serve::client::{self, Connection};
use dr_serve::{build_state, Admission, KbSpec, ServeConfig, Server};

fn boot_with(config: ServeConfig) -> (Server, Arc<Obs>) {
    let obs = Arc::new(Obs::new());
    let state = build_state(
        &[KbSpec::NobelMini],
        RegistryConfig::default(),
        Arc::clone(&obs),
        config,
    )
    .expect("state builds");
    let server = Server::bind("127.0.0.1:0", state, 2).expect("bind port 0");
    (server, obs)
}

fn boot() -> (Server, Arc<Obs>) {
    boot_with(ServeConfig::default())
}

const CSV_HEADER: &str = "Name,DOB,Country,Prize,Institution,City\n";
const CSV_ROW: &str = "Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,\
                       Israel Institute of Technology,Karcag\n";

fn csv_body(rows: usize) -> String {
    let mut out = String::from(CSV_HEADER);
    for _ in 0..rows {
        out.push_str(CSV_ROW);
    }
    out
}

/// Sends `raw` bytes and reads whatever the server answers until close.
fn raw_roundtrip(addr: std::net::SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(raw).expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).ok();
    out
}

/// A one-shot `POST /v1/repair/nobel-mini` carrying `body`.
fn repair_request(content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /v1/repair/nobel-mini HTTP/1.1\r\nhost: t\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The failure-mapping matrix: each malformed or abusive request gets its
/// typed status, on a fresh connection each time, and the server stays up
/// throughout.
#[test]
fn failure_mapping_matrix_over_raw_sockets() {
    let (server, _obs) = boot_with(ServeConfig {
        // Tight header window so the timeout legs run in test time.
        header_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // 413: a content-length over the cap is refused from the headers
    // alone — no body bytes are read or needed.
    let resp = raw_roundtrip(
        addr,
        format!(
            "POST /v1/repair/nobel-mini HTTP/1.1\r\nhost: t\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n",
            (64 << 20) + 1
        )
        .as_bytes(),
    );
    assert!(resp.starts_with("HTTP/1.1 413 "), "{resp}");

    // 431: a header block over the 64 KiB cap (many valid-sized lines —
    // one absurdly long line is cut off by the per-line cap as a 400).
    let mut huge_head = String::from("GET /healthz HTTP/1.1\r\nhost: t\r\n");
    for i in 0..200 {
        huge_head.push_str(&format!("x-pad-{i}: {}\r\n", "a".repeat(512)));
    }
    huge_head.push_str("\r\n");
    let resp = raw_roundtrip(addr, huge_head.as_bytes());
    assert!(resp.starts_with("HTTP/1.1 431 "), "{resp}");

    // 408: a half-sent request line times out as a typed error...
    let resp = raw_roundtrip(addr, b"POST /v1/re");
    assert!(resp.starts_with("HTTP/1.1 408 "), "{resp}");

    // ...and so does a body that never arrives in full.
    let resp = raw_roundtrip(
        addr,
        b"POST /v1/repair/nobel-mini HTTP/1.1\r\nhost: t\r\n\
          content-length: 100\r\n\r\nonly-a-few-bytes",
    );
    assert!(resp.starts_with("HTTP/1.1 408 "), "{resp}");

    // A connect-and-close probe gets silence, not an error response.
    let resp = raw_roundtrip(addr, b"");
    assert_eq!(resp, "", "probes are closed without a response");

    // 501: chunked request bodies are not implemented.
    let resp = raw_roundtrip(
        addr,
        b"POST /v1/repair/nobel-mini HTTP/1.1\r\nhost: t\r\n\
          transfer-encoding: chunked\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 501 "), "{resp}");

    // 400: a malformed header line.
    let resp = raw_roundtrip(addr, b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");

    // 400: content-length is `1*DIGIT` — no sign.
    let resp = raw_roundtrip(
        addr,
        b"GET /healthz HTTP/1.1\r\nhost: t\r\n\
          content-length: +5\r\nconnection: close\r\n\r\nhello",
    );
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");

    // 400: differing duplicate content-lengths (a request-smuggling
    // shape) are refused rather than resolved first-one-wins.
    let resp = raw_roundtrip(
        addr,
        b"GET /healthz HTTP/1.1\r\nhost: t\r\n\
          content-length: 0\r\ncontent-length: 5\r\nconnection: close\r\n\r\nhello",
    );
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");

    // 400: JSON nested past the reader's depth cap is a typed error, not
    // a stack overflow that aborts the process.
    for depth in [8_000, 200_000] {
        let body = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let resp = raw_roundtrip(addr, &repair_request("application/json", &body));
        assert!(resp.starts_with("HTTP/1.1 400 "), "depth {depth}: {resp}");
        assert!(resp.contains("nesting deeper than"), "{resp}");
    }

    // 400: a repeated column name is a header error. Three of them
    // against two acceptor threads: a panicking handler would have taken
    // both threads down before the third arrived.
    for (content_type, body) in [
        ("text/csv", "A,A\nx,y\n"),
        ("application/json", r#"[["A","A"],["x","y"]]"#),
        ("text/csv", "A,A\nx,y\n"),
    ] {
        let resp = raw_roundtrip(addr, &repair_request(content_type, body));
        assert!(resp.starts_with("HTTP/1.1 400 "), "{content_type}: {resp}");
        assert!(resp.contains("duplicate attribute"), "{resp}");
    }

    // After all of that, the server still serves.
    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);

    server.shutdown();
    server.join();
}

/// Keep-alive: one socket carries many requests; the per-connection cap
/// closes it with `connection: close` on the final allowed response.
#[test]
fn keepalive_reuses_and_caps_connections() {
    let (server, obs) = boot_with(ServeConfig {
        max_requests_per_conn: 3,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let mut conn = Connection::connect(addr).expect("connect");
    for i in 0..2 {
        let resp = conn.get("/healthz").expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.header("connection"),
            Some("keep-alive"),
            "request {i} keeps the connection"
        );
    }
    // Request 3 hits the cap: still served, but the server says close.
    let resp = conn.get("/healthz").expect("capped request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    // The socket is done; the next request on it fails.
    assert!(conn.get("/healthz").is_err(), "capped connection is closed");

    let snap = obs.metrics().snapshot();
    assert_eq!(snap.counter_total("serve_connections_total"), 1);
    assert_eq!(snap.counter_total("serve_keepalive_reuse_total"), 2);

    // HTTP/1.0 without keep-alive closes after one response; an explicit
    // `connection: close` on 1.1 is honored too (the one-shot client).
    let resp = client::get(addr, "/healthz").expect("one-shot");
    assert_eq!(resp.header("connection"), Some("close"));

    server.shutdown();
    server.join();
}

/// An idle keep-alive connection is closed silently once `idle_timeout`
/// passes — no 408, because no request had started.
#[test]
fn idle_keepalive_connections_are_reaped() {
    let (server, _obs) = boot_with(ServeConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    });
    let mut conn = Connection::connect(server.addr()).expect("connect");
    assert_eq!(conn.get("/healthz").expect("first").status, 200);
    std::thread::sleep(Duration::from_millis(400));
    // The server reaped the idle socket: either the send fails or the
    // read sees a clean EOF (an error either way, with no 408 bytes).
    assert!(conn.get("/healthz").is_err(), "idle connection was reaped");

    server.shutdown();
    server.join();
}

/// A client that disappears mid-stream costs one counter tick, not a
/// worker: the same server keeps serving afterwards.
#[test]
fn mid_stream_disconnect_is_counted_not_fatal() {
    let (server, obs) = boot();
    let addr = server.addr();

    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let body = csv_body(600); // a response far larger than one write
        write!(
            stream,
            "POST /v1/repair/nobel-mini?label=vanish HTTP/1.1\r\nhost: t\r\n\
             content-type: text/csv\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .expect("head");
        stream.write_all(body.as_bytes()).expect("body");
        // Vanish without reading a byte: the unread response turns the
        // close into a hard reset and the server's writes start failing.
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if obs
            .metrics()
            .snapshot()
            .counter_total("serve_client_disconnect_total")
            >= 1
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve_client_disconnect_total never moved"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The worker that took the hit is back on accept duty.
    let resp = client::request(
        addr,
        "POST",
        "/v1/repair/nobel-mini",
        "text/csv",
        csv_body(1).as_bytes(),
    )
    .expect("server still serves");
    assert_eq!(resp.status, 200);

    server.shutdown();
    server.join();
}

/// Admission shedding over the wire: with the only permit held in-process,
/// a socket request bounces with `429` + `Retry-After` and the shed is
/// typed in the metrics; releasing the permit restores service.
#[test]
fn admission_sheds_with_429_and_retry_after() {
    let (server, obs) = boot_with(ServeConfig {
        admission: dr_serve::AdmissionConfig {
            max_inflight_repairs: 1,
            max_queue: 1,
            queue_wait: Duration::from_millis(50),
            retry_after_secs: 7,
        },
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let permit = match server.state().gate.acquire() {
        Admission::Granted(p) => p,
        Admission::Shed { .. } => panic!("empty gate grants"),
    };
    let resp = client::request(
        addr,
        "POST",
        "/v1/repair/nobel-mini",
        "text/csv",
        csv_body(1).as_bytes(),
    )
    .expect("shed response");
    assert_eq!(resp.status, 429, "{}", resp.text());
    assert_eq!(resp.header("retry-after"), Some("7"));
    assert_eq!(
        obs.metrics().snapshot().counter_total("serve_shed_total"),
        1
    );
    // Light routes bypass the gate even while repairs are saturated.
    assert_eq!(client::get(addr, "/healthz").expect("healthz").status, 200);
    assert_eq!(client::get(addr, "/metrics").expect("metrics").status, 200);

    drop(permit);
    let resp = client::request(
        addr,
        "POST",
        "/v1/repair/nobel-mini",
        "text/csv",
        csv_body(1).as_bytes(),
    )
    .expect("admitted");
    assert_eq!(resp.status, 200);

    server.shutdown();
    server.join();
}

/// Overload accounting: a stampede against a saturated gate sheds every
/// request with `429` + `Retry-After`, never lets the in-flight count pass
/// the cap, and moves the shed and 2xx counters by exactly what the
/// clients saw.
#[test]
fn overload_sheds_are_bounded_and_exactly_accounted() {
    const N: usize = 8;
    let (server, obs) = boot_with(ServeConfig {
        admission: dr_serve::AdmissionConfig {
            max_inflight_repairs: 1,
            max_queue: 1,
            queue_wait: Duration::from_millis(20),
            retry_after_secs: 3,
        },
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let state = Arc::clone(server.state());
    let ok_2xx = |snap: &dr_obs::MetricsSnapshot| {
        snap.counter("serve_requests_total", "route=\"repair\",status=\"2xx\"")
            .unwrap_or(0)
    };
    let body = csv_body(1);
    let repair = || {
        client::request(
            addr,
            "POST",
            "/v1/repair/nobel-mini",
            "text/csv",
            body.as_bytes(),
        )
        .expect("repair response")
    };

    let done = AtomicBool::new(false);
    let max_inflight = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Sampler: the in-flight count never passes the cap of 1.
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                max_inflight.fetch_max(state.gate.inflight(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });

        // Phase 1: the only permit is held, so all N concurrent repairs
        // are shed.
        let permit = match state.gate.acquire() {
            Admission::Granted(p) => p,
            Admission::Shed { .. } => panic!("empty gate grants"),
        };
        let before = obs.metrics().snapshot();
        let clients: Vec<_> = (0..N).map(|_| s.spawn(repair)).collect();
        for client in clients {
            let resp = client.join().expect("client thread");
            assert_eq!(resp.status, 429, "{}", resp.text());
            assert_eq!(resp.header("retry-after"), Some("3"));
        }
        let after = obs.metrics().snapshot();
        assert_eq!(
            after.counter_total("serve_shed_total") - before.counter_total("serve_shed_total"),
            N as u64,
            "one shed counted per 429"
        );
        assert_eq!(ok_2xx(&after), ok_2xx(&before), "nothing was admitted");

        // Phase 2: with the permit back, N repairs are all served.
        drop(permit);
        let before = obs.metrics().snapshot();
        for _ in 0..N {
            assert_eq!(repair().status, 200);
        }
        let after = obs.metrics().snapshot();
        assert_eq!(
            ok_2xx(&after) - ok_2xx(&before),
            N as u64,
            "one 2xx per 200"
        );
        done.store(true, Ordering::Release);
    });
    assert!(
        max_inflight.load(Ordering::Relaxed) <= 1,
        "in-flight cap held"
    );
    assert_eq!(state.gate.inflight(), 0, "every permit released");

    server.shutdown();
    server.join();
}

/// Graceful drain end to end: an in-flight stream completes intact while
/// `/readyz` reports 503 and new repairs are refused; the drain flushes
/// `.drsnap` snapshots before returning.
#[test]
fn drain_finishes_streams_and_flushes_snapshots() {
    let cache_dir = std::env::temp_dir().join(format!("dr-serve-drain-{}", std::process::id()));
    std::fs::create_dir_all(&cache_dir).expect("tempdir");
    let obs = Arc::new(Obs::new());
    let state = build_state(
        &[KbSpec::NobelMini],
        RegistryConfig::default().with_cache_dir(&cache_dir),
        Arc::clone(&obs),
        ServeConfig::default(),
    )
    .expect("state builds");
    let server = Server::bind("127.0.0.1:0", state, 2).expect("bind");
    let addr = server.addr();
    let rows = 200;

    std::thread::scope(|s| {
        let streamer = s.spawn(move || {
            client::request(
                addr,
                "POST",
                "/v1/repair/nobel-mini?label=drain",
                "text/csv",
                csv_body(rows).as_bytes(),
            )
        });

        // Wait until the streamer's request is actually in flight, then
        // begin the drain; the acceptors are still up until `drain()`
        // below, so the balancer view is observable over the wire.
        let admitted = std::time::Instant::now() + Duration::from_secs(10);
        while server.state().lifecycle.active() == 0 {
            assert!(
                std::time::Instant::now() < admitted,
                "streamer request never started"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        server.state().lifecycle.begin_drain();
        let ready = client::get(addr, "/readyz").expect("readyz");
        assert_eq!(ready.status, 503, "{}", ready.text());
        let refused = client::request(
            addr,
            "POST",
            "/v1/repair/nobel-mini",
            "text/csv",
            csv_body(1).as_bytes(),
        )
        .expect("refused repair");
        assert_eq!(refused.status, 503);
        assert_eq!(refused.header("retry-after"), Some("1"));
        // Liveness stays green while draining — only readiness flips.
        assert_eq!(client::get(addr, "/healthz").expect("live").status, 200);

        assert!(
            server.drain(Duration::from_secs(30)),
            "drain completes within the deadline"
        );

        // The stream that was in flight when the drain began is intact:
        // complete chunked framing, every row present, summary last.
        let resp = streamer
            .join()
            .expect("streamer thread")
            .expect("stream survived the drain");
        assert_eq!(resp.status, 200);
        let text = resp.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), rows + 2, "header + rows + summary");
        assert!(lines[0].contains("\"kind\":\"header\""));
        assert!(lines[rows + 1].contains("\"kind\":\"summary\""));
    });

    let snaps = std::fs::read_dir(&cache_dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "drsnap"))
        .count();
    std::fs::remove_dir_all(&cache_dir).ok();
    assert!(snaps > 0, "drain flushed value-cache snapshots");
}
