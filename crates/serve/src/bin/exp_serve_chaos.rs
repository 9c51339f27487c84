//! `exp_serve_chaos` — chaos/overload harness for the service survival
//! layer (DESIGN.md §9).
//!
//! Boots `dr-serve` instances in-process and drives them through the
//! failure modes the survival layer exists for, gating on invariants
//! rather than eyeballs:
//!
//! 1. **overload** — a client stampede against a tiny admission gate must
//!    shed with `429 Retry-After` instead of queueing unboundedly, the
//!    in-flight gauge must never exceed the cap, and client-observed
//!    429/200 counts must reconcile exactly with `serve_shed_total` and
//!    `serve_requests_total`.
//! 2. **keep-alive** — many requests over one [`Connection`](dr_serve::client::Connection) must
//!    reuse the socket (`serve_connections_total` grows by exactly 1).
//! 3. **disconnect** — a client that hangs up mid-stream must cost the
//!    server nothing but a `serve_client_disconnect_total` tick.
//! 4. **drain** — SIGTERM semantics driven in-process: `/readyz` flips to
//!    503, new repairs are refused, the in-flight NDJSON stream completes
//!    intact, and `.drsnap` snapshots are flushed.
//!
//! Writes a per-leg report to `results/serve_chaos.txt` and exits
//! nonzero if any gate fails. `--quick` shrinks the counts for CI.
//!
//! Requires the `fault-injection` feature (the chaos is seeded, not
//! random): `cargo run -p dr-serve --features fault-injection --bin
//! exp_serve_chaos`.

#[cfg(not(feature = "fault-injection"))]
fn main() {
    eprintln!(
        "exp_serve_chaos needs seeded faults; rebuild with: \
         cargo run -p dr-serve --features fault-injection --bin exp_serve_chaos"
    );
    std::process::exit(2);
}

#[cfg(feature = "fault-injection")]
fn main() {
    chaos::main()
}

#[cfg(feature = "fault-injection")]
mod chaos {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use dr_core::RegistryConfig;
    use dr_obs::{MetricsSnapshot, Obs};
    use dr_serve::client::{self, Connection};
    use dr_serve::{build_state, AdmissionConfig, KbSpec, ServeConfig, Server};

    /// One CSV body over the nobel-mini schema with `rows` data rows.
    fn csv_body(rows: usize) -> String {
        let mut out = String::from("Name,DOB,Country,Prize,Institution,City\n");
        for _ in 0..rows {
            out.push_str(
                "Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,\
                 Israel Institute of Technology,Karcag\n",
            );
        }
        out
    }

    /// Pulls `"key":<int>` out of a summary NDJSON line.
    fn summary_field(line: &str, key: &str) -> u64 {
        let pattern = format!("\"{key}\":");
        let Some(at) = line.find(&pattern) else {
            return 0;
        };
        line[at + pattern.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap_or(0)
    }

    fn boot(config: ServeConfig, cache_dir: Option<&std::path::Path>) -> (Server, Arc<Obs>) {
        let mut registry_config = RegistryConfig::default();
        if let Some(dir) = cache_dir {
            registry_config = registry_config.with_cache_dir(dir);
        }
        let obs = Arc::new(Obs::new());
        let state = build_state(
            &[KbSpec::NobelMini],
            registry_config,
            Arc::clone(&obs),
            config,
        )
        .unwrap_or_else(|e| {
            eprintln!("exp_serve_chaos: {e}");
            std::process::exit(2);
        });
        let server = Server::bind("127.0.0.1:0", state, 8).unwrap_or_else(|e| {
            eprintln!("exp_serve_chaos: bind failed: {e}");
            std::process::exit(2);
        });
        (server, obs)
    }

    fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
        after.counter_total(name) - before.counter_total(name)
    }

    /// Leg 1: stampede a tiny gate; sheds must be typed, bounded, and
    /// exactly accounted.
    fn leg_overload(server: &Server, obs: &Obs, quick: bool) -> Result<String, String> {
        let clients = if quick { 6 } else { 10 };
        let per_client = if quick { 2 } else { 4 };
        let before = obs.metrics().snapshot();
        let body = csv_body(6);
        let target =
            "/v1/repair/nobel-mini?label=overload&threads=1&fault_slow_rate=1&fault_slow_ms=40&fault_seed=1";

        let ok = AtomicU64::new(0);
        let shed = AtomicU64::new(0);
        let max_inflight = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let state = Arc::clone(server.state());
        let addr = server.addr();
        let mut bad = Vec::new();
        std::thread::scope(|s| {
            // Sampler: the "no unbounded queueing" gate. The in-flight
            // gauge must never exceed the configured cap.
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    max_inflight.fetch_max(state.gate.inflight() as u64, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let results: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(|| {
                        let mut statuses = Vec::new();
                        for _ in 0..per_client {
                            match client::request(addr, "POST", target, "text/csv", body.as_bytes())
                            {
                                Ok(resp) => {
                                    if resp.status == 429 && resp.header("retry-after").is_none() {
                                        statuses.push(Err("429 without retry-after".to_owned()));
                                        continue;
                                    }
                                    match resp.status {
                                        200 => ok.fetch_add(1, Ordering::Relaxed),
                                        429 => shed.fetch_add(1, Ordering::Relaxed),
                                        other => {
                                            statuses
                                                .push(Err(format!("unexpected status {other}")));
                                            continue;
                                        }
                                    };
                                    statuses.push(Ok(()));
                                }
                                Err(e) => statuses.push(Err(format!("request error: {e}"))),
                            }
                        }
                        statuses
                    })
                })
                .collect();
            for handle in results {
                for r in handle.join().expect("client thread") {
                    if let Err(e) = r {
                        bad.push(e);
                    }
                }
            }
            done.store(true, Ordering::Release);
        });
        if let Some(e) = bad.first() {
            return Err(format!("overload: {e} ({} total)", bad.len()));
        }

        let after = obs.metrics().snapshot();
        let ok = ok.load(Ordering::Relaxed);
        let shed = shed.load(Ordering::Relaxed);
        let total = (clients * per_client) as u64;
        if ok + shed != total {
            return Err(format!("overload: {ok} ok + {shed} shed != {total} sent"));
        }
        if shed == 0 {
            return Err("overload: nothing shed — the gate did not engage".into());
        }
        let shed_metric = delta(&before, &after, "serve_shed_total");
        if shed_metric != shed {
            return Err(format!(
                "overload: clients saw {shed} x 429 but serve_shed_total moved {shed_metric}"
            ));
        }
        let ok_metric = after
            .counter("serve_requests_total", "route=\"repair\",status=\"2xx\"")
            .unwrap_or(0)
            - before
                .counter("serve_requests_total", "route=\"repair\",status=\"2xx\"")
                .unwrap_or(0);
        if ok_metric != ok {
            return Err(format!(
                "overload: clients saw {ok} x 200 but 2xx counter moved {ok_metric}"
            ));
        }
        let cap = state_limit(server);
        let peak = max_inflight.load(Ordering::Relaxed);
        if peak > cap {
            return Err(format!("overload: inflight peaked at {peak} > cap {cap}"));
        }
        Ok(format!(
            "overload: {total} requests -> {ok} served, {shed} shed (429+retry-after); \
             inflight peak {peak}/{cap}; metrics reconcile"
        ))
    }

    fn state_limit(server: &Server) -> u64 {
        server.state().gate.limit() as u64
    }

    /// Leg 2: one socket, many requests.
    fn leg_keepalive(server: &Server, obs: &Obs, quick: bool) -> Result<String, String> {
        let requests = if quick { 5 } else { 12 };
        let before = obs.metrics().snapshot();
        let mut conn =
            Connection::connect(server.addr()).map_err(|e| format!("keepalive: connect: {e}"))?;
        let body = csv_body(2);
        for i in 0..requests {
            let resp = if i % 2 == 0 {
                conn.get("/healthz")
            } else {
                conn.request(
                    "POST",
                    "/v1/repair/nobel-mini?label=keepalive",
                    "text/csv",
                    body.as_bytes(),
                )
            }
            .map_err(|e| format!("keepalive: request {i}: {e}"))?;
            if resp.status != 200 {
                return Err(format!("keepalive: request {i} got {}", resp.status));
            }
            if resp.header("connection") != Some("keep-alive") {
                return Err(format!(
                    "keepalive: request {i} answered connection: {:?}",
                    resp.header("connection")
                ));
            }
        }
        drop(conn);
        let after = obs.metrics().snapshot();
        let conns = delta(&before, &after, "serve_connections_total");
        let reuse = delta(&before, &after, "serve_keepalive_reuse_total");
        if conns != 1 {
            return Err(format!(
                "keepalive: {requests} requests opened {conns} connections, expected 1"
            ));
        }
        if reuse != requests as u64 - 1 {
            return Err(format!(
                "keepalive: reuse counter moved {reuse}, expected {}",
                requests - 1
            ));
        }
        Ok(format!(
            "keepalive: {requests} requests over 1 socket ({reuse} reuses)"
        ))
    }

    /// Leg 3: hang up mid-stream; the server counts it and keeps serving.
    fn leg_disconnect(server: &Server, obs: &Obs, quick: bool) -> Result<String, String> {
        let rows = if quick { 300 } else { 800 };
        let before = obs.metrics().snapshot();
        {
            use std::io::Write;
            let mut stream = std::net::TcpStream::connect(server.addr())
                .map_err(|e| format!("disconnect: connect: {e}"))?;
            let body = csv_body(rows);
            write!(
                stream,
                "POST /v1/repair/nobel-mini?label=disconnect&threads=1\
                 &fault_slow_rate=0.2&fault_slow_ms=20&fault_seed=3 HTTP/1.1\r\n\
                 host: dr-serve\r\ncontent-type: text/csv\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .and_then(|_| stream.write_all(body.as_bytes()))
            .map_err(|e| format!("disconnect: send: {e}"))?;
            // Give the repair a head start, then vanish without reading a
            // byte: the queued response data turns the close into a hard
            // RST, and the server's stream writes start failing.
            std::thread::sleep(Duration::from_millis(50));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let d = delta(
                &before,
                &obs.metrics().snapshot(),
                "serve_client_disconnect_total",
            );
            if d >= 1 {
                break;
            }
            if Instant::now() > deadline {
                return Err("disconnect: serve_client_disconnect_total never moved".into());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // The worker that took the hit must still serve.
        let resp = client::get(server.addr(), "/healthz")
            .map_err(|e| format!("disconnect: server wedged after disconnect: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "disconnect: healthz got {} afterwards",
                resp.status
            ));
        }
        Ok("disconnect: mid-stream hangup counted, worker kept serving".into())
    }

    /// Leg 4: drain with a stream in flight — the stream completes intact,
    /// new work is refused, snapshots land on disk.
    fn leg_drain(quick: bool) -> Result<String, String> {
        let rows = if quick { 8 } else { 16 };
        let cache_dir =
            std::env::temp_dir().join(format!("dr-serve-chaos-drain-{}", std::process::id()));
        std::fs::create_dir_all(&cache_dir).map_err(|e| format!("drain: tempdir: {e}"))?;
        let (server, _obs) = boot(ServeConfig::default(), Some(&cache_dir));
        let addr = server.addr();

        let result = std::thread::scope(|s| -> Result<String, String> {
            // The stream that must survive the drain: slow rows keep it in
            // flight while the drain begins.
            let streamer = s.spawn(move || {
                let target = "/v1/repair/nobel-mini?label=drain&threads=1\
                     &fault_slow_rate=1&fault_slow_ms=60&fault_seed=7";
                client::request(addr, "POST", target, "text/csv", csv_body(rows).as_bytes())
            });
            std::thread::sleep(Duration::from_millis(150));

            // Flip readiness first (acceptors still up): the balancer view.
            server.state().lifecycle.begin_drain();
            let ready = client::get(addr, "/readyz").map_err(|e| format!("drain: readyz: {e}"))?;
            if ready.status != 503 {
                return Err(format!(
                    "drain: /readyz said {} while draining",
                    ready.status
                ));
            }
            let refused = client::request(
                addr,
                "POST",
                "/v1/repair/nobel-mini",
                "text/csv",
                b"Name\nx\n",
            )
            .map_err(|e| format!("drain: refused-probe: {e}"))?;
            if refused.status != 503 {
                return Err(format!(
                    "drain: new repair got {} while draining, expected 503",
                    refused.status
                ));
            }

            let drained = server.drain(Duration::from_secs(30));
            if !drained {
                return Err("drain: deadline expired with requests in flight".into());
            }
            let resp = streamer
                .join()
                .expect("streamer thread")
                .map_err(|e| format!("drain: in-flight stream broke: {e}"))?;
            if resp.status != 200 {
                return Err(format!("drain: in-flight stream got {}", resp.status));
            }
            let text = resp.text();
            let lines: Vec<&str> = text.lines().collect();
            if lines.len() != rows + 2
                || !lines[0].contains("\"kind\":\"header\"")
                || !lines[rows + 1].contains("\"kind\":\"summary\"")
            {
                return Err(format!(
                    "drain: stream not intact: {} lines for {rows} rows",
                    lines.len()
                ));
            }
            let summary = lines[rows + 1];
            if summary_field(summary, "completed") != rows as u64 {
                return Err(format!("drain: rows lost across drain: {summary}"));
            }
            Ok(format!(
                "drain: in-flight {rows}-row stream completed intact; readyz 503; \
                 new repairs refused"
            ))
        })?;

        let snaps = std::fs::read_dir(&cache_dir)
            .map_err(|e| format!("drain: read cache dir: {e}"))?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "drsnap"))
            .count();
        std::fs::remove_dir_all(&cache_dir).ok();
        if snaps == 0 {
            return Err("drain: no .drsnap snapshot flushed".into());
        }
        Ok(format!("{result}; {snaps} .drsnap flushed"))
    }

    pub fn main() {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        dr_core::repair::fault::silence_injected_panics();

        // Server A carries the traffic legs. Tiny gate so overload can
        // actually shed.
        let config = ServeConfig {
            admission: AdmissionConfig {
                max_inflight_repairs: 2,
                max_queue: 2,
                queue_wait: Duration::from_millis(150),
                retry_after_secs: 1,
            },
            idle_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        };
        let (server, obs) = boot(config, None);

        let mut report = vec![format!(
            "exp_serve_chaos ({} mode)",
            if quick { "quick" } else { "full" }
        )];
        let mut failed = false;
        let legs: Vec<(&str, Result<String, String>)> = vec![
            ("overload", leg_overload(&server, &obs, quick)),
            ("keepalive", leg_keepalive(&server, &obs, quick)),
            ("disconnect", leg_disconnect(&server, &obs, quick)),
            ("drain", leg_drain(quick)),
        ];
        server.shutdown();
        for (name, outcome) in legs {
            match outcome {
                Ok(detail) => {
                    println!("PASS {name}: {detail}");
                    report.push(format!("PASS {detail}"));
                }
                Err(detail) => {
                    eprintln!("FAIL {name}: {detail}");
                    report.push(format!("FAIL {detail}"));
                    failed = true;
                }
            }
        }
        report.push(if failed {
            "verdict: FAIL".into()
        } else {
            "verdict: PASS".into()
        });

        std::fs::create_dir_all("results").ok();
        let path = "results/serve_chaos.txt";
        if let Err(e) = std::fs::write(path, report.join("\n") + "\n") {
            eprintln!("exp_serve_chaos: cannot write {path}: {e}");
        } else {
            eprintln!("exp_serve_chaos: wrote {path}");
        }
        if failed {
            std::process::exit(1);
        }
    }
}
