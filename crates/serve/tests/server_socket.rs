//! End-to-end socket tests: boot the real server on a free port and drive
//! it with the bundled HTTP client — covering the wire layer (request
//! parsing, chunked NDJSON streaming) that the handler-level tests skip.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use dr_core::RegistryConfig;
use dr_datasets::NobelWorld;
use dr_obs::{json, Obs};
use dr_relation::{inject, NoiseSpec, Relation, Tuple};
use dr_serve::{build_state, client, KbSpec, ServeConfig, Server};

fn boot() -> Server {
    let state = build_state(
        &[KbSpec::NobelMini],
        RegistryConfig::default(),
        Arc::new(Obs::new()),
        ServeConfig::default(),
    )
    .expect("state builds");
    Server::bind("127.0.0.1:0", state, 2).expect("bind port 0")
}

#[test]
fn serves_health_kbs_metrics_and_repairs_over_sockets() {
    let server = boot();
    let addr = server.addr();

    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));

    let kbs = client::get(addr, "/kbs").expect("kbs");
    assert!(kbs.text().contains("\"name\":\"nobel-mini\""));

    let body = "Name,DOB,Country,Prize,Institution,City\n\
                Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,Israel Institute of Technology,Karcag\n";
    let resp = client::request(
        addr,
        "POST",
        "/v1/repair/nobel-mini?label=socket",
        "text/csv",
        body.as_bytes(),
    )
    .expect("repair request");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(
        resp.header("transfer-encoding"),
        Some("chunked"),
        "repair responses stream"
    );
    let text = resp.text();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("\"kind\":\"header\""), "{}", lines[0]);
    assert!(lines[1].contains("\"kind\":\"tuple\""), "{}", lines[1]);
    assert!(
        lines.last().unwrap().contains("\"kind\":\"summary\""),
        "{text}"
    );

    // The repair shows up in the exported metrics.
    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert!(
        metrics.text().contains("repair_tuples_total"),
        "{}",
        metrics.text()
    );

    // Error paths keep the connection usable for the next client.
    let missing = client::get(addr, "/nope").expect("404 route");
    assert_eq!(missing.status, 404);
    let bad = client::request(
        addr,
        "POST",
        "/v1/repair/nobel-mini",
        "text/csv",
        b"A,B\n1,2\n",
    )
    .expect("schema mismatch");
    assert_eq!(bad.status, 400);

    server.shutdown();
    server.join();
}

/// `/v1/repair/nobel` request bodies: `requests` slices of `rows` tuples of
/// the served Nobel world, each with its own seeded noise, so the uploaded
/// tuples resolve against the served KB.
fn nobel_bodies(world: &NobelWorld, requests: usize, rows: usize) -> Vec<String> {
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    (0..requests)
        .map(|r| {
            let mut slice = Relation::new(Arc::clone(clean.schema()));
            for i in 0..rows {
                let src = clean.tuple((r * rows + i) % clean.len());
                slice.push(Tuple::new(src.cells().to_vec()));
            }
            let spec = NoiseSpec::new(0.10, 7 ^ (r as u64 + 1)).with_excluded(vec![name]);
            let (dirty, _) = inject(&slice, &spec, &world.semantic_source());
            dr_relation::csv::serialize(&dirty)
        })
        .collect()
}

/// Posts every body once from `clients` threads; returns the tuple count
/// summed over each response's summary line.
fn fire(addr: std::net::SocketAddr, label: &str, bodies: &[String], clients: usize) -> u64 {
    let next = AtomicUsize::new(0);
    let tuples = AtomicU64::new(0);
    let target = format!("/v1/repair/nobel?label={label}");
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                while let Some(body) = bodies.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let resp = client::request(addr, "POST", &target, "text/csv", body.as_bytes())
                        .expect("repair request");
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    let text = resp.text();
                    let summary = json::parse(text.lines().last().expect("non-empty body"))
                        .expect("summary line is JSON");
                    assert_eq!(
                        summary.get("kind").and_then(|k| k.as_str()),
                        Some("summary")
                    );
                    let count = |key: &str| summary.get(key).and_then(|v| v.as_u64()).unwrap();
                    tuples.fetch_add(
                        count("completed") + count("degraded") + count("failed"),
                        Ordering::Relaxed,
                    );
                }
            });
        }
    });
    tuples.load(Ordering::Relaxed)
}

/// What every response claimed must equal what the server counted, after
/// the same requests ran cold and then warm from two concurrent clients:
/// concurrent serving must not corrupt the shared observability path.
#[test]
fn concurrent_responses_reconcile_with_metrics() {
    const REQUESTS: usize = 8;
    const ROWS: usize = 15;
    let (size, seed) = (120, 7);
    let bodies = nobel_bodies(&NobelWorld::generate(size, seed), REQUESTS, ROWS);
    let obs = Arc::new(Obs::new());
    let state = build_state(
        &[KbSpec::Nobel { size, seed }],
        RegistryConfig::default(),
        Arc::clone(&obs),
        ServeConfig::default(),
    )
    .expect("state builds");
    let server = Server::bind("127.0.0.1:0", state, 2).expect("bind port 0");
    let addr = server.addr();

    let client_tuples = fire(addr, "cold", &bodies, 2) + fire(addr, "warm", &bodies, 2);

    let snapshot = obs.metrics().snapshot();
    assert_eq!(client_tuples, (2 * REQUESTS * ROWS) as u64);
    assert_eq!(
        snapshot.counter_total("repair_tuples_total"),
        client_tuples,
        "repair_tuples_total vs client-summed summaries"
    );
    assert_eq!(
        snapshot.counter("serve_requests_total", "route=\"repair\",status=\"2xx\""),
        Some(2 * REQUESTS as u64),
        "2xx repair count"
    );

    server.shutdown();
    server.join();
}
