//! `dr-serve` — the repair service binary.
//!
//! ```text
//! dr-serve --kb nobel:500:42 --kb uis --addr 127.0.0.1:0 \
//!          --cache-dir /var/cache/dr --port-file /tmp/dr.port
//! ```
//!
//! Flags:
//!
//! * `--kb <spec>` (repeatable) — a KB built in memory at boot:
//!   `nobel[:size[:seed]]`, `uis[:size[:seed]]`, or `nobel-mini`.
//! * `--kb-image <family>=<path>` (repeatable) — a packed `.drkb` image
//!   (see `dr_kbpack`) served via mmap without parsing any N-Triples;
//!   `family` (`nobel`, `uis`, `nobel-mini`) picks schema and rules.
//!   At least one `--kb` or `--kb-image` is required.
//! * `--addr <host:port>` — bind address (default `127.0.0.1:7171`;
//!   port `0` picks a free port).
//! * `--port-file <path>` — write the bound `host:port` to `<path>` once
//!   listening (for scripts that bind port 0).
//! * `--cache-dir <dir>` — persist value-cache snapshots under `<dir>`;
//!   a restart with the same dir warm-starts every served KB.
//! * `--threads <n>` — repair worker threads per request (default: all
//!   cores).
//! * `--http-threads <n>` — concurrent connections served (default 4).
//! * `--deadline-ms <n>` — default per-tuple deadline for requests that
//!   do not pass their own (default: unbounded).
//! * `--max-steps <n>` — default per-tuple step cap (default: unbounded).
//! * survival layer (DESIGN.md §9):
//!   `--max-inflight <n>` — concurrent repair requests admitted (0 =
//!   auto from core count); `--max-queue <n>` — waiters beyond that
//!   before instant shedding (0 = auto); `--queue-wait-ms <n>` — longest
//!   a queued request waits before `429`; `--idle-ms <n>` — keep-alive
//!   idle timeout; `--max-requests-per-conn <n>` — keep-alive request cap
//!   (0 = unlimited); `--drain-ms <n>` — SIGTERM drain deadline (default
//!   30000).
//! * observability: `--metrics`, `--metrics-out <path>` (the metric
//!   registry is always on — `/metrics` needs it — so these only control
//!   the exit dump).
//! * live traces (DESIGN.md §11): `--trace-slow-ms <n>` — tail-sampling
//!   latency threshold (0 disables the latency rule; default 500);
//!   `--trace-store <n>` — retained traces kept for `/v1/traces`
//!   (default 64); `--trace-max-spans <n>` — per-trace recorded-span cap
//!   (default 512); `--no-live-trace` — disable span capture entirely.
//!
//! Any other `--…` argument is an error (exit 2), so a misspelt or
//! retired flag fails at boot instead of being silently ignored.
//!
//! On SIGTERM/SIGINT the server drains: `/readyz` flips to 503, new
//! repairs are refused, in-flight streams finish (up to `--drain-ms`),
//! cache snapshots and the final obs dump are flushed, and the process
//! exits 0.

use std::sync::Arc;
use std::time::Duration;

use dr_core::RegistryConfig;
use dr_eval::obsflags::ObsCli;
use dr_obs::Obs;
use dr_serve::{build_state, AdmissionConfig, KbSpec, ServeConfig, Server};

/// Flags that take a value (the next argument).
const VALUE_FLAGS: &[&str] = &[
    "--kb",
    "--kb-image",
    "--addr",
    "--port-file",
    "--cache-dir",
    "--threads",
    "--http-threads",
    "--deadline-ms",
    "--max-steps",
    "--max-inflight",
    "--max-queue",
    "--queue-wait-ms",
    "--idle-ms",
    "--max-requests-per-conn",
    "--drain-ms",
    "--metrics-out",
    "--trace-slow-ms",
    "--trace-store",
    "--trace-max-spans",
];

/// Flags that take no value.
const BARE_FLAGS: &[&str] = &["--metrics", "--no-live-trace"];

/// Checks every `--…` argument against the flags this binary reads,
/// skipping each value flag's value. Returns the first unknown flag.
fn unknown_flag(args: &[String]) -> Option<&str> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            rest.next();
        } else if arg.starts_with("--") && !BARE_FLAGS.contains(&arg.as_str()) {
            return Some(arg);
        }
    }
    None
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| die(&format!("bad value {v:?} for {flag}")))
    })
}

fn die(message: &str) -> ! {
    eprintln!("dr-serve: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(flag) = unknown_flag(&args) {
        die(&format!("unknown flag {flag}"));
    }

    let mut specs = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--kb" {
            let value = args.get(i + 1).unwrap_or_else(|| die("--kb needs a value"));
            match KbSpec::parse(value) {
                Ok(spec) => specs.push(spec),
                Err(e) => die(&e),
            }
            i += 2;
        } else if args[i] == "--kb-image" {
            let value = args
                .get(i + 1)
                .unwrap_or_else(|| die("--kb-image needs a value"));
            match KbSpec::parse_image(value) {
                Ok(spec) => specs.push(spec),
                Err(e) => die(&e),
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    if specs.is_empty() {
        die("pass at least one --kb (nobel[:size[:seed]], uis[:size[:seed]], nobel-mini) or --kb-image <family>=<path>");
    }

    let addr = flag_value(&args, "--addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7171".to_owned());
    let http_threads: usize = parsed_flag(&args, "--http-threads").unwrap_or(4);

    let mut registry_config = RegistryConfig::default();
    if let Some(dir) = flag_value(&args, "--cache-dir") {
        registry_config = registry_config.with_cache_dir(dir);
    }
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        repair_threads: parsed_flag(&args, "--threads").unwrap_or(0),
        default_deadline: parsed_flag::<u64>(&args, "--deadline-ms").map(Duration::from_millis),
        default_max_steps: parsed_flag(&args, "--max-steps").unwrap_or(0),
        admission: AdmissionConfig {
            max_inflight_repairs: parsed_flag(&args, "--max-inflight").unwrap_or(0),
            max_queue: parsed_flag(&args, "--max-queue").unwrap_or(0),
            queue_wait: parsed_flag::<u64>(&args, "--queue-wait-ms")
                .map(Duration::from_millis)
                .unwrap_or(defaults.admission.queue_wait),
            ..AdmissionConfig::default()
        },
        max_requests_per_conn: parsed_flag(&args, "--max-requests-per-conn")
            .unwrap_or(defaults.max_requests_per_conn),
        idle_timeout: parsed_flag::<u64>(&args, "--idle-ms")
            .map(Duration::from_millis)
            .unwrap_or(defaults.idle_timeout),
        trace_capture: !args.iter().any(|a| a == "--no-live-trace"),
        trace_slow: match parsed_flag::<u64>(&args, "--trace-slow-ms") {
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => defaults.trace_slow,
        },
        trace_max_spans: parsed_flag(&args, "--trace-max-spans")
            .unwrap_or(defaults.trace_max_spans),
        trace_store_capacity: parsed_flag(&args, "--trace-store")
            .unwrap_or(defaults.trace_store_capacity),
        ..defaults
    };
    let drain_deadline = parsed_flag::<u64>(&args, "--drain-ms")
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(30));

    // `/metrics` needs a registry regardless of --metrics; the flag only
    // decides whether a metrics.prom dump is written on exit.
    let obs_cli = ObsCli::metrics_only(&args);
    let obs = obs_cli.obs.clone().unwrap_or_else(|| Arc::new(Obs::new()));

    eprintln!(
        "dr-serve: loading {} KB(s): {}",
        specs.len(),
        specs
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let state = match build_state(&specs, registry_config, obs, config) {
        Ok(state) => state,
        Err(e) => die(&e),
    };
    for entry in &state.entries {
        let Some(core) = entry.core() else { continue };
        let kb = core.kb.as_ref();
        eprintln!(
            "dr-serve:   {}: {} instances, {} edges, {} rules (generation {})",
            entry.name,
            kb.num_instances(),
            kb.num_edges(),
            core.rules.len(),
            kb.generation(),
        );
    }

    let server = match Server::bind(addr.as_str(), state, http_threads) {
        Ok(server) => server,
        Err(e) => die(&format!("cannot bind {addr}: {e}")),
    };
    eprintln!("dr-serve: listening on {}", server.addr());
    if let Some(path) = flag_value(&args, "--port-file") {
        if let Err(e) = std::fs::write(path, server.addr().to_string()) {
            die(&format!("cannot write --port-file {path}: {e}"));
        }
    }

    // Serve until signalled. SIGTERM/SIGINT drains gracefully: readiness
    // flips, in-flight streams finish under --drain-ms, snapshots and the
    // obs dump are flushed, and the process exits 0. A SIGKILL still
    // loses nothing vital — the registry persists after every repair.
    #[cfg(unix)]
    {
        sig::install();
        loop {
            if sig::pending() {
                eprintln!(
                    "dr-serve: termination signal; draining (deadline {} ms)",
                    drain_deadline.as_millis()
                );
                let drained = server.drain(drain_deadline);
                eprintln!(
                    "dr-serve: drain {}",
                    if drained {
                        "complete"
                    } else {
                        "deadline exceeded; exiting with requests in flight"
                    }
                );
                obs_cli.finish();
                // Skip joining acceptors: an idle keep-alive peer could
                // hold one until its idle timeout, and everything durable
                // is already flushed.
                std::process::exit(0);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    #[cfg(not(unix))]
    {
        let _ = drain_deadline;
        server.join();
        obs_cli.finish();
    }
}

/// Minimal signal hookup without a libc dependency: `signal(2)` is
/// declared directly (the same idiom as `dr-kb`'s mmap bindings) and the
/// handler only stores an atomic flag — the drain itself runs on the main
/// thread, where blocking and allocation are safe.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::Release);
    }

    /// Routes SIGTERM and SIGINT to the flag.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
            signal(SIGINT, on_term as *const () as usize);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn pending() -> bool {
        TERM.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::unknown_flag;

    fn argv(args: &[&str]) -> Vec<String> {
        std::iter::once("dr-serve")
            .chain(args.iter().copied())
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn known_flags_pass_and_values_are_skipped() {
        let args = argv(&[
            "--kb",
            "nobel-mini",
            "--kb-image",
            "nobel-mini=/tmp/nm.drkb",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            "--weird-but-a-value",
            "--cache-dir",
            "/tmp/c",
            "--metrics",
            "--metrics-out",
            "m.prom",
            "--no-live-trace",
            "--trace-slow-ms",
            "0",
        ]);
        assert_eq!(unknown_flag(&args), None);
        assert_eq!(unknown_flag(&argv(&[])), None);
    }

    #[test]
    fn unknown_and_retired_flags_are_named() {
        for flag in [
            "--retry-attempts",
            "--retry-backoff-ms",
            "--breaker-threshold",
            "--breaker-cooldown-ms",
            "--max-inflght",
            "--trace",
        ] {
            let args = argv(&["--kb", "nobel-mini", flag, "3"]);
            assert_eq!(unknown_flag(&args), Some(flag));
        }
        // A bare flag does not swallow the argument after it.
        let args = argv(&["--metrics", "--nope", "--kb", "nobel-mini"]);
        assert_eq!(unknown_flag(&args), Some("--nope"));
    }
}
