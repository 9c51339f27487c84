//! What every workload shares: the run configuration, the measured window,
//! the end-to-end metrics, and the per-layer metrics of a traced run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::report::{median, ms, quantile, Metric, Report};
use crate::trace::{fold, Span, Tracer};

/// The quantile of operation times the gated latency and throughput use.
///
/// On a shared two-vCPU host, contention from outside the VM slows work by
/// up to half for seconds at a time (a pure spin loop shows the same swings,
/// worst with both vCPUs busy). Over ten seeds the median operation of the
/// two-thread workloads spread by up to 19% while the fastest decile spread
/// by under half that; the fastest decile still moves when the code gets
/// slower. The median and the tail are printed beside it, ungated.
pub const FAST_QUANTILE: f64 = 0.10;

/// Set-up runs at least this many times per measured run ...
const SETUP_MIN: usize = 3;
/// ... and again while the set-ups so far took less than this, so a
/// set-up of a few milliseconds still gets a steady median ...
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// ... up to this many times.
const SETUP_MAX: usize = 25;

/// Runs the set-up the measured window will use; returns its result and
/// its duration in seconds.
pub fn time_setup<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = setup();
    (value, started.elapsed().as_secs_f64())
}

/// Repeats a set-up whose first run took `first` seconds, dropping each
/// result, and returns every duration; `setup_s` is their median. Runs
/// after the measured window and after `peak_rss_mb` is read, so the
/// repeats do not touch the peak.
pub fn repeat_setup<T>(first: f64, mut setup: impl FnMut() -> T) -> Vec<f64> {
    let mut took = vec![first];
    while took.len() < SETUP_MIN
        || (took.len() < SETUP_MAX && took.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        let (value, seconds) = time_setup(&mut setup);
        took.push(seconds);
        drop(value);
    }
    took
}

/// The workloads, in the order a full run executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold batch repair of UIS at two threads.
    UisBatch,
    /// Table I ×128 at one thread, almost every lookup a cache hit.
    TableI1t,
    /// Keep-alive HTTP serving of Nobel request bodies.
    NobelServe,
    /// KB deltas followed by selective re-repair.
    NobelDelta,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::UisBatch,
        Workload::TableI1t,
        Workload::NobelServe,
        Workload::NobelDelta,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UisBatch => "uis-batch",
            Workload::TableI1t => "tablei-1t",
            Workload::NobelServe => "nobel-serve",
            Workload::NobelDelta => "nobel-delta",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether this is the traced run (per-layer metrics) rather than the
    /// measured one (end-to-end metrics).
    pub trace: bool,
    /// Where the traced run writes `<workload>/spans.jsonl`.
    pub trace_dir: PathBuf,
    /// Tiny inputs, for the smoke test.
    pub smoke: bool,
}

impl Config {
    /// `full` normally, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One pass, request or cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSample {
    /// The time the user waits for.
    pub latency: Duration,
    /// Whether the output was correct and every tuple settled.
    pub ok: bool,
    /// Tuples the operation delivered.
    pub tuples: usize,
    /// Value-cache hits of the operation's repair.
    pub hits: u64,
    /// Value-cache lookups (hits + misses) of the operation's repair.
    pub lookups: u64,
}

/// The operations of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    /// Every operation, in completion order per lane.
    pub samples: Vec<OpSample>,
    /// From the window's start to the last operation's end.
    pub elapsed: Duration,
}

impl Window {
    /// Runs `op` back to back until `duration` has passed (at least once),
    /// under one `bench.window` root span.
    pub fn run(
        tracer: &Tracer,
        duration: Duration,
        mut op: impl FnMut(&Span<'_>) -> OpSample,
    ) -> Window {
        let lane = tracer.root("bench.window");
        let started = Instant::now();
        let mut samples = Vec::new();
        loop {
            samples.push(op(&lane));
            if started.elapsed() >= duration {
                break;
            }
        }
        Window {
            samples,
            elapsed: lane.end(),
        }
    }

    /// Operation latencies in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| ms(s.latency)).collect()
    }

    /// The fast-decile operation time in milliseconds (see [`FAST_QUANTILE`]).
    pub fn fast_ms(&self) -> f64 {
        quantile(&self.latencies_ms(), FAST_QUANTILE)
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Tuples delivered by correct operations.
    pub fn good_tuples(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).map(|s| s.tuples).sum()
    }
}

/// Fills the end-to-end metrics of a measured run; `peak_rss_mb` is read
/// right after the window.
pub fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    peak_rss_mb: f64,
    window: &Window,
    tuples_per_s: f64,
) {
    let latencies = window.latencies_ms();
    report.attempted += window.samples.len() as u64;
    report.failed += window.failed();
    report.metrics.extend([
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("tuples_per_s", tuples_per_s, "1/s"),
        Metric::new("latency_ms_p10", window.fast_ms(), "ms"),
    ]);
    let (hits, lookups) = cache_totals([window]);
    report.notes.extend([
        Metric::new("latency_ms_p50", median(&latencies), "ms"),
        Metric::new("latency_ms_p95", quantile(&latencies, 0.95), "ms"),
        Metric::new("latency_samples", latencies.len() as f64, "count"),
        Metric::new("window_s", window.elapsed.as_secs_f64(), "s"),
        Metric::new("setup_repeats", setup_s.len() as f64, "count"),
        Metric::new("value_cache_hits", hits as f64, "count"),
        Metric::new("value_cache_lookups", lookups as f64, "count"),
    ]);
}

/// Value-cache `(hits, lookups)` over the operations of `windows`.
fn cache_totals<'w>(windows: impl IntoIterator<Item = &'w Window>) -> (u64, u64) {
    windows
        .into_iter()
        .flat_map(|w| &w.samples)
        .fold((0, 0), |(h, l), s| (h + s.hits, l + s.lookups))
}

/// Simmatch lookups replayed by the traced run.
#[derive(Debug, Default)]
pub struct LookupStats {
    /// Microseconds per lookup.
    pub us: Vec<f64>,
    /// Candidates returned, summed.
    pub candidates: u64,
}

/// The per-tuple kernel against the whole-relation driver.
#[derive(Debug, Default)]
pub struct KernelStats {
    /// Microseconds per `repair_tuple_shared` call, run sequentially.
    pub tuple_us: Vec<f64>,
    /// Per repetition: Σ kernel time in ms.
    pub kernel_ms: Vec<f64>,
    /// Per repetition: wall time of `parallel_repair` over the same rows.
    pub pass_ms: Vec<f64>,
    /// Worker threads of those passes.
    pub threads: usize,
}

/// One KB-delta cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleSample {
    /// The operation as the window records it.
    pub op: OpSample,
    /// Value-cache entries the registry sweep invalidated.
    pub invalidated: u64,
    /// Live value-cache entries before the sweep.
    pub live_entries: usize,
    /// Rows selective re-repair ran again.
    pub rows_rerun: usize,
    /// Rows of the relation.
    pub rows: usize,
}

/// One request of the serve probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSample {
    /// `csv::parse_lenient_bytes` on the body.
    pub parse_ms: f64,
    /// In-process `dr_serve::handle`.
    pub handle_ms: f64,
    /// Prewarm plus repair, as the response's summary line reports them.
    pub repair_ms: f64,
    /// The HTTP round trip, client side.
    pub http_ms: f64,
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// The main loop with tracing off.
    pub untraced: Window,
    /// The main loop with tracing on.
    pub traced: Window,
    /// Simmatch replay.
    pub lookups: LookupStats,
    /// Kernel replay.
    pub kernel: KernelStats,
    /// KB-delta cycles (the main loop's on `nobel-delta`, a probe's
    /// elsewhere).
    pub cycles: Vec<CycleSample>,
    /// Serve probe requests.
    pub serve: Vec<ServeSample>,
    /// Probe operations attempted.
    pub attempted: u64,
    /// Probe operations that failed.
    pub failed: u64,
}

impl LayerInputs {
    /// Counts one probe operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Fills the per-layer metrics of a traced run, writes the spans, and adds
/// the fold of self time per layer to the notes.
pub fn per_layer(cfg: &Config, report: &mut Report, tracer: &Tracer, inputs: &LayerInputs) {
    let p50 = |name: &str| median(&tracer.durations_ms(name));
    let of = |f: fn(&ServeSample) -> f64| inputs.serve.iter().map(f).collect::<Vec<f64>>();
    let cycles = |f: fn(&CycleSample) -> f64| inputs.cycles.iter().map(f).collect::<Vec<f64>>();
    let mains = [&inputs.untraced, &inputs.traced];
    let (hits, lookups) = cache_totals(mains);
    let k = &inputs.kernel;
    let (pass, kernel) = (median(&k.pass_ms), median(&k.kernel_ms));
    let untraced = median(&inputs.untraced.latencies_ms());
    let traced = median(&inputs.traced.latencies_ms());

    report.metrics.extend([
        Metric::new(
            "relation.csv_parse_us_p50",
            p50("relation.csv_parse") * 1e3,
            "us",
        ),
        Metric::new("kb.build_ms", p50("kb.build"), "ms"),
        Metric::new("kb.clone_ms_p50", p50("kb.clone"), "ms"),
        Metric::new("kb.apply_delta_ms_p50", p50("kb.apply_delta"), "ms"),
        Metric::new("kb.content_hash_ms_p50", p50("kb.content_hash"), "ms"),
        Metric::new("simmatch.lookup_us_p50", median(&inputs.lookups.us), "us"),
        Metric::new(
            "simmatch.lookup_us_p99",
            quantile(&inputs.lookups.us, 0.99),
            "us",
        ),
        Metric::new(
            "simmatch.candidates_per_lookup",
            inputs.lookups.candidates as f64 / inputs.lookups.us.len() as f64,
            "count",
        ),
        Metric::new("simmatch.lookups", inputs.lookups.us.len() as f64, "count"),
        Metric::new("core.prewarm_ms", p50("core.prewarm"), "ms"),
        Metric::new(
            "core.value_cache.hit_ratio",
            hits as f64 / lookups as f64,
            "ratio",
        ),
        Metric::new("core.tuple_us_p50", median(&k.tuple_us), "us"),
        Metric::new("core.tuple_us_p99", quantile(&k.tuple_us, 0.99), "us"),
        Metric::new(
            "core.driver_overhead_pct",
            (pass - kernel) / pass * 100.0,
            "%",
        ),
        Metric::new(
            "core.parallel_efficiency",
            kernel / (pass * k.threads as f64),
            "ratio",
        ),
        Metric::new(
            "core.registry.sweep_ms_p50",
            p50("core.registry.sweep"),
            "ms",
        ),
        Metric::new(
            "core.registry.invalidated_entries",
            median(&cycles(|c| c.invalidated as f64)),
            "count",
        ),
        Metric::new("core.selective_ms_p50", p50("core.selective"), "ms"),
        Metric::new(
            "core.selective.rows_rerun",
            median(&cycles(|c| c.rows_rerun as f64)),
            "count",
        ),
        Metric::new("serve.handle_ms_p50", median(&of(|s| s.handle_ms)), "ms"),
        Metric::new(
            "serve.render_ms_p50",
            median(&of(|s| s.handle_ms - s.parse_ms - s.repair_ms)),
            "ms",
        ),
        Metric::new(
            "serve.http_ms_p50",
            median(&of(|s| s.http_ms - s.handle_ms)),
            "ms",
        ),
        Metric::new(
            "bench.trace_overhead_pct",
            (traced - untraced) / untraced * 100.0,
            "%",
        ),
    ]);

    report.attempted += inputs.attempted;
    report.failed += inputs.failed;
    for window in mains {
        report.attempted += window.samples.len() as u64;
        report.failed += window.failed();
    }

    // Bases of the ratios above, and the fold.
    report.notes.extend([
        Metric::new("core.value_cache.hits", hits as f64, "count"),
        Metric::new("core.value_cache.lookups", lookups as f64, "count"),
        Metric::new(
            "core.registry.live_entries",
            median(&cycles(|c| c.live_entries as f64)),
            "count",
        ),
        Metric::new(
            "core.selective.rows",
            median(&cycles(|c| c.rows as f64)),
            "count",
        ),
        Metric::new("core.kernel_ms_p50", kernel, "ms"),
        Metric::new("core.pass_ms_p50", pass, "ms"),
        Metric::new("core.pass_threads", k.threads as f64, "count"),
        Metric::new("serve.requests", inputs.serve.len() as f64, "count"),
        Metric::new(
            "serve.client_latency_ms_p50",
            median(&of(|s| s.http_ms)),
            "ms",
        ),
        Metric::new("bench.untraced_op_ms_p50", untraced, "ms"),
        Metric::new("bench.traced_op_ms_p50", traced, "ms"),
    ]);
    let spans = tracer.spans();
    let folded = fold(&spans);
    for (layer, self_ms) in &folded.layers {
        report
            .notes
            .push(Metric::new(format!("fold.{layer}.self_ms"), *self_ms, "ms"));
    }
    report
        .notes
        .push(Metric::new("fold.traced_ms", folded.wall_ms, "ms"));
    report.notes.push(Metric::new(
        "fold.coverage_pct",
        folded.coverage() * 100.0,
        "%",
    ));
    let path = cfg.trace_dir.join(cfg.workload.name()).join("spans.jsonl");
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("dr-perf: wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => {
            eprintln!("dr-perf: cannot write {}: {e}", path.display());
            report.checks_ok = false;
        }
    }
}
