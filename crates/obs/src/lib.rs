#![warn(missing_docs)]
//! `dr-obs` — the observability layer for the detective-rules pipeline.
//!
//! Two halves, one handle:
//!
//! * **Metrics** ([`MetricRegistry`]): lock-free monotonic [`Counter`]s
//!   (worker-sharded cells), [`Gauge`]s, and log-bucketed latency
//!   [`Histogram`]s with p50/p95/p99 summaries. Existing subsystem
//!   counters (value cache, cache registry, snapshots) register their
//!   *own* cells into the registry, so the Prometheus dump and the report
//!   columns read the same storage — there is no second bookkeeping path
//!   to drift from.
//! * **Tracing** ([`Tracer`]): per-tuple repair spans emitted as JSONL,
//!   gated by a deterministic seed-driven [`Sampler`] so a trace is
//!   reproducible at any sampling rate and rate-`r1` traces are subsets
//!   of rate-`r2` traces for `r1 <= r2`.
//!
//! An [`Obs`] bundles both and is threaded through the pipeline as an
//! `Option<Arc<Obs>>`; when absent, instrumentation compiles down to a
//! branch per relation and per tuple.
//!
//! A third, request-scoped surface sits beside them: live span trees
//! ([`ActiveTrace`]/[`SpanCtx`]) with monotonic-clock durations, retained
//! by tail sampling into a bounded [`TraceStore`] and rendered by
//! [`render_waterfall`]. Where the JSONL tracer is byte-deterministic by
//! construction (no clocks), the live surface exists to answer "where did
//! *this* request's time go" — see DESIGN.md §11. Sliding-window
//! latency ([`WindowHistogram`]) rounds out the live view on `/metrics`.
//!
//! Every surface renders JSON, so this crate also holds the workspace's
//! one JSON reader and writer ([`json`]): `dr_traceview` reads retained
//! traces with it, `dr-serve` loads JSON relation bodies with it, and its
//! errors are typed ([`JsonError`]) with nesting bounded, because request
//! bodies are hostile input.

pub mod json;
pub mod metrics;
pub mod span;
pub mod store;
pub mod trace;

pub use json::{JsonError, JsonObj, JsonValue};
pub use metrics::{
    Counter, CounterSample, Gauge, Histogram, HistogramSample, MetricRegistry, MetricsSnapshot,
    WindowHistogram,
};
pub use span::{
    parse_traceparent, ActiveTrace, AttrValue, Span, SpanCtx, SpanId, SpanRecord, TraceId,
    DEFAULT_MAX_SPANS,
};
pub use store::{render_waterfall, StoredTrace, TailPolicy, TraceStore};
pub use trace::{memory_tracer, Sampler, SpanBuf, Tracer};

/// The observability handle: a metric registry plus an optional tracer.
pub struct Obs {
    metrics: MetricRegistry,
    tracer: Option<Tracer>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.tracer.is_some())
            .finish()
    }
}

impl Obs {
    /// Metrics only, no tracing.
    pub fn new() -> Self {
        Obs {
            metrics: MetricRegistry::new(),
            tracer: None,
        }
    }

    /// Metrics plus a JSONL tracer.
    pub fn with_tracer(tracer: Tracer) -> Self {
        Obs {
            metrics: MetricRegistry::new(),
            tracer: Some(tracer),
        }
    }

    /// The metric registry.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// The tracer, when tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}
