#![warn(missing_docs)]
//! `dr-obs` — the observability layer for the detective-rules pipeline.
//!
//! Two surfaces, one handle:
//!
//! * **Metrics** ([`MetricRegistry`]): lock-free monotonic [`Counter`]s
//!   (worker-sharded cells), [`Gauge`]s, log-bucketed latency
//!   [`Histogram`]s with p50/p95/p99 summaries, and sliding-window
//!   latency ([`WindowHistogram`]). Existing subsystem counters (value
//!   cache, cache registry, snapshots) register their *own* cells into
//!   the registry, so the Prometheus dump and the report columns read the
//!   same storage — there is no second bookkeeping path to drift from.
//! * **Spans** ([`ActiveTrace`]/[`SpanCtx`]): the repair loops'
//!   one instrumentation surface — relation, phase, row and rule spans
//!   with monotonic-clock durations. A served request's tree is kept or
//!   dropped by tail sampling into a bounded [`TraceStore`] and drawn by
//!   [`render_waterfall`]; a relation repaired with a [`JsonlSink`]
//!   attached is written as a JSONL trace by [`render`], which strips ids
//!   and durations so the file is byte-deterministic under a seeded row
//!   [`Sampler`] (rate-`r1` rows are a subset of rate-`r2` rows for
//!   `r1 <= r2`, at any thread count). See DESIGN.md §11.
//!
//! An [`Obs`] bundles the registry and the optional JSONL sink and is
//! threaded through the pipeline as an `Option<Arc<Obs>>`; when absent,
//! instrumentation compiles down to a branch per relation and per tuple.
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
pub use trace::{render, JsonlSink, Sampler, SCHEMA_VERSION};

/// The observability handle: a metric registry plus an optional JSONL
/// trace sink.
pub struct Obs {
    metrics: MetricRegistry,
    jsonl: Option<JsonlSink>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("jsonl", &self.jsonl.is_some())
            .finish()
    }
}

impl Obs {
    /// Metrics only, no JSONL trace.
    pub fn new() -> Self {
        Obs {
            metrics: MetricRegistry::new(),
            jsonl: None,
        }
    }

    /// Metrics plus a JSONL trace of every relation repaired through it.
    pub fn with_jsonl(sink: JsonlSink) -> Self {
        Obs {
            metrics: MetricRegistry::new(),
            jsonl: Some(sink),
        }
    }

    /// The metric registry.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// The JSONL trace sink, when one is attached.
    pub fn jsonl(&self) -> Option<&JsonlSink> {
        self.jsonl.as_ref()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}
