//! Lock-free metric primitives and the registry that exposes them.
//!
//! The hot path never takes a lock: [`Counter`] spreads increments over a
//! small array of cache-padded atomic cells (one picked per thread), and
//! [`Histogram`] records into power-of-two latency buckets with plain
//! `fetch_add`s. The [`MetricRegistry`] mutex guards only *registration*
//! (resolving a name to a handle) and snapshotting — callers resolve
//! handles once and then record through them freely.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of per-counter shards. A power of two so the thread-slot mask is
/// a single AND; 16 comfortably covers the worker counts the scheduler uses.
const COUNTER_SHARDS: usize = 16;

/// `Histogram` bucket count: bucket `i` holds samples whose nanosecond
/// value has `i` significant bits, i.e. `value in [2^(i-1), 2^i)`.
const HISTOGRAM_BUCKETS: usize = 64;

/// One cache line per shard so concurrent workers don't false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotonic counter. Cheap to clone (an `Arc` over the shard array);
/// clones share the same cells. Increments hit a per-thread shard, reads
/// sum all shards, so `get()` is exact once writers are quiescent.
#[derive(Debug, Clone)]
pub struct Counter {
    cells: Arc<[PaddedCell; COUNTER_SHARDS]>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter {
            cells: Arc::new(Default::default()),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[thread_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all shards.
    pub fn get(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Whether `self` and `other` share the same underlying cells.
    pub fn same_cells(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `value`.
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A log-bucketed latency histogram over nanosecond samples.
///
/// Bucket `i` covers `[2^(i-1), 2^i)` nanoseconds (bucket 0 holds zero).
/// Quantiles walk the cumulative distribution and report the midpoint of
/// the bucket containing the target rank — deterministic and within 2× of
/// the true value, which is all a log-scale latency summary promises.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Arc<[AtomicU64; HISTOGRAM_BUCKETS]>,
    sum_nanos: Arc<AtomicU64>,
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Arc::new([(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0))),
            sum_nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    fn bucket_of(nanos: u64) -> usize {
        (64 - nanos.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one raw nanosecond sample.
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples, in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }

    /// Estimated quantile (`q` in `[0, 1]`) in nanoseconds, or `None` when
    /// empty. Reports the midpoint of the bucket holding the target rank.
    pub fn quantile_nanos(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        quantile_from_counts(&counts, q)
    }

    /// Non-empty buckets as `(upper_bound_nanos, cumulative_count)` pairs,
    /// in ascending bound order — the Prometheus `_bucket{le=..}` shape.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                out.push((bucket_bound(i), cum));
            }
        }
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Quantile walk shared by [`Histogram`] and [`WindowHistogram`]: the
/// midpoint of the bucket holding rank `ceil(q * total)`, with the rank
/// clamped into `[1, total]` so q = 1.0 resolves to the highest non-empty
/// bucket and a single-sample histogram answers its own bucket everywhere.
fn quantile_from_counts(counts: &[u64], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    let mut last_nonempty = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            last_nonempty = i;
        }
        seen += c;
        if seen >= rank {
            return Some(bucket_midpoint(i));
        }
    }
    // Unreachable once rank <= total, but if it ever fires it must
    // report the highest *non-empty* bucket, not bucket 63's ~2^62 ns.
    Some(bucket_midpoint(last_nonempty))
}

/// Sliding-window slot geometry: 13 slots of 5 s cover the last ~60 s
/// (the current, partially-filled slot plus 12 full ones).
const WINDOW_SLOTS: usize = 13;
const WINDOW_SLOT_SECS: u64 = 5;

#[derive(Debug, Clone, Copy)]
struct WindowSlot {
    /// Which 5-second epoch this slot currently holds; slots are lazily
    /// reset when a new epoch wraps around onto them.
    epoch: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_nanos: u64,
}

impl WindowSlot {
    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.buckets = [0; HISTOGRAM_BUCKETS];
        self.count = 0;
        self.sum_nanos = 0;
    }
}

/// A latency histogram over only the last ~60 seconds of samples, so
/// `/metrics` can expose *live* p95/p99 without cumulative-rate math.
///
/// Time is diced into 5-second epochs over a ring of 13 slots; recording
/// lazily reclaims the slot its epoch maps onto, and reads merge the
/// slots that are still inside the window. Unlike [`Histogram`] the hot
/// path takes a mutex, once per sample, which is fine for the per-request
/// and per-tuple rates it serves (the lock is held for a few dozen
/// nanoseconds). The epoch origin is fixed at construction, so reading
/// the clock takes no lock.
#[derive(Debug, Clone)]
pub struct WindowHistogram {
    origin: Instant,
    slots: Arc<Mutex<[WindowSlot; WINDOW_SLOTS]>>,
}

impl WindowHistogram {
    /// A fresh, empty window.
    pub fn new() -> Self {
        let slot = WindowSlot {
            // u64::MAX marks "never used": it can't equal a live epoch, so
            // the first record into a slot always resets it.
            epoch: u64::MAX,
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_nanos: 0,
        };
        WindowHistogram {
            origin: Instant::now(),
            slots: Arc::new(Mutex::new([slot; WINDOW_SLOTS])),
        }
    }

    fn current_epoch(&self) -> u64 {
        self.origin.elapsed().as_secs() / WINDOW_SLOT_SECS
    }

    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one raw nanosecond sample.
    pub fn record_nanos(&self, nanos: u64) {
        let epoch = self.current_epoch();
        self.record_at(epoch, nanos);
    }

    fn record_at(&self, epoch: u64, nanos: u64) {
        let mut slots = self.slots.lock();
        let slot = &mut slots[(epoch % WINDOW_SLOTS as u64) as usize];
        if slot.epoch != epoch {
            slot.reset(epoch);
        }
        slot.buckets[Histogram::bucket_of(nanos)] += 1;
        slot.count += 1;
        slot.sum_nanos += nanos;
    }

    /// Merged in-window state as `(bucket counts, count, sum_nanos)`.
    fn merged_at(&self, epoch: u64) -> ([u64; HISTOGRAM_BUCKETS], u64, u64) {
        let oldest = epoch.saturating_sub(WINDOW_SLOTS as u64 - 1);
        let slots = self.slots.lock();
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        for slot in slots.iter() {
            if slot.epoch >= oldest && slot.epoch <= epoch {
                for (acc, b) in buckets.iter_mut().zip(slot.buckets.iter()) {
                    *acc += b;
                }
                count += slot.count;
                sum += slot.sum_nanos;
            }
        }
        (buckets, count, sum)
    }

    /// Samples currently inside the window.
    pub fn count(&self) -> u64 {
        self.merged_at(self.current_epoch()).1
    }

    /// Sum of in-window samples, nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.merged_at(self.current_epoch()).2
    }

    /// Estimated in-window quantile, or `None` when the window is empty.
    pub fn quantile_nanos(&self, q: f64) -> Option<u64> {
        let (buckets, _, _) = self.merged_at(self.current_epoch());
        quantile_from_counts(&buckets, q)
    }
}

impl Default for WindowHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Exclusive upper bound of bucket `i`, in nanoseconds.
fn bucket_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Midpoint of bucket `i`, in nanoseconds.
fn bucket_midpoint(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        let lo = 1u64 << (i - 1);
        lo + lo / 2
    }
}

/// `(metric name, rendered label pairs)` — the registry's catalog key.
type MetricKey = (String, String);

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        crate::json::escape_into(&mut out, v);
        out.push('"');
    }
    out
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Vec<Counter>>,
    gauges: BTreeMap<MetricKey, Gauge>,
    histograms: BTreeMap<MetricKey, Histogram>,
    windows: BTreeMap<MetricKey, WindowHistogram>,
}

/// Catalog of named metrics. Registration and snapshotting lock a mutex;
/// recording through resolved handles is lock-free.
///
/// Several [`Counter`]s may be registered under one key (e.g. each
/// `ValueCache` a registry creates contributes its own `node_hits` cell);
/// snapshots report their sum. Registering the same cells twice under the
/// same key is idempotent, so attach points can re-register freely.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter for `name`/`labels`. Repeated calls with
    /// the same key return handles over the same cells.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = (name.to_string(), render_labels(labels));
        let mut inner = self.inner.lock();
        let cells = inner.counters.entry(key).or_default();
        if cells.is_empty() {
            cells.push(Counter::new());
        }
        cells[0].clone()
    }

    /// Attach an existing counter's cells under `name`/`labels`, so the
    /// snapshot total includes them. Idempotent per cell identity.
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], cell: &Counter) {
        let key = (name.to_string(), render_labels(labels));
        let mut inner = self.inner.lock();
        let cells = inner.counters.entry(key).or_default();
        if !cells.iter().any(|c| c.same_cells(cell)) {
            cells.push(cell.clone());
        }
    }

    /// Get or create the gauge for `name`/`labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = (name.to_string(), render_labels(labels));
        self.inner.lock().gauges.entry(key).or_default().clone()
    }

    /// Get or create the histogram for `name`/`labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = (name.to_string(), render_labels(labels));
        self.inner.lock().histograms.entry(key).or_default().clone()
    }

    /// Get or create the sliding-window histogram for `name`/`labels`.
    /// Conventionally named `<base>_seconds_window`.
    pub fn window_histogram(&self, name: &str, labels: &[(&str, &str)]) -> WindowHistogram {
        let key = (name.to_string(), render_labels(labels));
        self.inner.lock().windows.entry(key).or_default().clone()
    }

    /// A point-in-time copy of every metric's value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let counters = inner
            .counters
            .iter()
            .map(|((name, labels), cells)| CounterSample {
                name: name.clone(),
                labels: labels.clone(),
                value: cells.iter().map(Counter::get).sum(),
            })
            .collect();
        let gauges = inner
            .gauges
            .iter()
            .map(|((name, labels), g)| CounterSample {
                name: name.clone(),
                labels: labels.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = inner
            .histograms
            .iter()
            .map(|((name, labels), h)| HistogramSample {
                name: name.clone(),
                labels: labels.clone(),
                count: h.count(),
                sum_nanos: h.sum_nanos(),
                p50: h.quantile_nanos(0.50),
                p95: h.quantile_nanos(0.95),
                p99: h.quantile_nanos(0.99),
                buckets: h.cumulative_buckets(),
            })
            .collect();
        let windows = inner
            .windows
            .iter()
            .map(|((name, labels), w)| HistogramSample {
                name: name.clone(),
                labels: labels.clone(),
                count: w.count(),
                sum_nanos: w.sum_nanos(),
                p50: w.quantile_nanos(0.50),
                p95: w.quantile_nanos(0.95),
                p99: w.quantile_nanos(0.99),
                buckets: Vec::new(),
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            windows,
        }
    }
}

/// One counter or gauge reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Rendered label pairs (empty when unlabelled).
    pub labels: String,
    /// Summed value.
    pub value: u64,
}

/// One histogram reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Rendered label pairs (empty when unlabelled).
    pub labels: String,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of samples, nanoseconds.
    pub sum_nanos: u64,
    /// Estimated 50th percentile, nanoseconds.
    pub p50: Option<u64>,
    /// Estimated 95th percentile, nanoseconds.
    pub p95: Option<u64>,
    /// Estimated 99th percentile, nanoseconds.
    pub p99: Option<u64>,
    /// Non-empty cumulative buckets as `(le_nanos, cumulative_count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Deterministically ordered copy of a registry's metrics, renderable as
/// Prometheus exposition text or queried directly by tests and reports.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter readings, sorted by (name, labels).
    pub counters: Vec<CounterSample>,
    /// Gauge readings, sorted by (name, labels).
    pub gauges: Vec<CounterSample>,
    /// Histogram readings, sorted by (name, labels).
    pub histograms: Vec<HistogramSample>,
    /// Sliding-window histogram readings (rendered as summaries), sorted
    /// by (name, labels); `buckets` is always empty for these.
    pub windows: Vec<HistogramSample>,
}

/// Names ending in `_seconds` (or `_seconds_window` for the sliding
/// windows) store nanoseconds internally and render as fractional seconds
/// in the Prometheus dump.
fn is_seconds(name: &str) -> bool {
    name.ends_with("_seconds") || name.ends_with("_seconds_window")
}

fn nanos_str(nanos: u64) -> String {
    format!("{:.9}", nanos as f64 / 1e9)
}

impl MetricsSnapshot {
    /// Value of the counter with exactly this `name` and rendered `labels`
    /// (e.g. `worker="0"`), if present.
    pub fn counter(&self, name: &str, labels: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == labels)
            .map(|c| c.value)
    }

    /// Sum over every labelling of counter `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The sliding-window reading with exactly this `name` and rendered
    /// `labels`, if present.
    pub fn window(&self, name: &str, labels: &str) -> Option<&HistogramSample> {
        self.windows
            .iter()
            .find(|w| w.name == name && w.labels == labels)
    }

    /// Render as Prometheus text exposition. Deterministic: metrics sort
    /// by name then labels, and no timestamps are emitted.
    pub fn render_prom(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for c in &self.counters {
            if c.name != last_name {
                out.push_str(&format!("# TYPE {} counter\n", c.name));
                last_name = &c.name;
            }
            let value = if is_seconds(&c.name) {
                nanos_str(c.value)
            } else {
                c.value.to_string()
            };
            if c.labels.is_empty() {
                out.push_str(&format!("{} {}\n", c.name, value));
            } else {
                out.push_str(&format!("{}{{{}}} {}\n", c.name, c.labels, value));
            }
        }
        for g in &self.gauges {
            out.push_str(&format!("# TYPE {} gauge\n", g.name));
            if g.labels.is_empty() {
                out.push_str(&format!("{} {}\n", g.name, g.value));
            } else {
                out.push_str(&format!("{}{{{}}} {}\n", g.name, g.labels, g.value));
            }
        }
        for h in &self.histograms {
            out.push_str(&format!("# TYPE {} histogram\n", h.name));
            let sep = if h.labels.is_empty() { "" } else { "," };
            for (bound, cum) in &h.buckets {
                let le = if *bound == u64::MAX {
                    "+Inf".to_string()
                } else if is_seconds(&h.name) {
                    nanos_str(*bound)
                } else {
                    bound.to_string()
                };
                out.push_str(&format!(
                    "{}_bucket{{{}{}le=\"{}\"}} {}\n",
                    h.name, h.labels, sep, le, cum
                ));
            }
            let sum = if is_seconds(&h.name) {
                nanos_str(h.sum_nanos)
            } else {
                h.sum_nanos.to_string()
            };
            if h.labels.is_empty() {
                out.push_str(&format!("{}_sum {}\n", h.name, sum));
                out.push_str(&format!("{}_count {}\n", h.name, h.count));
            } else {
                out.push_str(&format!("{}_sum{{{}}} {}\n", h.name, h.labels, sum));
                out.push_str(&format!("{}_count{{{}}} {}\n", h.name, h.labels, h.count));
            }
        }
        for w in &self.windows {
            out.push_str(&format!("# TYPE {} summary\n", w.name));
            let sep = if w.labels.is_empty() { "" } else { "," };
            for (q, value) in [("0.5", w.p50), ("0.95", w.p95), ("0.99", w.p99)] {
                let Some(nanos) = value else { continue };
                let rendered = if is_seconds(&w.name) {
                    nanos_str(nanos)
                } else {
                    nanos.to_string()
                };
                out.push_str(&format!(
                    "{}{{{}{}quantile=\"{}\"}} {}\n",
                    w.name, w.labels, sep, q, rendered
                ));
            }
            let sum = if is_seconds(&w.name) {
                nanos_str(w.sum_nanos)
            } else {
                w.sum_nanos.to_string()
            };
            if w.labels.is_empty() {
                out.push_str(&format!("{}_sum {}\n", w.name, sum));
                out.push_str(&format!("{}_count {}\n", w.name, w.count));
            } else {
                out.push_str(&format!("{}_sum{{{}}} {}\n", w.name, w.labels, sum));
                out.push_str(&format!("{}_count{{{}}} {}\n", w.name, w.labels, w.count));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_clone_shares_cells() {
        let c = Counter::new();
        let d = c.clone();
        c.add(3);
        d.inc();
        assert_eq!(c.get(), 4);
        assert!(c.same_cells(&d));
        assert!(!c.same_cells(&Counter::new()));
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record_nanos(1_000);
        }
        h.record_nanos(1_000_000);
        assert_eq!(h.count(), 100);
        let p0 = h.quantile_nanos(0.0).unwrap();
        assert!((512..2048).contains(&p0), "p0 sits in the 1µs bucket: {p0}");
        let p50 = h.quantile_nanos(0.50).unwrap();
        assert!((512..2048).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_nanos(0.99).unwrap();
        assert!(p99 < 1_000_000, "p99 should still sit in the 1µs bucket");
        // q = 1.0 must land *in* the highest non-empty bucket (the 1ms
        // sample's), never overflow past it to bucket 63's ~2^62 ns.
        let p100 = h.quantile_nanos(1.0).unwrap();
        assert!(
            (524_288..1_048_576).contains(&p100),
            "max must land in the 1ms bucket: {p100}"
        );
    }

    /// A single-sample histogram answers that sample's bucket for *every*
    /// quantile — q = 0.0 (rank floor), q = 1.0 (rank ceiling), and points
    /// between — and an empty histogram answers `None` everywhere.
    #[test]
    fn histogram_quantile_edge_cases() {
        let empty = Histogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile_nanos(q), None);
        }

        let single = Histogram::new();
        single.record_nanos(10_000); // bucket [8192, 16384)
        assert_eq!(single.count(), 1);
        let expect = single.quantile_nanos(0.5).unwrap();
        assert!((8_192..16_384).contains(&expect), "midpoint: {expect}");
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile_nanos(q), Some(expect), "q = {q}");
        }

        // Out-of-range q clamps instead of panicking or overflowing.
        assert_eq!(single.quantile_nanos(-1.0), Some(expect));
        assert_eq!(single.quantile_nanos(2.0), Some(expect));
    }

    #[test]
    fn registry_dedupes_registered_cells() {
        let reg = MetricRegistry::new();
        let cell = Counter::new();
        cell.add(5);
        reg.register_counter("value_cache_node_hits_total", &[], &cell);
        reg.register_counter("value_cache_node_hits_total", &[], &cell);
        assert_eq!(
            reg.snapshot().counter("value_cache_node_hits_total", ""),
            Some(5)
        );
        // A distinct cell under the same name adds to the total.
        let other = Counter::new();
        other.add(2);
        reg.register_counter("value_cache_node_hits_total", &[], &other);
        assert_eq!(
            reg.snapshot().counter("value_cache_node_hits_total", ""),
            Some(7)
        );
    }

    #[test]
    fn window_histogram_expires_old_epochs() {
        let w = WindowHistogram::new();
        // Epoch 0: three 1µs samples; epoch 1: one 1ms sample.
        w.record_at(0, 1_000);
        w.record_at(0, 1_000);
        w.record_at(0, 1_000);
        w.record_at(1, 1_000_000);
        let (buckets, count, sum) = w.merged_at(1);
        assert_eq!(count, 4);
        assert_eq!(sum, 3_000 + 1_000_000);
        assert_eq!(
            quantile_from_counts(&buckets, 0.5).map(|n| n < 10_000),
            Some(true)
        );
        // 13 epochs later the epoch-0 slot has aged out; epoch 1 remains
        // (1 >= 13 - 12), then one more epoch retires it too.
        let (_, count, sum) = w.merged_at(13);
        assert_eq!(count, 1);
        assert_eq!(sum, 1_000_000);
        let (_, count, _) = w.merged_at(14);
        assert_eq!(count, 0);
        // Recording into a wrapped slot reclaims it rather than merging
        // with the stale epoch's data.
        w.record_at(13, 2_000);
        let (_, count, sum) = w.merged_at(13);
        assert_eq!(count, 2, "epoch 13 sample + epoch 1 still in window");
        assert_eq!(sum, 1_000_000 + 2_000);
    }

    #[test]
    fn window_histogram_live_path_and_render() {
        let reg = MetricRegistry::new();
        let w = reg.window_histogram("lat_seconds_window", &[("route", "repair")]);
        assert_eq!(w.count(), 0);
        assert_eq!(w.quantile_nanos(0.95), None);
        for _ in 0..20 {
            w.record(Duration::from_micros(100));
        }
        // Clones share state, like the other primitives.
        let w2 = reg.window_histogram("lat_seconds_window", &[("route", "repair")]);
        assert_eq!(w2.count(), 20);
        let p95 = w.quantile_nanos(0.95).expect("non-empty");
        assert!((65_536..262_144).contains(&p95), "100µs bucket: {p95}");

        let snap = reg.snapshot();
        let sample = snap
            .window("lat_seconds_window", "route=\"repair\"")
            .expect("window in snapshot");
        assert_eq!(sample.count, 20);
        assert_eq!(sample.p95, Some(p95));
        let text = snap.render_prom();
        assert!(
            text.contains("# TYPE lat_seconds_window summary\n"),
            "got:\n{text}"
        );
        assert!(
            text.contains("lat_seconds_window{route=\"repair\",quantile=\"0.95\"} 0.000"),
            "seconds rendering: \n{text}"
        );
        assert!(text.contains("lat_seconds_window_count{route=\"repair\"} 20\n"));
    }

    #[test]
    fn prom_render_is_deterministic_and_typed() {
        let reg = MetricRegistry::new();
        reg.counter("b_total", &[("worker", "1")]).add(2);
        reg.counter("b_total", &[("worker", "0")]).add(1);
        reg.counter("a_seconds", &[("phase", "repair")])
            .add(1_500_000_000);
        reg.gauge("workers", &[]).set(4);
        let h = reg.histogram("lat_seconds", &[]);
        h.record_nanos(1_000);
        let text = reg.snapshot().render_prom();
        let expect_prefix = "# TYPE a_seconds counter\n\
                             a_seconds{phase=\"repair\"} 1.500000000\n\
                             # TYPE b_total counter\n\
                             b_total{worker=\"0\"} 1\n\
                             b_total{worker=\"1\"} 2\n\
                             # TYPE workers gauge\nworkers 4\n";
        assert!(text.starts_with(expect_prefix), "got:\n{text}");
        assert!(text.contains("lat_seconds_count 1\n"));
        assert_eq!(text, reg.snapshot().render_prom());
    }
}
