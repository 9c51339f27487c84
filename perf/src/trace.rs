//! The benchmark's own spans: recorded around calls into the program's
//! public functions, kept in memory, written out as JSONL at exit, and folded
//! into self-time per layer.
//!
//! A span's layer is its name up to the first `.` (`core.parallel_repair` is
//! in `core`). Spans named `bench.*` are the benchmark's own work: loop
//! bookkeeping, output checks, and the windows that hold everything else.
//! Every other span names the program layer whose function it timed.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique, nonzero.
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Shared by every span of one pass, request or cycle.
    pub op: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span's time belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. A disabled tracer still times every span (the measured
/// run needs the durations) but records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that only times.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A tracer that records.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a root span that starts a new operation.
    pub fn root(&self, name: &'static str) -> Span<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Span {
            tracer: self,
            id,
            parent: 0,
            op: id,
            name,
            start: Instant::now(),
            done: false,
        }
    }

    /// Every recorded span, in finishing order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().clone()
    }

    /// Durations in milliseconds of the recorded spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn record(&self, span: &Span<'_>, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.lock().push(SpanRec {
            id: span.id,
            parent: span.parent,
            op: span.op,
            name: span.name,
            start_ns: ns(span.start),
            end_ns: ns(end),
        });
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.lock().iter() {
            let parent = if s.parent == 0 {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.op,
                s.id,
                parent,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself when ended or dropped.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: Instant,
    done: bool,
}

impl<'t> Span<'t> {
    /// Opens a child span in the same operation.
    pub fn child(&self, name: &'static str) -> Span<'t> {
        Span {
            tracer: self.tracer,
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.id,
            op: self.op,
            name,
            start: Instant::now(),
            done: false,
        }
    }

    /// Opens a child span that starts a new operation (a pass, request or
    /// cycle inside a window).
    pub fn op(&self, name: &'static str) -> Span<'t> {
        let mut span = self.child(name);
        span.op = span.id;
        span
    }

    /// Times `f` as a child span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let span = self.child(name);
        let value = f();
        (value, span.end())
    }

    /// Closes the span and returns its duration.
    pub fn end(mut self) -> Duration {
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        let end = Instant::now();
        self.done = true;
        self.tracer.record(self, end);
        end - self.start
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.finish();
        }
    }
}

/// Self-time per layer over a set of spans.
pub struct Fold {
    /// `(layer, self time in ms)`, largest first.
    pub layers: Vec<(&'static str, f64)>,
    /// Summed duration of the root spans in ms: the traced time of every
    /// lane (one per client thread, one per probe).
    pub wall_ms: f64,
}

impl Fold {
    /// The share of traced time that program layers account for, i.e. that
    /// is not the benchmark's own (`bench`) self time.
    pub fn coverage(&self) -> f64 {
        let program: f64 = self
            .layers
            .iter()
            .filter(|(layer, _)| *layer != "bench")
            .map(|(_, ms)| ms)
            .sum();
        if self.wall_ms > 0.0 {
            program / self.wall_ms
        } else {
            0.0
        }
    }
}

/// A span's self time is its duration minus the part its children cover.
/// Children of one parent run one after another, so their durations add.
pub fn fold(spans: &[SpanRec]) -> Fold {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    let mut wall_ns = 0u64;
    for s in spans {
        if s.parent == 0 {
            wall_ns += s.duration_ns();
        }
        let own = s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let ms = own as f64 / 1e6;
        match layers.iter_mut().find(|(layer, _)| *layer == s.layer()) {
            Some((_, total)) => *total += ms,
            None => layers.push((s.layer(), ms)),
        }
    }
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    Fold {
        layers,
        wall_ms: wall_ns as f64 / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_excludes_bench() {
        let spans = [
            rec(1, 0, "bench.window", 0, 100),
            rec(2, 1, "bench.pass", 0, 90),
            rec(3, 2, "core.parallel_repair", 0, 60),
            rec(4, 2, "relation.clone", 60, 80),
            rec(5, 3, "simmatch.lookup", 10, 20),
        ];
        let fold = fold(&spans);
        let get = |layer: &str| {
            fold.layers
                .iter()
                .find(|(l, _)| *l == layer)
                .map(|(_, ms)| *ms * 1e6)
                .unwrap()
        };
        assert_eq!(get("core"), 50.0);
        assert_eq!(get("simmatch"), 10.0);
        assert_eq!(get("relation"), 20.0);
        assert_eq!(get("bench"), 20.0); // 10 window + 10 pass
        assert!((fold.coverage() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::off();
        let root = tracer.root("bench.window");
        let (_, took) = root.time("core.work", || std::thread::sleep(Duration::from_millis(1)));
        assert!(took >= Duration::from_millis(1));
        drop(root);
        assert!(tracer.spans().is_empty());

        let tracer = Tracer::on();
        let root = tracer.root("bench.window");
        let op = root.op("bench.pass");
        op.child("core.work").end();
        drop(op);
        drop(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let work = spans.iter().find(|s| s.name == "core.work").unwrap();
        let pass = spans.iter().find(|s| s.name == "bench.pass").unwrap();
        assert_eq!(work.op, pass.id, "children share their operation's id");
        assert_eq!(work.parent, pass.id);
    }
}
