//! Request-scoped span trees (DESIGN.md §11) — the one instrumentation
//! surface of the repair loops.
//!
//! One [`ActiveTrace`] is created per capture: per served request, or per
//! relation repair when a JSONL trace file is attached. Code that wants a
//! span holds a [`SpanCtx`] (a cheap, cloneable handle naming the current
//! parent) and calls [`SpanCtx::child`]; the returned [`Span`] guard
//! records its duration when finished or dropped. Span storage is bounded:
//! past `max_spans` allocations the trace stops recording (children of a
//! dropped span re-parent to the nearest recorded ancestor, so the stored
//! tree never contains a dangling parent id) and counts the drops.
//!
//! A served capture is kept or discarded by tail sampling — see
//! [`TraceStore`](crate::TraceStore) — so the capture path must stay cheap
//! even when every request is armed: starting and finishing a span is two
//! `Instant::now` calls and one short lock push. A JSONL capture is
//! rendered by [`render`](crate::trace::render), which strips ids and
//! durations.

use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::trace::{splitmix64, Sampler};

/// Default cap on recorded spans per trace (satellite of DESIGN.md §11:
/// a pathological relation must not balloon trace memory).
pub const DEFAULT_MAX_SPANS: usize = 512;

/// A 128-bit trace identifier, W3C `traceparent`-compatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

impl TraceId {
    /// A fresh, practically unique id: wall-clock nanos mixed with a
    /// process-global counter through splitmix64 (no RNG dependency).
    pub fn generate() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let count = COUNTER.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(nanos ^ splitmix64(count));
        let lo = splitmix64(hi ^ count.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // An all-zero trace id is invalid per the W3C spec; nudge it.
        let id = ((hi as u128) << 64) | lo as u128;
        TraceId(if id == 0 { 1 } else { id })
    }

    /// Lowercase 32-hex-digit rendering.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a 32-lowercase-hex-digit id; rejects the all-zero id.
    pub fn parse_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !is_lower_hex(s) {
            return None;
        }
        let v = u128::from_str_radix(s, 16).ok()?;
        if v == 0 {
            None
        } else {
            Some(TraceId(v))
        }
    }
}

/// A 64-bit span identifier, unique within its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Lowercase 16-hex-digit rendering.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses a 16-lowercase-hex-digit id; rejects the all-zero id.
    pub fn parse_hex(s: &str) -> Option<Self> {
        if s.len() != 16 || !is_lower_hex(s) {
            return None;
        }
        let v = u64::from_str_radix(s, 16).ok()?;
        if v == 0 {
            None
        } else {
            Some(SpanId(v))
        }
    }
}

/// Whether `s` is all lowercase hex digits, the W3C `HEXDIGLC` alphabet.
/// `from_str_radix` alone would also take uppercase digits and a leading
/// `+`, which `to_hex` cannot echo back.
fn is_lower_hex(s: &str) -> bool {
    s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Parses a W3C `traceparent` header value
/// (`00-<trace-id>-<parent-id>-<flags>`, every field lowercase hex),
/// returning the trace id, the caller's span id, and the flags byte. Only
/// version `00` is accepted.
pub fn parse_traceparent(value: &str) -> Option<(TraceId, SpanId, u8)> {
    let mut parts = value.trim().split('-');
    let version = parts.next()?;
    if version != "00" {
        return None;
    }
    let trace = TraceId::parse_hex(parts.next()?)?;
    let parent = SpanId::parse_hex(parts.next()?)?;
    let flags = parts.next()?;
    if flags.len() != 2 || !is_lower_hex(flags) || parts.next().is_some() {
        return None;
    }
    let flags = u8::from_str_radix(flags, 16).ok()?;
    Some((trace, parent, flags))
}

/// A span attribute value. Numbers stay numbers — the capture hot path
/// must not format integers into strings — and string labels borrow
/// `'static` data wherever the call site has it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// Unsigned integer attribute.
    Num(u64),
    /// String attribute.
    Str(Cow<'static, str>),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Num(n) => write!(f, "{n}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One finished span: where it sits in the tree and when it ran, as
/// offsets from the trace start (monotonic clock, so offsets are
/// comparable across threads within one trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within the trace.
    pub id: SpanId,
    /// Parent span id; `None` for the root.
    pub parent: Option<SpanId>,
    /// Span name (e.g. `request`, `prewarm`, `row`, `rule`).
    pub name: Cow<'static, str>,
    /// Start offset from the trace's start, nanoseconds.
    pub start_nanos: u64,
    /// Span duration, nanoseconds.
    pub duration_nanos: u64,
    /// Attribute pairs, insertion-ordered.
    pub attrs: Vec<(Cow<'static, str>, AttrValue)>,
}

/// One in-flight trace: a bounded collector of [`SpanRecord`]s sharing a
/// single monotonic origin. Cheap to share (`Arc`) across the request's
/// worker threads.
///
/// Which rows get detailed spans — a guard with attributes, and per-rule
/// spans beneath — is [`row_detailed`](Self::row_detailed): every row of a
/// *forced* capture (`?trace=1`), and the rows a JSONL capture's seeded
/// [`Sampler`] keeps. A *speculative* capture — armed on every served
/// request so tail sampling has something to keep — details no row and
/// records row spans only for noteworthy (slow) rows, retroactively via
/// [`SpanCtx::record_completed`]. Rule checks are the innermost loop, and
/// recording them on the speculative path is what would blow the
/// `exp_trace_overhead` budget.
#[derive(Debug)]
pub struct ActiveTrace {
    id: TraceId,
    started: Instant,
    forced: bool,
    /// The JSONL capture's row sampler; `None` on served captures.
    rows: Option<Sampler>,
    max_spans: usize,
    /// Next span id; ids `1..=max_spans` are recorded, later allocations
    /// are dropped (counted), so `spans` stays bounded.
    next_span: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl ActiveTrace {
    /// A fresh trace. `forced` marks it for unconditional retention at
    /// tail-sampling time (the `?trace=1` escape hatch).
    pub fn new(id: TraceId, max_spans: usize, forced: bool) -> Self {
        ActiveTrace {
            id,
            started: Instant::now(),
            forced,
            rows: None,
            max_spans: max_spans.max(1),
            next_span: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A JSONL capture of one relation repair: rows `rows` keeps are
    /// detailed, no other row records anything, and the span count is
    /// bounded by the sample rather than a cap.
    pub fn sampled(rows: Sampler) -> Self {
        ActiveTrace {
            rows: Some(rows),
            ..Self::new(TraceId::generate(), usize::MAX, false)
        }
    }

    /// The trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Whether retention was explicitly forced.
    pub fn forced(&self) -> bool {
        self.forced
    }

    /// Whether row `row` gets a detailed span (attributes, rule children):
    /// every row when forced, the sampled rows of a JSONL capture.
    #[inline]
    pub fn row_detailed(&self, row: u64) -> bool {
        self.forced || self.rows.is_some_and(|s| s.sampled(row))
    }

    /// Whether undetailed rows may still be recorded when slow. Only
    /// speculative served captures do; a JSONL capture records exactly its
    /// sampled rows, so its rendering never depends on the clock.
    pub fn speculative(&self) -> bool {
        !self.forced && self.rows.is_none()
    }

    /// Time since the trace began.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Spans dropped because the per-trace cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drains the recorded spans (newest-finished last). Call once, after
    /// every guard is finished.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock())
    }

    /// Allocates a span id, or `None` once the cap is reached. Allocation
    /// is decided up front (not at finish) so an allocated parent is
    /// always recorded — the stored tree never references a dropped span.
    /// One atomic covers both the id sequence and the cap check, keeping
    /// the hot path to a single contended cache line.
    fn alloc(&self) -> Option<SpanId> {
        let seq = self.next_span.fetch_add(1, Ordering::Relaxed);
        if seq > self.max_spans as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(SpanId(seq))
    }

    fn push(&self, record: SpanRecord) {
        self.spans.lock().push(record);
    }
}

/// A cheap, cloneable handle naming "the current span" — what gets
/// threaded through contexts and schedulers so any layer can open a child
/// without owning its parent's guard.
#[derive(Debug, Clone)]
pub struct SpanCtx {
    trace: Arc<ActiveTrace>,
    /// Parent for children opened through this handle. `None` at the
    /// trace root, or when the span this handle came from was dropped by
    /// the cap (children then attach to the nearest recorded ancestor).
    span: Option<SpanId>,
}

impl SpanCtx {
    /// A root-level handle: children opened here become root spans.
    pub fn root(trace: Arc<ActiveTrace>) -> Self {
        SpanCtx { trace, span: None }
    }

    /// The trace this handle belongs to.
    pub fn trace(&self) -> &Arc<ActiveTrace> {
        &self.trace
    }

    /// Records an already-finished span retroactively: the caller timed
    /// the work itself and decided after the fact that it deserves a span.
    /// This is the speculative tier's row path — fast rows cost two clock
    /// reads and a branch, and only noteworthy rows pay for recording.
    pub fn record_completed(&self, name: &'static str, started: Instant, duration: Duration) {
        let Some(id) = self.trace.alloc() else { return };
        self.trace.push(SpanRecord {
            id,
            parent: self.span,
            name: Cow::Borrowed(name),
            start_nanos: duration_nanos(started.duration_since(self.trace.started)),
            duration_nanos: duration_nanos(duration),
            attrs: Vec::new(),
        });
    }

    /// Opens a child span under this handle's span. Names are `'static`
    /// on purpose: the guard allocates nothing, so an armed-but-discarded
    /// capture stays inside the `exp_trace_overhead` budget.
    pub fn child(&self, name: &'static str) -> Span {
        let id = self.trace.alloc();
        let started = match id {
            Some(_) => Instant::now(),
            // A capped span records nothing — skip the clock read and
            // reuse the trace origin as a placeholder.
            None => self.trace.started,
        };
        Span {
            trace: Arc::clone(&self.trace),
            id,
            parent: self.span,
            name,
            started,
            attrs: Vec::new(),
            finished: false,
        }
    }
}

/// A live span guard: records its duration into the trace when
/// [`finish`](Span::finish)ed or dropped. Dropped-by-cap spans (id
/// `None`) skip all recording but still parent their children correctly.
#[derive(Debug)]
pub struct Span {
    trace: Arc<ActiveTrace>,
    id: Option<SpanId>,
    parent: Option<SpanId>,
    name: &'static str,
    started: Instant,
    attrs: Vec<(Cow<'static, str>, AttrValue)>,
    finished: bool,
}

impl Span {
    /// A handle for opening children of this span.
    pub fn ctx(&self) -> SpanCtx {
        SpanCtx {
            trace: Arc::clone(&self.trace),
            // A capped span re-parents its children onto its own parent,
            // keeping the recorded tree free of dangling ids.
            span: self.id.or(self.parent),
        }
    }

    /// Opens a child span.
    pub fn child(&self, name: &'static str) -> Span {
        self.ctx().child(name)
    }

    /// Whether this span was dropped by the per-trace cap.
    pub fn is_dropped(&self) -> bool {
        self.id.is_none()
    }

    /// Attaches an owned string attribute (no-op on a capped span).
    pub fn attr(&mut self, key: &'static str, value: &str) {
        if self.id.is_some() {
            self.attrs.push((
                Cow::Borrowed(key),
                AttrValue::Str(Cow::Owned(value.to_owned())),
            ));
        }
    }

    /// Attaches a `'static` string attribute without allocating (no-op on
    /// a capped span).
    pub fn attr_static(&mut self, key: &'static str, value: &'static str) {
        if self.id.is_some() {
            self.attrs
                .push((Cow::Borrowed(key), AttrValue::Str(Cow::Borrowed(value))));
        }
    }

    /// Attaches an integer attribute without allocating (no-op on a
    /// capped span).
    pub fn attr_num(&mut self, key: &'static str, value: u64) {
        if self.id.is_some() {
            self.attrs.push((Cow::Borrowed(key), AttrValue::Num(value)));
        }
    }

    /// Ends the span now, recording its duration. Equivalent to dropping
    /// it, but reads better at call sites that time a phase explicitly.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let Some(id) = self.id else { return };
        // One clock read per edge: the start offset is derived from the
        // trace origin here rather than read separately at open time.
        let now = Instant::now();
        self.trace.push(SpanRecord {
            id,
            parent: self.parent,
            name: Cow::Borrowed(self.name),
            start_nanos: duration_nanos(self.started.duration_since(self.trace.started)),
            duration_nanos: duration_nanos(now.duration_since(self.started)),
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

fn duration_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render_and_parse() {
        let t = TraceId(0xabc);
        assert_eq!(t.to_hex(), format!("{:032x}", 0xabc));
        assert_eq!(TraceId::parse_hex(&t.to_hex()), Some(t));
        assert_eq!(TraceId::parse_hex(&"0".repeat(32)), None, "all-zero");
        assert_eq!(TraceId::parse_hex("abc"), None, "short");
        let s = SpanId(7);
        assert_eq!(SpanId::parse_hex(&s.to_hex()), Some(s));
        assert_eq!(SpanId::parse_hex(&"0".repeat(16)), None);
    }

    #[test]
    fn generated_ids_differ() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b);
        assert_eq!(a.to_hex().len(), 32);
    }

    #[test]
    fn traceparent_grammar() {
        let header = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
        let (t, p, f) = parse_traceparent(header).expect("valid header");
        assert_eq!(t.to_hex(), "0af7651916cd43dd8448eb211c80319c");
        assert_eq!(p.to_hex(), "b7ad6b7169203331");
        assert_eq!(f, 1);
        assert!(
            parse_traceparent("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01").is_none()
        );
        assert!(parse_traceparent("00-short-b7ad6b7169203331-01").is_none());
        assert!(parse_traceparent(&format!("00-{}-b7ad6b7169203331-01", "0".repeat(32))).is_none());
        assert!(
            parse_traceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x")
                .is_none()
        );
        // Only lowercase hex digits: no sign, no uppercase, in any field.
        for bad in [
            "00-+af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
            "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319c-+7ad6b7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-+1",
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0A",
        ] {
            assert!(parse_traceparent(bad).is_none(), "{bad}");
        }
    }

    proptest::proptest! {
        /// On arbitrary input the parser never panics, and any header it
        /// accepts re-renders to exactly the (trimmed) input. The second
        /// draw is a near-valid header with one field's first digit from
        /// a wider alphabet (uppercase, `+`), so both outcomes occur often.
        #[test]
        fn traceparent_accepts_only_what_it_echoes(
            value in "\\PC{0,64}",
            header in "[ ]?00-[0-9a-fA-F+][0-9a-f]{31}-[0-9a-fA-F+][0-9a-f]{15}-[0-9a-fA-F+][0-9a-f][ ]?",
        ) {
            for input in [value.as_str(), header.as_str()] {
                if let Some((t, p, f)) = parse_traceparent(input) {
                    let rendered = format!("00-{}-{}-{f:02x}", t.to_hex(), p.to_hex());
                    proptest::prop_assert_eq!(rendered.as_str(), input.trim());
                }
            }
        }
    }

    #[test]
    fn spans_nest_and_record_durations() {
        let trace = Arc::new(ActiveTrace::new(TraceId::generate(), 64, false));
        let mut root = SpanCtx::root(Arc::clone(&trace)).child("request");
        root.attr("route", "repair");
        {
            let mut child = root.child("parse");
            child.attr_num("rows", 3);
            child.finish();
        }
        let inner = root.child("repair");
        let leaf = inner.child("row");
        leaf.finish();
        inner.finish();
        root.finish();

        let spans = trace.take_spans();
        assert_eq!(spans.len(), 4);
        // Children finish before parents, so the root is last.
        let root_rec = spans.last().unwrap();
        assert_eq!(root_rec.name, "request");
        assert_eq!(root_rec.parent, None);
        assert_eq!(
            root_rec.attrs,
            vec![(
                Cow::Borrowed("route"),
                AttrValue::Str(Cow::Borrowed("repair"))
            )]
        );
        // Every non-root parent id exists among the recorded spans.
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(spans.iter().any(|o| o.id == p), "dangling parent {p:?}");
            }
            assert!(
                s.start_nanos + s.duration_nanos
                    <= root_rec.start_nanos + root_rec.duration_nanos + root_rec.duration_nanos,
                "span windows stay near the root's"
            );
        }
        // The row span's parent chain reaches the root.
        let row = spans.iter().find(|s| s.name == "row").unwrap();
        let repair = spans.iter().find(|s| s.name == "repair").unwrap();
        assert_eq!(row.parent, Some(repair.id));
        assert_eq!(repair.parent, Some(root_rec.id));
    }

    #[test]
    fn retroactive_spans_land_under_their_parent() {
        let trace = Arc::new(ActiveTrace::new(TraceId::generate(), 64, false));
        let root = SpanCtx::root(Arc::clone(&trace)).child("request");
        let started = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        root.ctx()
            .record_completed("row", started, started.elapsed());
        root.finish();
        let spans = trace.take_spans();
        assert_eq!(spans.len(), 2);
        let row = spans.iter().find(|s| s.name == "row").expect("row span");
        let root_rec = spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(row.parent, Some(root_rec.id));
        assert!(row.duration_nanos >= 1_000_000, "measured duration kept");
        assert!(row.attrs.is_empty());
        // Past the cap, retroactive recording drops like everything else.
        let capped = Arc::new(ActiveTrace::new(TraceId::generate(), 1, false));
        let r = SpanCtx::root(Arc::clone(&capped)).child("request");
        r.ctx()
            .record_completed("row", Instant::now(), Duration::ZERO);
        r.finish();
        assert_eq!(capped.dropped(), 1);
        assert_eq!(capped.take_spans().len(), 1);
    }

    #[test]
    fn cap_drops_spans_but_never_dangles_parents() {
        let trace = Arc::new(ActiveTrace::new(TraceId::generate(), 2, false));
        let root = SpanCtx::root(Arc::clone(&trace)).child("request");
        let kept_child = root.child("kept");
        // Third allocation exceeds max_spans = 2: dropped.
        let dropped = root.child("dropped");
        assert!(dropped.is_dropped());
        // A child of the dropped span re-parents onto the root.
        let grandchild = dropped.child("grandchild");
        assert!(grandchild.is_dropped(), "cap already reached");
        drop(grandchild);
        drop(dropped);
        kept_child.finish();
        root.finish();

        assert_eq!(trace.dropped(), 2);
        let spans = trace.take_spans();
        assert_eq!(spans.len(), 2);
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(spans.iter().any(|o| o.id == p), "dangling parent {p:?}");
            }
        }
    }

    #[test]
    fn reparenting_through_a_dropped_span_targets_recorded_ancestor() {
        let trace = Arc::new(ActiveTrace::new(TraceId::generate(), 2, false));
        let root = SpanCtx::root(Arc::clone(&trace)).child("root");
        let mid = root.child("mid");
        let capped = mid.child("capped"); // allocation 3 of cap 2 → dropped
        assert!(capped.is_dropped());
        // The dropped span's ctx parents onto `mid`.
        let ctx = capped.ctx();
        drop(capped);
        mid.finish();
        root.finish();
        // `mid` is recorded, so the re-parent target exists even though
        // this child itself is past the cap (it records nothing).
        let late = ctx.child("late");
        assert!(late.is_dropped());
        drop(late);
        let spans = trace.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(trace.dropped(), 2);
    }
}
