//! The JSONL repair trace: a deterministic rendering of live spans.
//!
//! A [`JsonlSink`] owns a line-oriented writer and a seeded row
//! [`Sampler`]. Each relation repair records into its own capture
//! ([`JsonlSink::capture`], an [`ActiveTrace`] carrying the sampler): rows
//! the sampler keeps get detailed row and rule spans, the other rows
//! record nothing. When the relation finishes, [`render`] turns the span
//! tree into JSON lines — span ids and durations stripped, siblings in a
//! fixed order — and the sink writes them as one block. The same seed,
//! rate, and input produce the same lines, which is what the golden-file
//! and subset tests rely on.

use crate::json::JsonObj;
use crate::span::{ActiveTrace, AttrValue, SpanId, SpanRecord};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::Arc;

/// splitmix64 finalizer — a cheap, high-quality 64-bit mixer. Shared with
/// the live-span surface for id generation.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Decides which rows get traced. Pure function of `(seed, row)`: a row's
/// hash is compared against a rate-derived threshold, so the sampled set
/// at rate `r1` is a subset of the set at any `r2 >= r1` under the same
/// seed (monotone threshold over a fixed hash).
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    seed: u64,
    threshold: u64,
    all: bool,
    none: bool,
}

impl Sampler {
    /// A sampler keeping roughly `rate` (clamped to `[0, 1]`) of rows.
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        Sampler {
            seed,
            threshold: (rate * u64::MAX as f64) as u64,
            all: rate >= 1.0,
            none: rate <= 0.0,
        }
    }

    /// Whether `row` is in the sample.
    #[inline]
    pub fn sampled(&self, row: u64) -> bool {
        if self.all {
            return true;
        }
        if self.none {
            return false;
        }
        splitmix64(self.seed ^ row.wrapping_mul(0x9e3779b97f4a7c15)) <= self.threshold
    }
}

/// Version of the rendered line schema, written as the first line of every
/// trace file. Bump it whenever a line's fields change.
pub const SCHEMA_VERSION: u64 = 3;

/// Byte budget of one row block: a pathological row (thousands of rule
/// spans) cannot balloon a trace file past this many bytes of lines. Lines
/// past it are dropped and counted.
pub const ROW_BLOCK_MAX_BYTES: usize = 64 * 1024;

/// A JSONL trace file plus its row sampler. Writes go through one mutex,
/// once per relation, so concurrent relations never interleave lines.
pub struct JsonlSink {
    sink: Mutex<Box<dyn Write + Send>>,
    sampler: Sampler,
}

impl JsonlSink {
    /// A trace writing JSON lines to `sink`, keeping rows per `sampler`.
    /// Writes the schema-version line immediately; every later write is
    /// flushed as it lands, so the sink needs no closing call.
    pub fn new(mut sink: Box<dyn Write + Send>, sampler: Sampler) -> Self {
        let header = JsonObj::new()
            .str("ev", "schema")
            .num("version", SCHEMA_VERSION)
            .finish();
        let _ = writeln!(sink, "{header}");
        let _ = sink.flush();
        JsonlSink {
            sink: Mutex::new(sink),
            sampler,
        }
    }

    /// A fresh capture for one relation repair: unbounded span count (the
    /// sampler bounds it), detailed spans for sampled rows only.
    pub fn capture(&self) -> Arc<ActiveTrace> {
        Arc::new(ActiveTrace::sampled(self.sampler))
    }

    /// Renders a finished capture and writes it as one block. Returns the
    /// lines [`ROW_BLOCK_MAX_BYTES`] dropped.
    pub fn write(&self, trace: &ActiveTrace) -> u64 {
        let (text, dropped) = render(&trace.take_spans());
        let mut sink = self.sink.lock();
        let _ = sink.write_all(text.as_bytes());
        let _ = sink.flush();
        dropped
    }
}

/// Renders finished spans as JSON lines, one `{"ev":<name>, <attrs>…}`
/// line per span in depth-first order, so each row's subtree is one
/// contiguous block. Siblings sort by their `row` attribute, then by span
/// id (open order), so the output does not depend on which thread
/// finished first. Returns the text and the number
/// of lines dropped by the per-row byte budget.
pub fn render(spans: &[SpanRecord]) -> (String, u64) {
    let ids: HashSet<SpanId> = spans.iter().map(|s| s.id).collect();
    let mut children: HashMap<Option<SpanId>, Vec<&SpanRecord>> = HashMap::new();
    for span in spans {
        // A span whose parent is outside the capture renders as a root.
        let parent = span.parent.filter(|p| ids.contains(p));
        children.entry(parent).or_default().push(span);
    }
    for siblings in children.values_mut() {
        siblings.sort_by_key(|s| (num_attr(s, "row"), s.id.0));
    }
    let mut out = Renderer::default();
    for root in children.get(&None).into_iter().flatten() {
        out.walk(root, &children);
    }
    (out.text, out.dropped)
}

fn num_attr(span: &SpanRecord, key: &str) -> Option<u64> {
    span.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Num(n) if k == key => Some(*n),
        _ => None,
    })
}

#[derive(Default)]
struct Renderer {
    text: String,
    dropped: u64,
    /// Bytes used by the row block being rendered, if inside one.
    block: Option<usize>,
}

impl Renderer {
    fn walk(&mut self, span: &SpanRecord, children: &HashMap<Option<SpanId>, Vec<&SpanRecord>>) {
        let opens_block = span.name == "row" && self.block.is_none();
        if opens_block {
            self.block = Some(0);
        }
        let mut line = JsonObj::new().str("ev", &span.name);
        for (key, value) in &span.attrs {
            line = match value {
                AttrValue::Num(n) => line.num(key, *n),
                AttrValue::Str(s) => line.str(key, s),
            };
        }
        self.push(line.finish());
        for child in children.get(&Some(span.id)).into_iter().flatten() {
            self.walk(child, children);
        }
        if opens_block {
            self.block = None;
        }
    }

    fn push(&mut self, line: String) {
        if let Some(used) = &mut self.block {
            if *used + line.len() > ROW_BLOCK_MAX_BYTES {
                self.dropped += 1;
                return;
            }
            *used += line.len();
        }
        self.text.push_str(&line);
        self.text.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanCtx;

    #[test]
    fn rate_bounds_are_exact() {
        let all = Sampler::new(7, 1.0);
        let none = Sampler::new(7, 0.0);
        for row in 0..1000 {
            assert!(all.sampled(row));
            assert!(!none.sampled(row));
        }
    }

    #[test]
    fn sampling_is_deterministic_and_monotone_in_rate() {
        let lo = Sampler::new(42, 0.2);
        let hi = Sampler::new(42, 0.7);
        let lo2 = Sampler::new(42, 0.2);
        let mut kept = 0usize;
        for row in 0..10_000 {
            assert_eq!(lo.sampled(row), lo2.sampled(row));
            if lo.sampled(row) {
                kept += 1;
                assert!(hi.sampled(row), "rate-0.2 sample must be in rate-0.7 set");
            }
        }
        // ~20% within generous slack.
        assert!((1000..3000).contains(&kept), "kept {kept} of 10000");
    }

    #[test]
    fn different_seeds_sample_different_rows() {
        let a = Sampler::new(1, 0.5);
        let b = Sampler::new(2, 0.5);
        let differs = (0..1000).any(|row| a.sampled(row) != b.sampled(row));
        assert!(differs);
    }

    /// A row block stops at [`ROW_BLOCK_MAX_BYTES`]: later lines of the
    /// same row are dropped and counted, the next row starts a fresh block.
    #[test]
    fn span_buf_drops_past_byte_budget() {
        let trace = Arc::new(ActiveTrace::sampled(Sampler::new(0, 1.0)));
        let repair = SpanCtx::root(Arc::clone(&trace)).child("repair");
        let long = "x".repeat(ROW_BLOCK_MAX_BYTES / 3);
        for row in 0..2 {
            let mut sp = repair.child("row");
            sp.attr_num("row", row);
            for _ in 0..4 {
                sp.child("rule").attr("name", &long);
            }
        }
        repair.finish();
        let (text, dropped) = render(&trace.take_spans());
        // Each row keeps its own line plus two rules; two rules each drop.
        assert_eq!(dropped, 4);
        let evs: Vec<String> = text
            .lines()
            .map(|l| {
                let line = crate::json::parse(l).unwrap();
                line.get("ev").and_then(|v| v.as_str()).unwrap().to_owned()
            })
            .collect();
        assert_eq!(
            evs,
            ["repair", "row", "rule", "rule", "row", "rule", "rule"]
        );
    }

    /// Rows finished out of order, with their rule spans interleaved,
    /// still render as one contiguous block per row, in row order, with
    /// ids and durations stripped.
    #[test]
    fn spans_flush_contiguously() {
        let trace = Arc::new(ActiveTrace::sampled(Sampler::new(0, 1.0)));
        let repair = SpanCtx::root(Arc::clone(&trace)).child("repair");
        let mut late = repair.child("row");
        late.attr_num("row", 1);
        let mut early = repair.child("row");
        early.attr_num("row", 0);
        late.child("rule").attr_static("result", "repaired");
        early.child("rule").attr_static("result", "not_applicable");
        late.finish();
        early.finish();
        repair.finish();
        let (text, dropped) = render(&trace.take_spans());
        assert_eq!(dropped, 0);
        assert_eq!(
            text,
            "{\"ev\":\"repair\"}\n\
             {\"ev\":\"row\",\"row\":0}\n\
             {\"ev\":\"rule\",\"result\":\"not_applicable\"}\n\
             {\"ev\":\"row\",\"row\":1}\n\
             {\"ev\":\"rule\",\"result\":\"repaired\"}\n"
        );
    }

    #[test]
    fn sink_starts_with_the_schema_line() {
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()), Sampler::new(0, 0.0));
        let trace = sink.capture();
        SpanCtx::root(Arc::clone(&trace)).child("relation").finish();
        assert!(!trace.row_detailed(0), "rate 0 details no row");
        assert_eq!(sink.write(&trace), 0);
        assert_eq!(
            String::from_utf8(buf.0.lock().clone()).unwrap(),
            "{\"ev\":\"schema\",\"version\":3}\n{\"ev\":\"relation\"}\n"
        );
    }
}
