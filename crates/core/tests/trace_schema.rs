//! Golden-file and sampling-subset tests for the JSONL repair trace, the
//! deterministic rendering of repair spans (DESIGN.md §11).
//!
//! The rendered schema is a contract: lines carry no ids or durations, so
//! a seeded single-tuple repair renders a byte-identical line sequence on
//! every run and machine — pinned here against a checked-in golden file.
//! The sampler is monotone in the rate, so any sampled trace is a subset
//! of the rate-1.0 trace under the same seed.

use dr_core::{fast_repair, parallel_repair, ApplyOptions, MatchContext, ParallelOptions};
use dr_kb::fixtures::nobel_mini_kb;
use dr_obs::{JsonlSink, Obs, Sampler};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/single_tuple_trace.jsonl");

/// An in-memory trace file.
#[derive(Clone, Default)]
struct TraceBuf(Arc<Mutex<Vec<u8>>>);

impl Write for TraceBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_ctx(kb: &dr_kb::KnowledgeBase, sampler: Sampler) -> (MatchContext<'_>, TraceBuf) {
    let buf = TraceBuf::default();
    let obs = Arc::new(Obs::with_jsonl(JsonlSink::new(
        Box::new(buf.clone()),
        sampler,
    )));
    (MatchContext::new(kb).with_obs(obs), buf)
}

fn lines(buf: &TraceBuf) -> Vec<String> {
    String::from_utf8(buf.0.lock().clone())
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect()
}

/// The `ev` field of a rendered line.
fn ev(line: &str) -> &str {
    let rest = &line[line.find("\"ev\":\"").unwrap() + 6..];
    &rest[..rest.find('"').unwrap()]
}

/// Every line must be a flat JSON object with an `ev` field — a minimal
/// structural validation mirroring the CI `jq -e` check — and the first
/// must be the schema-version line.
fn assert_jsonl_shape(lines: &[String]) {
    assert_eq!(lines[0], r#"{"ev":"schema","version":3}"#);
    for line in lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not an object: {line}"
        );
        assert!(line.contains("\"ev\":\""), "no ev field: {line}");
        assert!(!line.contains('\n'), "embedded newline: {line}");
    }
}

/// Repairs Table I's first tuple alone, tracing every row.
fn single_tuple_trace() -> Vec<String> {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let (ctx, buf) = traced_ctx(&kb, Sampler::new(42, 1.0));
    let mut relation = dr_relation::Relation::new(dr_core::fixtures::nobel_schema());
    relation.push(dr_core::fixtures::table1_dirty().tuple(0).clone());
    fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
    lines(&buf)
}

/// Regenerates the golden file. Run explicitly after an intentional schema
/// change (and bump `dr_obs::SCHEMA_VERSION`):
/// `cargo test -p dr-core --test trace_schema -- --ignored`.
#[test]
#[ignore = "writes the golden file; run only to regenerate it"]
fn regenerate_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/single_tuple_trace.jsonl"
    );
    let mut text = single_tuple_trace().join("\n");
    text.push('\n');
    std::fs::write(path, text).unwrap();
}

/// A seeded single-tuple fast repair renders exactly the documented line
/// sequence, byte for byte.
#[test]
fn single_tuple_trace_matches_golden() {
    let got = single_tuple_trace();
    assert_jsonl_shape(&got);
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        got, want,
        "trace drifted from the golden file; if the schema change is \
         intentional, bump SCHEMA_VERSION and regenerate \
         crates/core/tests/golden/single_tuple_trace.jsonl"
    );
}

/// The same seed and data produce the same trace on repeated runs.
#[test]
fn traces_are_deterministic_across_runs() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let run = || {
        let (ctx, buf) = traced_ctx(&kb, Sampler::new(7, 0.5));
        let mut relation = dr_core::fixtures::table1_dirty();
        fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
        lines(&buf)
    };
    assert_eq!(run(), run());
}

/// Table I repeated eight times.
fn table1_x8() -> dr_relation::Relation {
    let mut relation = dr_relation::Relation::new(dr_core::fixtures::nobel_schema());
    let base = dr_core::fixtures::table1_dirty();
    for _ in 0..8 {
        for t in base.tuples() {
            relation.push(t.clone());
        }
    }
    relation
}

/// Under one seed, the rows a rate-r sampler keeps are a subset of the
/// rows rate 1.0 keeps — so on one worker the sampled trace's lines are
/// exactly a sub-multiset of the full trace's.
#[test]
fn sampled_trace_is_subset_of_full_trace() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let run = |rate: f64| {
        let (ctx, buf) = traced_ctx(&kb, Sampler::new(99, rate));
        fast_repair(&ctx, &rules, &mut table1_x8(), &ApplyOptions::default());
        lines(&buf)
    };
    let full = run(1.0);
    assert!(
        full.iter().any(|l| ev(l) == "rule"),
        "rows render rule lines"
    );
    for rate in [0.0, 0.25, 0.5] {
        let sampled = run(rate);
        assert_jsonl_shape(&sampled);
        let mut budgeted: HashMap<&str, usize> = HashMap::new();
        for line in &full {
            *budgeted.entry(line.as_str()).or_default() += 1;
        }
        for line in &sampled {
            let left = budgeted
                .get_mut(line.as_str())
                .unwrap_or_else(|| panic!("rate {rate}: line not in full trace: {line}"));
            assert!(*left > 0, "rate {rate}: line over-represented: {line}");
            *left -= 1;
        }
        assert!(sampled.len() < full.len());
    }
}

/// The rows appearing in a sampled trace (by `row` lines).
fn sampled_rows(lines: &[String]) -> Vec<u64> {
    lines
        .iter()
        .filter(|l| ev(l) == "row")
        .map(|l| {
            let rest = &l[l.find("\"row\":").unwrap() + 6..];
            rest[..rest.find(',').unwrap()].parse().unwrap()
        })
        .collect()
}

/// The parallel scheduler's shared-cache hit/miss split is
/// scheduling-dependent, so the byte-level subset property only holds on
/// one worker — but the *row* set is exact: the sampler keys on the row
/// index alone, so the rows a rate-r parallel trace contains are
/// precisely the sampled subset of all rows, in row order, regardless of
/// thread interleaving.
#[test]
fn parallel_sampling_selects_the_same_rows() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let run = |rate: f64, threads: usize| {
        let (ctx, buf) = traced_ctx(&kb, Sampler::new(99, rate));
        parallel_repair(
            &ctx,
            &rules,
            &mut table1_x8(),
            &ParallelOptions {
                threads,
                ..Default::default()
            },
        );
        lines(&buf)
    };
    let full_rows = sampled_rows(&run(1.0, 4));
    assert_eq!(full_rows, (0..32).collect::<Vec<_>>());
    let sequential_rows = sampled_rows(&run(0.5, 1));
    let parallel = run(0.5, 4);
    assert_jsonl_shape(&parallel);
    let parallel_rows = sampled_rows(&parallel);
    assert_eq!(
        parallel_rows, sequential_rows,
        "sampling is thread-count invariant"
    );
    assert!(parallel_rows.iter().all(|r| full_rows.contains(r)));
    assert!(parallel_rows.len() < full_rows.len());
}

/// Rate 0 still renders the relation envelope (relation, phases, index
/// builds) — only row blocks are sampled away.
#[test]
fn rate_zero_keeps_relation_envelope_only() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let (ctx, buf) = traced_ctx(&kb, Sampler::new(1, 0.0));
    let mut relation = dr_core::fixtures::table1_dirty();
    fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
    let got = lines(&buf);
    let evs: Vec<&str> = got
        .iter()
        .map(|l| ev(l))
        .filter(|&ev| ev != "index_build")
        .collect();
    assert_eq!(evs, ["schema", "relation", "prewarm", "repair"]);
}

/// A file sink receives the same bytes as the golden file.
#[test]
fn file_sink_round_trips() {
    let kb = nobel_mini_kb();
    let rules = dr_core::fixtures::figure4_rules(&kb);
    let dir = std::env::temp_dir().join(format!("dr-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    {
        let file = std::fs::File::create(&path).unwrap();
        let sink = JsonlSink::new(Box::new(file), Sampler::new(42, 1.0));
        let obs = Arc::new(Obs::with_jsonl(sink));
        let ctx = MatchContext::new(&kb).with_obs(Arc::clone(&obs));
        let mut relation = dr_relation::Relation::new(dr_core::fixtures::nobel_schema());
        relation.push(dr_core::fixtures::table1_dirty().tuple(0).clone());
        fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
    }
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(written, GOLDEN);
}
