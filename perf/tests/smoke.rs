//! Runs every workload at tiny sizes (`--smoke`) and checks the output
//! contract against `BENCHMARK.json`: every metric it lists is printed for
//! every workload with its unit, the result line is valid JSON, and nothing
//! failed. No wall-clock assertions.

use std::path::{Path, PathBuf};
use std::process::Command;

use dr_obs::json::{parse, JsonValue};

fn benchmark() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(doc: &JsonValue, section: &str, field: &str) -> Vec<String> {
    doc.get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|entry| {
            entry
                .get(field)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("{section} entry without {field}"))
                .to_owned()
        })
        .collect()
}

/// Runs all workloads at smoke size; returns stdout.
fn run(trace: &str, trace_dir: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_dr-perf"))
        .args(["--smoke", "--seed", "11", "--trace", trace, "--trace-dir"])
        .arg(trace_dir)
        .output()
        .expect("dr-perf runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "dr-perf --smoke --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn check(stdout: &str, section: &str) {
    let doc = benchmark();
    let workloads = names(&doc, "workloads", "name");
    let metrics: Vec<(String, String)> = names(&doc, section, "name")
        .into_iter()
        .zip(names(&doc, section, "unit"))
        .collect();
    assert!(!metrics.is_empty());
    for workload in &workloads {
        for (name, unit) in &metrics {
            let prefix = format!("{workload}/{name} = ");
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no line for {workload}/{name}:\n{stdout}"));
            let (value, printed_unit) = line[prefix.len()..]
                .split_once(' ')
                .unwrap_or_else(|| panic!("no unit on {line:?}"));
            assert_eq!(printed_unit, unit, "{line}");
            assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{line}");
        }
        let error_rate = format!("{workload}/error_rate = 0 ratio");
        assert!(
            stdout.lines().any(|l| l == error_rate),
            "{error_rate}\n{stdout}"
        );
    }

    let result = parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(result.get("attempted").and_then(JsonValue::as_u64) > Some(0));
    let printed = result.get("metrics").expect("metrics object");
    for workload in &workloads {
        for (name, _) in &metrics {
            assert!(
                printed.get(&format!("{workload}/{name}")).is_some(),
                "{workload}/{name} missing from the result line"
            );
        }
    }
}

#[test]
fn measured_run_prints_every_end_to_end_metric() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-measured");
    check(&run("0", &dir), "end_to_end");
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_writes_spans() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-traced");
    let _ = std::fs::remove_dir_all(&dir);
    check(&run("1", &dir), "per_layer");
    for workload in names(&benchmark(), "workloads", "name") {
        let spans = std::fs::read_to_string(dir.join(&workload).join("spans.jsonl"))
            .unwrap_or_else(|e| panic!("{workload}: no spans.jsonl: {e}"));
        let mut count = 0;
        for line in spans.lines() {
            let span = parse(line).unwrap_or_else(|e| panic!("{workload}: {e}: {line}"));
            for key in ["op", "id", "parent", "name", "start_us", "end_us"] {
                assert!(span.get(key).is_some(), "{workload}: span without {key}");
            }
            count += 1;
        }
        assert!(count > 0, "{workload}: no spans recorded");
    }
}
