//! Metric names, summary statistics, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics every workload reports on a measured run, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tuples_per_s", "1/s"),
    ("latency_ms_p10", "ms"),
];

/// Per-layer metrics every workload reports on a traced run, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("relation.csv_parse_us_p50", "us"),
    ("kb.build_ms", "ms"),
    ("kb.clone_ms_p50", "ms"),
    ("kb.apply_delta_ms_p50", "ms"),
    ("kb.content_hash_ms_p50", "ms"),
    ("simmatch.lookup_us_p50", "us"),
    ("simmatch.lookup_us_p99", "us"),
    ("simmatch.candidates_per_lookup", "count"),
    ("simmatch.lookups", "count"),
    ("core.prewarm_ms", "ms"),
    ("core.value_cache.hit_ratio", "ratio"),
    ("core.tuple_us_p50", "us"),
    ("core.tuple_us_p99", "us"),
    ("core.driver_overhead_pct", "%"),
    ("core.parallel_efficiency", "ratio"),
    ("core.registry.sweep_ms_p50", "ms"),
    ("core.registry.invalidated_entries", "count"),
    ("core.selective_ms_p50", "ms"),
    ("core.selective.rows_rerun", "count"),
    ("serve.handle_ms_p50", "ms"),
    ("serve.render_ms_p50", "ms"),
    ("serve.http_ms_p50", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly
/// between the two nearest ranks. NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (VmHWM) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One named number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (passes, requests, cycles).
    pub attempted: u64,
    /// Operations that failed: a wrong output, a non-200 response, a
    /// transport error, or a Failed or Degraded tuple.
    pub failed: u64,
    /// Whether every set-up check (oracles, references) passed.
    pub checks_ok: bool,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Numbers printed for people only: sample counts, bases of ratios.
    pub notes: Vec<Metric>,
}

impl Report {
    /// Whether the run was correct: checks passed, nothing failed, and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks_ok
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Orders `metrics` as `names` lists them; panics if one is missing or
    /// extra, since that is a bug in the benchmark.
    pub fn select(&mut self, names: &[(&str, &str)]) {
        let mut picked = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let at = self
                .metrics
                .iter()
                .position(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let metric = self.metrics.swap_remove(at);
            assert_eq!(metric.unit, *unit, "unit of {name}");
            picked.push(metric);
        }
        assert!(
            self.metrics.is_empty(),
            "unlisted metrics: {:?}",
            self.metrics
        );
        self.metrics = picked;
    }

    /// The human-readable lines: `<workload>/<metric> = <value> <unit>`.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        let error_rate = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            1.0
        };
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.notes)
            .map(|m| format!("{workload}/{} = {} {}", m.name, m.value, m.unit))
            .collect();
        lines.push(format!("{workload}/error_rate = {error_rate} ratio"));
        lines.push(format!(
            "{workload}/operations = {} attempted, {} failed",
            self.attempted, self.failed
        ));
        lines
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        result_json(self.correct(), self.attempted, self.failed, &self.metrics)
    }
}

/// Renders a result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Non-finite values are not JSON; `correct` is already false then.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn result_line_is_parseable_json() {
        let report = Report {
            attempted: 3,
            failed: 0,
            checks_ok: true,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            notes: Vec::new(),
        };
        let parsed = dr_obs::json::parse(&report.json()).expect("valid JSON");
        assert_eq!(
            parsed.get("correct"),
            Some(&dr_obs::json::JsonValue::Bool(true))
        );
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64());
        assert_eq!(setup, Some(0.25));
    }
}
