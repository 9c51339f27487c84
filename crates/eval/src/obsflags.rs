//! CLI plumbing for the observability layer (DESIGN.md §4d): parses the
//! shared `--metrics` / `--trace` flags, builds the
//! [`Obs`] handle experiment configs thread into their
//! [`MatchContext`](dr_core::MatchContext)s, and on
//! [`finish`](ObsCli::finish) writes the Prometheus-style `metrics.prom`
//! dump and prints the human summary table.
//!
//! Flags (accepted by `exp_table3`, `exp_fig8`, and `exp_ablation`;
//! `dr-serve` takes the first two through [`ObsCli::metrics_only`]):
//!
//! * `--metrics` — record metrics; on exit write `metrics.prom` (override
//!   the path with `--metrics-out <path>`) and print a summary table.
//! * `--trace <path>` — write the JSONL rendering of every relation's
//!   repair spans to `<path>` (DESIGN.md §11).
//! * `--trace-sample <rate>` — row sampling rate in `[0, 1]`
//!   (default `1.0`; the relation envelope is always written).
//! * `--trace-seed <seed>` — sampler seed (default `42`); the same seed
//!   and rate reproduce the same sampled row set.

use dr_obs::{JsonlSink, MetricsSnapshot, Obs, Sampler};
use std::path::PathBuf;
use std::sync::Arc;

/// Parsed observability flags plus the live [`Obs`] handle (when any flag
/// enabled it).
pub struct ObsCli {
    /// Handle to clone into experiment configs; `None` when neither
    /// `--metrics` nor `--trace` was given (zero-overhead path).
    pub obs: Option<Arc<Obs>>,
    metrics: bool,
    metrics_out: PathBuf,
    trace_path: Option<PathBuf>,
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

impl ObsCli {
    /// Parses the observability flags out of `args` (the full argv).
    ///
    /// Panics with a usage message on malformed values — these are
    /// operator-facing binaries, not a library API.
    pub fn from_args(args: &[String]) -> Self {
        let mut cli = Self::metrics_only(args);
        let Some(path) = flag_value(args, "--trace").map(PathBuf::from) else {
            return cli;
        };
        let sample: f64 = flag_value(args, "--trace-sample")
            .map(|v| v.parse().expect("--trace-sample takes a rate in [0, 1]"))
            .unwrap_or(1.0);
        let seed: u64 = flag_value(args, "--trace-seed")
            .map(|v| v.parse().expect("--trace-seed takes an integer"))
            .unwrap_or(42);
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create trace file {path:?}: {e}"));
        cli.obs = Some(Arc::new(Obs::with_jsonl(JsonlSink::new(
            Box::new(std::io::BufWriter::new(file)),
            Sampler::new(seed, sample),
        ))));
        cli.trace_path = Some(path);
        cli
    }

    /// Parses only `--metrics` and `--metrics-out`: for binaries whose
    /// traces are live spans rather than a JSONL file.
    pub fn metrics_only(args: &[String]) -> Self {
        let metrics = args.iter().any(|a| a == "--metrics");
        let metrics_out = flag_value(args, "--metrics-out")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("metrics.prom"));
        Self {
            obs: metrics.then(|| Arc::new(Obs::new())),
            metrics,
            metrics_out,
            trace_path: None,
        }
    }

    /// Finalizes the run: names the trace file, writes `metrics.prom`,
    /// and prints the human-readable metrics summary. Call once, after the
    /// experiment finished.
    pub fn finish(&self) {
        let Some(obs) = &self.obs else { return };
        if let Some(path) = &self.trace_path {
            eprintln!("trace written to {}", path.display());
        }
        if self.metrics {
            let snap = obs.metrics().snapshot();
            std::fs::write(&self.metrics_out, snap.render_prom())
                .unwrap_or_else(|e| panic!("cannot write {:?}: {e}", self.metrics_out));
            println!("{}", crate::report::metrics_summary(&snap));
            println!("metrics written to {}", self.metrics_out.display());
        }
    }

    /// The snapshot of the attached registry, if metrics are on (tests).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.obs.as_ref().map(|o| o.metrics().snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn no_flags_means_no_obs() {
        let cli = ObsCli::from_args(&argv(&["exp", "--quick"]));
        assert!(cli.obs.is_none());
        cli.finish(); // no-op
    }

    #[test]
    fn metrics_flag_builds_registry_without_tracer() {
        let cli = ObsCli::from_args(&argv(&["exp", "--metrics"]));
        let obs = cli.obs.as_ref().expect("obs enabled");
        assert!(obs.jsonl().is_none());
        assert!(cli.snapshot().is_some());
        let serve = ObsCli::metrics_only(&argv(&["serve", "--trace", "t.jsonl"]));
        assert!(serve.obs.is_none(), "metrics_only ignores --trace");
    }

    /// `--trace` writes the schema line, then each repaired relation's
    /// rendered spans: the envelope always, row blocks for sampled rows.
    #[test]
    fn trace_flag_builds_tracer_and_writes_file() {
        let dir = std::env::temp_dir().join(format!("dr-obsflags-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let cli = ObsCli::from_args(&argv(&[
            "exp",
            "--trace",
            path.to_str().unwrap(),
            "--trace-sample",
            "1",
            "--trace-seed",
            "7",
        ]));
        let obs = cli.obs.as_ref().expect("obs enabled");
        assert!(obs.jsonl().is_some(), "JSONL sink attached");
        let kb = dr_kb::fixtures::nobel_mini_kb();
        let rules = dr_core::fixtures::figure4_rules(&kb);
        let ctx = dr_core::MatchContext::new(&kb).with_obs(Arc::clone(obs));
        let mut relation = dr_core::fixtures::table1_dirty();
        dr_core::fast_repair(&ctx, &rules, &mut relation, &Default::default());
        cli.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], r#"{"ev":"schema","version":3}"#);
        assert!(lines[1].starts_with(r#"{"ev":"relation","algo":"fast","rows":4,"#));
        let rows = lines
            .iter()
            .filter(|l| l.starts_with(r#"{"ev":"row","#))
            .count();
        assert_eq!(rows, 4, "rate 1 renders every row");
        std::fs::remove_dir_all(&dir).ok();
    }
}
