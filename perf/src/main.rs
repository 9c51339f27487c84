//! `dr-perf` — the end-to-end and per-layer benchmark of the detective-rules
//! repairer.
//!
//! ```text
//! dr-perf [--workload all|uis-batch|tablei-1t|nobel-serve|nobel-delta]
//!         [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke]
//! ```
//!
//! With `--workload all` (the default) each workload runs in a child
//! process, so `peak_rss_mb` is per workload. Every metric is printed as
//! `<workload>/<metric> = <value> <unit>`; the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` is a separate run that records spans
//! (written to `DIR/<workload>/spans.jsonl`) and reports the per-layer
//! metrics. The exit code is non-zero when any output was wrong.

mod batch;
mod client;
mod data;
mod delta;
mod measure;
mod probes;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use measure::{Config, Workload};
use report::{result_json, Metric, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: dr-perf [--workload all|uis-batch|tablei-1t|nobel-serve|nobel-delta] \
                     [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke]";

/// Parsed command line; `workload: None` runs all of them.
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        trace_dir: PathBuf::from("target/dr-perf"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                cli.workload = match value.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or_else(bad)?),
                }
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-dir" => cli.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dr-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = match cli.workload {
        Some(workload) => run_one(&cli, workload),
        None => run_all(&cli, &args),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its lines and result.
fn run_one(cli: &Cli, workload: Workload) -> bool {
    let cfg = Config {
        workload,
        seed: cli.seed,
        window: if cli.smoke {
            Duration::from_millis(500)
        } else {
            Duration::from_secs_f64(cli.seconds)
        },
        trace: cli.trace,
        trace_dir: cli.trace_dir.clone(),
        smoke: cli.smoke,
    };
    eprintln!(
        "dr-perf: {} seed {} window {:?}{}",
        workload.name(),
        cfg.seed,
        cfg.window,
        if cfg.trace { " traced" } else { "" }
    );
    let mut report = match workload {
        Workload::UisBatch | Workload::TableI1t => batch::run(&cfg),
        Workload::NobelServe => serve::run(&cfg),
        Workload::NobelDelta => delta::run(&cfg),
    };
    report.select(if cfg.trace { PER_LAYER } else { END_TO_END });
    for line in report.lines(workload.name()) {
        println!("{line}");
    }
    println!("{}", report.json());
    report.correct()
}

/// Runs every workload in its own child process and prints their lines,
/// then one result whose metric names carry the workload as a prefix.
fn run_all(cli: &Cli, args: &[String]) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("dr-perf: cannot find own executable: {e}");
            return false;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(args)
            .args(["--workload", workload.name()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                eprintln!("dr-perf: cannot run {}: {e}", workload.name());
                correct = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().and_then(|l| dr_obs::json::parse(l).ok());
        for line in &lines {
            println!("{line}");
        }
        let Some(result) = result else {
            eprintln!("dr-perf: {} printed no result", workload.name());
            correct = false;
            continue;
        };
        correct &= output.status.success()
            && result.get("correct") == Some(&dr_obs::json::JsonValue::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        failed += result.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        let names = if cli.trace { PER_LAYER } else { END_TO_END };
        for (name, unit) in names {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .unwrap_or(f64::NAN);
            correct &= value.is_finite();
            metrics.push(Metric::new(
                format!("{}/{name}", workload.name()),
                value,
                unit,
            ));
        }
    }
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    correct
}
