//! Regenerates **Table III**: data annotation and repair accuracy of
//! detective rules vs KATARA (precision / recall / F-measure / #-POS) on
//! WebTables, Nobel, and UIS against both KBs.
//!
//! Usage: `cargo run -p dr-eval --bin exp_table3 --release [-- --quick]
//! [--cache-dir <dir>] [--dump <path>]...`
//!
//! * `--cache-dir <dir>` turns on cross-process value-cache snapshots
//!   (DESIGN.md §4a): DR registries seed from the directory and persist
//!   back to it, so a second invocation warm-starts from disk. The run
//!   also prints a greppable `snapshot-warm-loads: N` line.
//! * `--dump <path>` (repeatable) loads an external `.nt`/`.csv` dump
//!   leniently and prints a capped quarantine summary to stderr.
//! * `--metrics` / `--trace <path>` / `--trace-sample <rate>` /
//!   `--trace-seed <seed>` — observability flags, see
//!   [`dr_eval::obsflags`].

use dr_eval::exp1::{table3, Exp1Config};
use dr_eval::obsflags::ObsCli;
use dr_eval::report::{f3, render_table, secs};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cache_dir = args
        .iter()
        .position(|a| a == "--cache-dir")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);

    let dumps = dr_eval::dumps::dump_paths(&args);
    if !dumps.is_empty() {
        let quarantined = dr_eval::dumps::report_dumps(&dumps);
        eprintln!(
            "loaded {} external dump(s), {} record(s) quarantined",
            dumps.len(),
            quarantined
        );
    }

    let mut cfg = if quick {
        Exp1Config {
            nobel_size: 200,
            uis_size: 400,
            ..Default::default()
        }
    } else {
        Exp1Config::default()
    };
    if let Some(dir) = &cache_dir {
        std::fs::create_dir_all(dir).expect("create cache dir");
        cfg.cache_dir = Some(dir.clone());
    }
    let obs_cli = ObsCli::from_args(&args);
    cfg.obs = obs_cli.obs.clone();
    eprintln!(
        "running Table III (nobel={}, uis={}, e={}%)...",
        cfg.nobel_size,
        cfg.uis_size,
        cfg.error_rate * 100.0
    );
    let rows = table3(&cfg);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_owned(),
                r.method.to_owned(),
                r.kb.label().to_owned(),
                f3(r.quality.precision),
                f3(r.quality.recall),
                f3(r.quality.f_measure),
                r.pos.to_string(),
                secs(r.seconds),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "TABLE III. DATA ANNOTATION AND REPAIR ACCURACY",
            &[
                "dataset",
                "method",
                "KB",
                "Precision",
                "Recall",
                "F-measure",
                "#-POS",
                "time"
            ],
            &table_rows,
        )
    );
    if cache_dir.is_some() {
        let warm: u64 = rows.iter().map(|r| r.snapshot.warm_loads).sum();
        println!("snapshot-warm-loads: {warm}");
    }
    obs_cli.finish();
}
