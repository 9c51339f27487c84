//! Regenerates **Figure 8**: efficiency and scalability.
//!
//! * (a) WebTables, time vs #-rules 10–50;
//! * (b) Nobel, time vs #-rules 1–5;
//! * (c) UIS-20K, time vs #-rules 1–5;
//! * (d) UIS, time vs #-tuples 20K–100K, all methods.
//!
//! Usage: `cargo run -p dr-eval --bin exp_fig8 --release [-- --quick]
//! [--dump <path>]...`
//!
//! `--dump <path>` (repeatable) loads an external `.nt`/`.csv` dump
//! leniently and prints a capped quarantine summary to stderr.
//! `--metrics` / `--trace <path>` / `--trace-sample <rate>` /
//! `--trace-seed <seed>` — observability flags, see
//! [`dr_eval::obsflags`].

use dr_eval::exp2::SweepDataset;
use dr_eval::exp3::{
    keyed_rule_sweep, uis_tuple_sweep, webtables_rule_sweep, Exp3Config, TimingPoint,
};
use dr_eval::obsflags::ObsCli;
use dr_eval::report::{render_table, secs};

fn print_points(title: &str, x_label: &str, points: &[TimingPoint]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| vec![p.x.to_string(), p.method.clone(), secs(p.seconds)])
        .collect();
    println!(
        "{}",
        render_table(title, &[x_label, "method", "time"], &rows)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");

    let dumps = dr_eval::dumps::dump_paths(&args);
    if !dumps.is_empty() {
        let quarantined = dr_eval::dumps::report_dumps(&dumps);
        eprintln!(
            "loaded {} external dump(s), {} record(s) quarantined",
            dumps.len(),
            quarantined
        );
    }
    let obs_cli = ObsCli::from_args(&args);
    let mut cfg = if quick {
        Exp3Config {
            nobel_size: 200,
            uis_size: 500,
            ..Default::default()
        }
    } else {
        Exp3Config::default()
    };
    cfg.obs = obs_cli.obs.clone();

    eprintln!("running Fig 8(a) WebTables rule sweep...");
    let points = webtables_rule_sweep(&[10, 20, 30, 40, 50], &cfg);
    print_points("FIGURE 8(a). TIME vs #-RULE — WebTables", "#-rule", &points);

    eprintln!(
        "running Fig 8(b) Nobel rule sweep (n={})...",
        cfg.nobel_size
    );
    let points = keyed_rule_sweep(SweepDataset::Nobel, &[1, 2, 3, 4, 5], &cfg);
    print_points("FIGURE 8(b). TIME vs #-RULE — Nobel", "#-rule", &points);

    eprintln!("running Fig 8(c) UIS rule sweep (n={})...", cfg.uis_size);
    let points = keyed_rule_sweep(SweepDataset::Uis, &[1, 2, 3, 4, 5], &cfg);
    print_points("FIGURE 8(c). TIME vs #-RULE — UIS", "#-rule", &points);

    let sizes: Vec<usize> = if quick {
        vec![200, 400]
    } else {
        vec![20_000, 40_000, 60_000, 80_000, 100_000]
    };
    eprintln!("running Fig 8(d) UIS tuple sweep ({sizes:?})...");
    let points = uis_tuple_sweep(&sizes, &cfg);
    print_points("FIGURE 8(d). TIME vs #-TUPLE — UIS", "#-tuple", &points);
    obs_cli.finish();
}
