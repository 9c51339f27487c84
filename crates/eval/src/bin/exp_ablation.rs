//! Ablations (see `dr_eval::ablation`): what the paper's §IV-B speed
//! optimisations, typo normalization, detection-without-repair,
//! cross-relation cache persistence, and cross-process snapshot warm
//! starts are worth.
//!
//! Usage: `cargo run -p dr-eval --bin exp_ablation --release [-- --quick]
//! [--cache-dir <dir>] [--metrics] [--trace <path>]`
//!
//! The speed ablation asserts that its variants agree before it reports
//! a time, then prints a greppable `speed-ablations-agree: ok`. The
//! snapshot warm-start ablation needs a disk directory; without
//! `--cache-dir` it uses (and cleans up) a scratch directory under the
//! system temp dir.

use dr_eval::ablation::{
    cache_persistence_ablation, detection_ablation, normalization_ablation,
    snapshot_warm_start_ablation, speed_ablation, AblationConfig,
};
use dr_eval::obsflags::ObsCli;
use dr_eval::report::{
    cache_cell, f3, phases_cell, render_table, resilience_cell, secs, snapshot_cell,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cache_dir = args
        .iter()
        .position(|a| a == "--cache-dir")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let obs_cli = ObsCli::from_args(&args);
    let cfg = AblationConfig {
        size: if quick { 200 } else { 2_000 },
        obs: obs_cli.obs.clone(),
        ..Default::default()
    };

    let reps = if quick { 3 } else { 5 };
    let rows: Vec<Vec<String>> = speed_ablation(&cfg, reps)
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.config.clone(),
                secs(r.seconds),
                r.hit_rate
                    .map_or_else(|| "-".to_owned(), |h| format!("{:.1}%", h * 100.0)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("ABLATION: SPEED (§IV-B, best of {reps})"),
            &["workload", "config", "time", "cache hit rate"],
            &rows,
        )
    );
    println!("speed-ablations-agree: ok\n");

    let typo_cfg = AblationConfig {
        typo_share: 1.0,
        ..cfg.clone()
    };
    let rows: Vec<Vec<String>> = normalization_ablation(&typo_cfg)
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                f3(r.quality.precision),
                f3(r.quality.recall),
                f3(r.quality.f_measure),
                r.pos.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "ABLATION: TYPO NORMALIZATION (Nobel, 100% typos)",
            &["config", "Precision", "Recall", "F-measure", "#-POS"],
            &rows,
        )
    );

    let rows: Vec<Vec<String>> = detection_ablation(&cfg)
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                f3(r.quality.precision),
                f3(r.quality.recall),
                f3(r.quality.f_measure),
                r.pos.to_string(),
                r.flagged.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "ABLATION: DETECTION WITHOUT REPAIR (UIS, sparse KB)",
            &[
                "config",
                "Precision",
                "Recall",
                "F-measure",
                "#-POS",
                "#-flagged"
            ],
            &rows,
        )
    );

    let stream_len = 5;
    let rows: Vec<Vec<String>> = cache_persistence_ablation(&cfg, stream_len)
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.relations.to_string(),
                secs(r.seconds),
                cache_cell(&r.cache),
                phases_cell(&r.timing),
                resilience_cell(&r.resilience),
                r.changes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "ABLATION: CACHE PERSISTENCE (Nobel stream, same schema)",
            &[
                "config",
                "#-relations",
                "time",
                "cache h/m",
                "phases pw+rep",
                "res d/f/q/r",
                "#-changes"
            ],
            &rows,
        )
    );

    // Snapshot warm start: two fresh registries ("processes") sharing one
    // on-disk cache directory.
    let (snap_dir, ephemeral) = match &cache_dir {
        Some(dir) => (dir.clone(), false),
        None => (
            std::env::temp_dir().join(format!("dr-snap-ablation-{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&snap_dir).expect("create snapshot cache dir");
    let snap_rows = snapshot_warm_start_ablation(&cfg, stream_len, &snap_dir);
    let rows: Vec<Vec<String>> = snap_rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.relations.to_string(),
                secs(r.seconds),
                cache_cell(&r.cache),
                snapshot_cell(&r.snapshot),
                r.changes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "ABLATION: SNAPSHOT WARM START (Nobel stream, shared disk cache)",
            &[
                "config",
                "#-relations",
                "time",
                "cache h/m",
                "snap w/c/r/s",
                "#-changes"
            ],
            &rows,
        )
    );
    let warm: u64 = snap_rows.iter().map(|r| r.snapshot.warm_loads).sum();
    println!("snapshot-warm-loads: {warm}");
    if ephemeral {
        std::fs::remove_dir_all(&snap_dir).ok();
    }
    obs_cli.finish();
}
