//! Structural tests for the experiment harness: every driver emits the
//! series its figure requires, with sane values, and `results/README.md`
//! lists exactly the harness binaries that exist.

use std::collections::BTreeSet;
use std::path::Path;

use dr_eval::exp1::{table2, table3, Exp1Config};
use dr_eval::exp2::{error_rate_sweep, typo_rate_sweep, Exp2Config, SweepDataset};
use dr_eval::exp3::{keyed_rule_sweep, webtables_rule_sweep, Exp3Config};
use dr_eval::DrAlgo;

fn tiny1() -> Exp1Config {
    Exp1Config {
        nobel_size: 120,
        uis_size: 150,
        error_rate: 0.10,
        seed: 17,
        cache_dir: None,
        obs: None,
    }
}

#[test]
fn table_drivers_emit_complete_grids() {
    let rows = table2(&tiny1());
    // 3 datasets × 2 KBs.
    assert_eq!(rows.len(), 6);

    let rows = table3(&tiny1());
    // 3 datasets × 2 methods × 2 KBs.
    assert_eq!(rows.len(), 12);
    for row in &rows {
        assert!((0.0..=1.0).contains(&row.quality.precision), "{row:?}");
        assert!((0.0..=1.0).contains(&row.quality.recall), "{row:?}");
        assert!(row.seconds >= 0.0);
    }
}

#[test]
fn sweep_drivers_emit_every_series_at_every_point() {
    let cfg = Exp2Config {
        size: 150,
        seed: 23,
        dr_algo: DrAlgo::Fast,
    };
    let xs = [0.05, 0.15];
    for points in [
        error_rate_sweep(SweepDataset::Nobel, &xs, &cfg),
        typo_rate_sweep(SweepDataset::Nobel, &xs, &cfg),
    ] {
        assert_eq!(points.len(), xs.len() * 4);
        for &x in &xs {
            let methods: Vec<&str> = points
                .iter()
                .filter(|p| p.x == x)
                .map(|p| p.method.as_str())
                .collect();
            assert_eq!(methods.len(), 4, "at x={x}: {methods:?}");
            assert!(methods.iter().any(|m| m.contains("Yago")));
            assert!(methods.iter().any(|m| m.contains("DBpedia")));
            assert!(methods.contains(&"Llunatic"));
            assert!(methods.contains(&"constant CFDs"));
        }
    }
}

#[test]
fn timing_drivers_cover_both_algorithms() {
    let cfg = Exp3Config {
        nobel_size: 100,
        uis_size: 120,
        error_rate: 0.10,
        seed: 41,
        obs: None,
    };
    let points = webtables_rule_sweep(&[10], &cfg);
    assert_eq!(points.len(), 4); // 2 algos × 2 KBs
    let points = keyed_rule_sweep(SweepDataset::Nobel, &[2, 5], &cfg);
    assert_eq!(points.len(), 8); // 2 counts × 2 algos × 2 KBs
    for p in &points {
        assert!(p.seconds >= 0.0);
        assert!(p.method.starts_with("bRepair") || p.method.starts_with("fRepair"));
    }
}

/// `results/README.md`'s regeneration table and the harness binaries stay
/// in sync: every `exp_*` binary under `crates/*/src/bin` has a row, and
/// every row's command names an existing binary of its package.
#[test]
fn results_readme_table_lists_exactly_the_harness_binaries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut binaries = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = krate.expect("crate dir").path();
        let Ok(bins) = std::fs::read_dir(dir.join("src/bin")) else {
            continue;
        };
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("Cargo.toml");
        let package = manifest
            .lines()
            .find_map(|line| line.strip_prefix("name = "))
            .expect("package name")
            .trim_matches('"')
            .to_owned();
        for bin in bins {
            let path = bin.expect("bin file").path();
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .expect("utf-8 name");
            if stem.starts_with("exp_") {
                binaries.insert((package.clone(), stem.to_owned()));
            }
        }
    }

    let readme = std::fs::read_to_string(root.join("results/README.md")).expect("README");
    let mut listed = BTreeSet::new();
    for row in readme.lines().filter(|line| line.starts_with("| `")) {
        let command = row.split('|').nth(2).expect("command cell").trim();
        let words: Vec<&str> = command.trim_matches('`').split_whitespace().collect();
        let arg = |flag: &str| {
            let at = words.iter().position(|w| *w == flag);
            at.and_then(|i| words.get(i + 1))
                .unwrap_or_else(|| panic!("{command} has no {flag}"))
                .to_string()
        };
        listed.insert((arg("-p"), arg("--bin")));
    }
    assert!(!binaries.is_empty(), "found the harness binaries");
    assert_eq!(
        listed, binaries,
        "results/README.md table (left) vs crates/*/src/bin/exp_*.rs (right)"
    );
}
