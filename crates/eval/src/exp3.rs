//! Exp-3 (Figure 8): efficiency and scalability.
//!
//! * Fig. 8(a–c) — repair time vs number of rules (`bRepair` vs `fRepair`,
//!   both KBs) on WebTables, Nobel, and UIS;
//! * Fig. 8(d) — repair time vs number of tuples on UIS for all methods
//!   (DR variants, KATARA, Llunatic, constant CFDs).

use crate::runner::{fds, katara_pattern, run_ccfd, run_drs, run_katara, run_llunatic, DrAlgo};
use dr_baselines::mine_constant_cfds;
use dr_core::MatchContext;
use dr_datasets::{KbFlavor, KbProfile, NobelWorld, UisWorld, WebTablesWorld};
use dr_relation::noise::{inject, NoiseSpec};

/// One timing measurement.
#[derive(Debug, Clone)]
pub struct TimingPoint {
    /// Swept x value (#rules or #tuples).
    pub x: usize,
    /// Method label.
    pub method: String,
    /// Wall-clock repair seconds.
    pub seconds: f64,
}

/// Configuration for the efficiency experiments.
#[derive(Debug, Clone)]
pub struct Exp3Config {
    /// Nobel tuple count (paper: 1069).
    pub nobel_size: usize,
    /// UIS tuple count for the rule sweep (paper: 20K).
    pub uis_size: usize,
    /// Error rate (paper: 10%).
    pub error_rate: f64,
    /// Master seed.
    pub seed: u64,
    /// Observability handle (DESIGN.md §4d); `None` keeps the
    /// zero-overhead path.
    pub obs: Option<std::sync::Arc<dr_obs::Obs>>,
}

impl Default for Exp3Config {
    fn default() -> Self {
        Self {
            nobel_size: dr_datasets::nobel::PAPER_SIZE,
            uis_size: 20_000,
            error_rate: 0.10,
            seed: 41,
            obs: None,
        }
    }
}

/// Fig. 8(a): WebTables repair time vs rule count (10–50 by 10), for
/// `bRepair`/`fRepair` × both KBs.
pub fn webtables_rule_sweep(rule_counts: &[usize], cfg: &Exp3Config) -> Vec<TimingPoint> {
    let world = WebTablesWorld::generate(cfg.seed);
    let mut out = Vec::new();
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let kb = world.kb(&KbProfile::of(flavor));
        let ctx = MatchContext::new(&kb).with_obs_opt(cfg.obs.clone());
        let all_rules = world.rules(&kb);
        for &n in rule_counts {
            let rules = &all_rules[..n.min(all_rules.len())];
            for algo in [DrAlgo::Basic, DrAlgo::Fast] {
                let mut seconds = 0.0;
                for table in &world.tables {
                    let table_rules = dr_datasets::WebTablesWorld::applicable_rules(
                        rules,
                        table.dirty.schema().arity(),
                    );
                    let outcome = run_drs(&ctx, &table_rules, &table.clean, &table.dirty, algo);
                    seconds += outcome.seconds;
                }
                out.push(TimingPoint {
                    x: n,
                    method: format!("{}({})", algo.label(), flavor.label()),
                    seconds,
                });
            }
        }
    }
    out
}

/// Fig. 8(b)/(c): Nobel or UIS repair time vs rule count (1–5).
pub fn keyed_rule_sweep(
    dataset: super::exp2::SweepDataset,
    rule_counts: &[usize],
    cfg: &Exp3Config,
) -> Vec<TimingPoint> {
    use super::exp2::SweepDataset;
    let mut out = Vec::new();
    match dataset {
        SweepDataset::Nobel => {
            let world = NobelWorld::generate(cfg.nobel_size, cfg.seed);
            let clean = world.clean_relation();
            let name = clean.schema().attr_expect("Name");
            let (dirty, _) = inject(
                &clean,
                &NoiseSpec::new(cfg.error_rate, cfg.seed).with_excluded(vec![name]),
                &world.semantic_source(),
            );
            for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
                let kb = world.kb(&KbProfile::of(flavor));
                let ctx = MatchContext::new(&kb).with_obs_opt(cfg.obs.clone());
                let all_rules = NobelWorld::rules(&kb);
                sweep_rules(
                    &ctx,
                    &all_rules,
                    rule_counts,
                    flavor,
                    &clean,
                    &dirty,
                    &mut out,
                );
            }
        }
        SweepDataset::Uis => {
            let world = UisWorld::generate(cfg.uis_size, cfg.seed);
            let clean = world.clean_relation();
            let name = clean.schema().attr_expect("Name");
            let (dirty, _) = inject(
                &clean,
                &NoiseSpec::new(cfg.error_rate, cfg.seed).with_excluded(vec![name]),
                &world.semantic_source(),
            );
            for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
                let kb = world.kb(&KbProfile::of(flavor));
                let ctx = MatchContext::new(&kb).with_obs_opt(cfg.obs.clone());
                let all_rules = UisWorld::rules(&kb);
                sweep_rules(
                    &ctx,
                    &all_rules,
                    rule_counts,
                    flavor,
                    &clean,
                    &dirty,
                    &mut out,
                );
            }
        }
    }
    out
}

fn sweep_rules(
    ctx: &MatchContext<'_>,
    all_rules: &[dr_core::DetectiveRule],
    rule_counts: &[usize],
    flavor: KbFlavor,
    clean: &dr_relation::Relation,
    dirty: &dr_relation::Relation,
    out: &mut Vec<TimingPoint>,
) {
    for &n in rule_counts {
        let rules = &all_rules[..n.min(all_rules.len())];
        for algo in [DrAlgo::Basic, DrAlgo::Fast] {
            let outcome = run_drs(ctx, rules, clean, dirty, algo);
            out.push(TimingPoint {
                x: n,
                method: format!("{}({})", algo.label(), flavor.label()),
                seconds: outcome.seconds,
            });
        }
    }
}

/// Fig. 8(d): UIS repair time vs tuple count (paper: 20K–100K), for all
/// methods. KB build time **is** included for the DR/KATARA series, as in
/// the paper ("the time of reading and handling KBs was included").
pub fn uis_tuple_sweep(sizes: &[usize], cfg: &Exp3Config) -> Vec<TimingPoint> {
    let mut out = Vec::new();
    for &size in sizes {
        let world = UisWorld::generate(size, cfg.seed);
        let clean = world.clean_relation();
        let name = clean.schema().attr_expect("Name");
        let (dirty, _) = inject(
            &clean,
            &NoiseSpec::new(cfg.error_rate, cfg.seed).with_excluded(vec![name]),
            &world.semantic_source(),
        );

        for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
            let setup = std::time::Instant::now();
            let kb = world.kb(&KbProfile::of(flavor));
            let ctx = MatchContext::new(&kb).with_obs_opt(cfg.obs.clone());
            let rules = UisWorld::rules(&kb);
            let kb_seconds = setup.elapsed().as_secs_f64();

            for algo in [DrAlgo::Basic, DrAlgo::Fast] {
                let outcome = run_drs(&ctx, &rules, &clean, &dirty, algo);
                out.push(TimingPoint {
                    x: size,
                    method: format!("{}({})", algo.label(), flavor.label()),
                    seconds: kb_seconds + outcome.seconds,
                });
            }
            // KATARA only on Yago/DBpedia like the paper's plot.
            let pattern = katara_pattern(&rules);
            let outcome = run_katara(&ctx, &pattern, &clean, &dirty);
            out.push(TimingPoint {
                x: size,
                method: format!("KATARA({})", flavor.label()),
                seconds: kb_seconds + outcome.seconds,
            });
        }

        let fd_list = fds::uis(clean.schema());
        let outcome = run_llunatic(&fd_list, &clean, &dirty);
        out.push(TimingPoint {
            x: size,
            method: "Llunatic".to_owned(),
            seconds: outcome.seconds,
        });
        let cfds = mine_constant_cfds(&clean, &fd_list);
        let outcome = run_ccfd(&cfds, &clean, &dirty);
        out.push(TimingPoint {
            x: size,
            method: "constant CFDs".to_owned(),
            seconds: outcome.seconds,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp2::SweepDataset;

    fn tiny_cfg() -> Exp3Config {
        Exp3Config {
            nobel_size: 200,
            uis_size: 300,
            error_rate: 0.10,
            seed: 41,
            obs: None,
        }
    }

    #[test]
    fn webtables_sweep_produces_all_series() {
        let points = webtables_rule_sweep(&[10, 50], &tiny_cfg());
        // 2 rule counts × 2 algos × 2 KBs.
        assert_eq!(points.len(), 8);
        let methods: dr_kb::FxHashSet<&str> = points.iter().map(|p| p.method.as_str()).collect();
        assert_eq!(methods.len(), 4);
    }

    /// fRepair must not be slower than bRepair by more than noise at the
    /// largest rule count (the headline Exp-3 claim, stated conservatively
    /// for a tiny test workload).
    #[test]
    fn fast_wins_with_many_rules_on_uis() {
        let points = keyed_rule_sweep(SweepDataset::Uis, &[5], &tiny_cfg());
        let basic = points
            .iter()
            .find(|p| p.method == "bRepair(Yago)")
            .unwrap()
            .seconds;
        let fast = points
            .iter()
            .find(|p| p.method == "fRepair(Yago)")
            .unwrap()
            .seconds;
        assert!(
            fast <= basic * 1.5,
            "fRepair ({fast:.4}s) should not lose badly to bRepair ({basic:.4}s)"
        );
    }

    #[test]
    fn tuple_sweep_covers_all_methods() {
        let points = uis_tuple_sweep(&[200], &tiny_cfg());
        // 4 DR series + 2 KATARA + Llunatic + CFDs = 8 methods.
        assert_eq!(points.len(), 8);
        let ccfd = points.iter().find(|p| p.method == "constant CFDs").unwrap();
        let dr = points.iter().find(|p| p.method == "bRepair(Yago)").unwrap();
        assert!(
            ccfd.seconds < dr.seconds,
            "constant CFDs are the fastest method"
        );
    }
}
