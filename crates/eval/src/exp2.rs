//! Exp-2 (Figures 6 and 7): comparison with IC-based repairing on Nobel and
//! UIS, varying the error rate (Fig. 6) and the typo share (Fig. 7).
//!
//! Methods: `bRepair(Yago)`, `bRepair(DBpedia)`, `Llunatic`, `constant
//! CFDs` — exactly the four series of the paper's plots.

use crate::metrics::Quality;
use crate::runner::{fds, DrAlgo};
use dr_baselines::mine_constant_cfds;
use dr_core::MatchContext;
use dr_datasets::{KbFlavor, KbProfile, NobelWorld, UisWorld};
use dr_relation::noise::{inject, NoiseSpec, SemanticSource};
use dr_relation::{AttrId, Relation};

/// Which keyed dataset a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepDataset {
    /// The Nobel laureates relation.
    Nobel,
    /// The UIS person/address relation.
    Uis,
}

impl SweepDataset {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            SweepDataset::Nobel => "Nobel",
            SweepDataset::Uis => "UIS",
        }
    }
}

/// Sweep sizes and seeds.
#[derive(Debug, Clone)]
pub struct Exp2Config {
    /// Tuple count for the chosen dataset.
    pub size: usize,
    /// Master seed.
    pub seed: u64,
    /// DR algorithm for the DR series (paper plots `bRepair`).
    pub dr_algo: DrAlgo,
}

impl Default for Exp2Config {
    fn default() -> Self {
        Self {
            size: 1_000,
            seed: 23,
            dr_algo: DrAlgo::Basic,
        }
    }
}

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept x value (error rate for Fig. 6, typo share for Fig. 7).
    pub x: f64,
    /// Method label (`bRepair(Yago)`, `Llunatic`, …).
    pub method: String,
    /// Quality at this point.
    pub quality: Quality,
}

/// Everything fixed about a sweep: worlds, clean relation, KBs, rules.
enum World {
    Nobel(NobelWorld),
    Uis(UisWorld),
}

impl World {
    fn semantic(&self) -> Box<dyn SemanticSource + '_> {
        match self {
            World::Nobel(w) => Box::new(w.semantic_source()),
            World::Uis(w) => Box::new(w.semantic_source()),
        }
    }
}

struct SweepEnv {
    world: World,
    clean: Relation,
    key_attr: AttrId,
    kbs: Vec<(KbFlavor, dr_kb::KnowledgeBase, Vec<dr_core::DetectiveRule>)>,
    fds: Vec<dr_baselines::Fd>,
}

fn build_env(dataset: SweepDataset, cfg: &Exp2Config) -> SweepEnv {
    let (world, clean, fd_list) = match dataset {
        SweepDataset::Nobel => {
            let w = NobelWorld::generate(cfg.size, cfg.seed);
            let clean = w.clean_relation();
            let fd_list = fds::nobel(clean.schema());
            (World::Nobel(w), clean, fd_list)
        }
        SweepDataset::Uis => {
            let w = UisWorld::generate(cfg.size, cfg.seed);
            let clean = w.clean_relation();
            let fd_list = fds::uis(clean.schema());
            (World::Uis(w), clean, fd_list)
        }
    };
    let key_attr = clean.schema().attr_expect("Name");
    let kbs = [KbFlavor::YagoLike, KbFlavor::DbpediaLike]
        .into_iter()
        .map(|flavor| {
            let profile = KbProfile::of(flavor);
            let (kb, rules) = match &world {
                World::Nobel(w) => {
                    let kb = w.kb(&profile);
                    let rules = NobelWorld::rules(&kb);
                    (kb, rules)
                }
                World::Uis(w) => {
                    let kb = w.kb(&profile);
                    let rules = UisWorld::rules(&kb);
                    (kb, rules)
                }
            };
            (flavor, kb, rules)
        })
        .collect();
    SweepEnv {
        world,
        clean,
        key_attr,
        kbs,
        fds: fd_list,
    }
}

/// Rows whose **dirty** key value has a corresponding KB entity — the
/// paper's evaluation restriction ("we mainly evaluated the tuples whose
/// value in key attribute have corresponding entities in KBs").
fn key_mask(kb: &dr_kb::KnowledgeBase, dirty: &Relation, key: AttrId) -> Vec<bool> {
    dirty
        .tuples()
        .iter()
        .map(|t| !kb.instances_labeled(t.get(key)).is_empty())
        .collect()
}

/// Measures all four methods on one `(error_rate, typo_share)` noise point.
///
/// Noise lands on every column including the key; evaluation is restricted
/// per KB to key-covered tuples (see [`key_mask`]). The IC-based baselines
/// use the first (Yago) mask so all series are judged on comparable tuples.
fn measure_point(
    env: &SweepEnv,
    cfg: &Exp2Config,
    x: f64,
    error_rate: f64,
    typo_share: f64,
    out: &mut Vec<SweepPoint>,
) {
    let spec =
        NoiseSpec::new(error_rate, cfg.seed ^ (x * 1000.0) as u64).with_typo_share(typo_share);
    let semantic = env.world.semantic();
    let (dirty, _) = inject(&env.clean, &spec, semantic.as_ref());

    let mut first_mask: Option<Vec<bool>> = None;
    for (flavor, kb, rules) in &env.kbs {
        let ctx = MatchContext::new(kb);
        let mask = key_mask(kb, &dirty, env.key_attr);
        let outcome = run_drs_masked(&ctx, rules, &env.clean, &dirty, cfg.dr_algo, &mask);
        if first_mask.is_none() {
            first_mask = Some(mask);
        }
        out.push(SweepPoint {
            x,
            method: format!("{}({})", cfg.dr_algo.label(), flavor.label()),
            quality: outcome,
        });
    }
    let mask = first_mask.expect("at least one KB");

    let mut working = dirty.clone();
    let changes = dr_baselines::llunatic_repair(
        &mut working,
        &env.fds,
        &dr_baselines::LlunaticConfig::default(),
    );
    let extras = crate::metrics::RepairExtras::from_llunatic(&changes);
    let quality =
        crate::metrics::evaluate_masked(&env.clean, &dirty, &working, &extras, Some(&mask));
    out.push(SweepPoint {
        x,
        method: "Llunatic".to_owned(),
        quality,
    });

    let cfds = mine_constant_cfds(&env.clean, &env.fds);
    let mut working = dirty.clone();
    cfds.apply(&mut working);
    let quality = crate::metrics::evaluate_masked(
        &env.clean,
        &dirty,
        &working,
        &crate::metrics::RepairExtras::default(),
        Some(&mask),
    );
    out.push(SweepPoint {
        x,
        method: "constant CFDs".to_owned(),
        quality,
    });
}

/// Runs the chosen DR algorithm and scores it under `mask`.
fn run_drs_masked(
    ctx: &MatchContext<'_>,
    rules: &[dr_core::DetectiveRule],
    clean: &Relation,
    dirty: &Relation,
    algo: DrAlgo,
    mask: &[bool],
) -> Quality {
    use dr_core::repair::basic::basic_repair;
    let opts = dr_core::ApplyOptions::default();
    let mut working = dirty.clone();
    let report = match algo {
        DrAlgo::Basic => basic_repair(ctx, rules, &mut working, &opts),
        DrAlgo::Fast => dr_core::fast_repair(ctx, rules, &mut working, &opts),
        DrAlgo::Parallel(threads) => dr_core::parallel_repair(
            ctx,
            rules,
            &mut working,
            &dr_core::ParallelOptions {
                threads,
                ..Default::default()
            },
        ),
    };
    let extras = crate::metrics::RepairExtras::from_report(&report);
    crate::metrics::evaluate_masked(clean, dirty, &working, &extras, Some(mask))
}

/// Fig. 6: varies the error rate (paper: 4%–20%) at a fixed 50/50
/// typo/semantic split.
pub fn error_rate_sweep(dataset: SweepDataset, rates: &[f64], cfg: &Exp2Config) -> Vec<SweepPoint> {
    let env = build_env(dataset, cfg);
    let mut out = Vec::new();
    for &rate in rates {
        measure_point(&env, cfg, rate, rate, 0.5, &mut out);
    }
    out
}

/// Fig. 7: varies the typo share (paper: 0%–100%) at a fixed 10% error
/// rate.
pub fn typo_rate_sweep(
    dataset: SweepDataset,
    typo_shares: &[f64],
    cfg: &Exp2Config,
) -> Vec<SweepPoint> {
    let env = build_env(dataset, cfg);
    let mut out = Vec::new();
    for &share in typo_shares {
        measure_point(&env, cfg, share, 0.10, share, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Exp2Config {
        Exp2Config {
            size: 250,
            seed: 23,
            dr_algo: DrAlgo::Fast, // faster in tests; identical quality
        }
    }

    fn series<'a>(points: &'a [SweepPoint], method: &str) -> Vec<&'a SweepPoint> {
        points
            .iter()
            .filter(|p| p.method.contains(method))
            .collect()
    }

    #[test]
    fn fig6_shape_on_nobel() {
        let rates = [0.04, 0.12, 0.20];
        let points = error_rate_sweep(SweepDataset::Nobel, &rates, &small_cfg());
        assert_eq!(points.len(), rates.len() * 4);

        // DRs stay near-perfect precision across rates.
        for p in series(&points, "Yago") {
            assert!(
                p.quality.precision > 0.9,
                "DR precision at {}: {:?}",
                p.x,
                p.quality
            );
        }
        // DRs beat Llunatic on F-measure at every rate.
        for &rate in &rates {
            let dr = points
                .iter()
                .find(|p| p.x == rate && p.method.contains("Yago"))
                .unwrap();
            let llu = points
                .iter()
                .find(|p| p.x == rate && p.method == "Llunatic")
                .unwrap();
            assert!(
                dr.quality.f_measure > llu.quality.f_measure,
                "rate {rate}: DR {:?} vs Llunatic {:?}",
                dr.quality,
                llu.quality
            );
        }
    }

    #[test]
    fn fig7_typo_shape_on_uis() {
        let shares = [0.0, 1.0];
        let points = typo_rate_sweep(SweepDataset::Uis, &shares, &small_cfg());
        assert_eq!(points.len(), 8);
        // DR recall is at least as good with typos as with semantic errors
        // landing on evidence (the paper: "behaved better with typos").
        let dr_at = |share: f64| {
            points
                .iter()
                .find(|p| p.x == share && p.method.contains("Yago"))
                .unwrap()
                .quality
        };
        assert!(
            dr_at(1.0).recall + 0.05 >= dr_at(0.0).recall,
            "typos {:?} vs semantic {:?}",
            dr_at(1.0),
            dr_at(0.0)
        );
    }

    #[test]
    fn ccfd_quality_is_bounded_across_sweep() {
        let shares = [0.0, 0.5, 1.0];
        let points = typo_rate_sweep(SweepDataset::Nobel, &shares, &small_cfg());
        for p in series(&points, "CFD") {
            assert!((0.0..=1.0).contains(&p.quality.precision));
            assert!((0.0..=1.0).contains(&p.quality.recall));
        }
    }
}
