//! KB-coverage sweep (reproduction-specific experiment).
//!
//! The paper's Yago-vs-DBpedia quality gap is attributed to coverage; our
//! synthetic KBs make coverage an explicit knob. Sweeping it validates the
//! substitution argument of DESIGN.md §2: DR recall should track entity
//! coverage roughly linearly while precision stays at 1.0, and the default
//! Yago (0.95) / DBpedia (0.75) profiles should land on the same curve.

use crate::metrics::{evaluate, Quality, RepairExtras};
use dr_core::{fast_repair, ApplyOptions, MatchContext};
use dr_datasets::{KbProfile, NobelWorld};
use dr_relation::noise::{inject, NoiseSpec};

/// One coverage measurement.
#[derive(Debug, Clone)]
pub struct CoveragePoint {
    /// Entity coverage of the KB (fraction of persons with a full
    /// neighbourhood).
    pub coverage: f64,
    /// Repair quality at this coverage.
    pub quality: Quality,
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct CoverageConfig {
    /// Nobel tuple count.
    pub size: usize,
    /// Error rate.
    pub error_rate: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        Self {
            size: 1_000,
            error_rate: 0.10,
            seed: 53,
        }
    }
}

/// Measures DR quality on the Nobel workload across KB entity coverages.
pub fn coverage_sweep(coverages: &[f64], cfg: &CoverageConfig) -> Vec<CoveragePoint> {
    let world = NobelWorld::generate(cfg.size, cfg.seed);
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let (dirty, _) = inject(
        &clean,
        &NoiseSpec::new(cfg.error_rate, cfg.seed).with_excluded(vec![name]),
        &world.semantic_source(),
    );
    coverages
        .iter()
        .map(|&coverage| {
            let mut profile = KbProfile::yago();
            profile.entity_coverage = coverage;
            let kb = world.kb(&profile);
            let rules = NobelWorld::rules(&kb);
            let ctx = MatchContext::new(&kb);
            let mut working = dirty.clone();
            let report = fast_repair(&ctx, &rules, &mut working, &ApplyOptions::default());
            let extras = RepairExtras::from_report(&report);
            CoveragePoint {
                coverage,
                quality: evaluate(&clean, &dirty, &working, &extras),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_tracks_coverage_and_precision_holds() {
        let cfg = CoverageConfig {
            size: 300,
            ..Default::default()
        };
        let points = coverage_sweep(&[0.4, 0.7, 1.0], &cfg);
        assert_eq!(points.len(), 3);
        // Monotone recall in coverage.
        assert!(
            points[0].quality.recall < points[1].quality.recall,
            "{points:?}"
        );
        assert!(
            points[1].quality.recall < points[2].quality.recall,
            "{points:?}"
        );
        // Precision independent of coverage.
        for p in &points {
            assert!(p.quality.precision > 0.97, "{:?}", p.quality);
        }
        // Full coverage repairs nearly everything that isn't an evidence
        // error. Noise spreads uniformly over the five non-Name columns
        // and DOB errors are structurally unrepairable (DOB is evidence
        // only — no rule has it as positive column), so expected recall
        // caps at ~0.8; multi-error tuples whose evidence is itself dirty
        // shave off a little more. Demand ~90% of the repairable share.
        assert!(points[2].quality.recall > 0.72, "{:?}", points[2].quality);
    }
}
