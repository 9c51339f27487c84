//! Exp-1 (Table III): data annotation and repair accuracy of detective
//! rules vs KATARA on all three datasets × both KBs, plus the Table II
//! alignment statistics.

use crate::metrics::{evaluate, Quality, RepairExtras};
use crate::runner::{katara_pattern, run_drs, run_katara, DrAlgo, RunOutcome};
use dr_baselines::katara::Katara;
use dr_core::graph::schema::{NodeType, SchemaGraph, SchemaNode};
use dr_core::MatchContext;
use dr_datasets::{
    alignment, AlignmentStats, KbFlavor, KbProfile, NobelWorld, UisWorld, WebTablesWorld,
};
use dr_relation::noise::{inject, NoiseSpec};
use dr_relation::Relation;
use dr_simmatch::SimFn;

/// Dataset sizes and noise knobs for Exp-1.
#[derive(Debug, Clone)]
pub struct Exp1Config {
    /// Nobel tuple count (paper: 1069).
    pub nobel_size: usize,
    /// UIS tuple count (paper: 100K for Table III's #-POS column).
    pub uis_size: usize,
    /// Injected error rate for Nobel/UIS (paper: 10%).
    pub error_rate: f64,
    /// Master seed.
    pub seed: u64,
    /// Directory for cross-process value-cache snapshots (DESIGN.md §4a).
    /// When set, every DR registry seeds from and persists to it, so a
    /// second run of the same experiment warm-starts from disk. `None`
    /// keeps the caches purely in-memory.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Observability handle (DESIGN.md §4d): when set, every DR
    /// `MatchContext` records into its metric registry and, with a JSONL
    /// sink attached, renders each relation's sampled spans into it.
    /// `None` keeps the zero-overhead path.
    pub obs: Option<std::sync::Arc<dr_obs::Obs>>,
}

impl Default for Exp1Config {
    fn default() -> Self {
        Self {
            nobel_size: dr_datasets::nobel::PAPER_SIZE,
            uis_size: 20_000,
            error_rate: 0.10,
            seed: 17,
            cache_dir: None,
            obs: None,
        }
    }
}

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct Exp1Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Method ("DRs" or "KATARA").
    pub method: &'static str,
    /// KB flavor.
    pub kb: KbFlavor,
    /// Quality metrics.
    pub quality: Quality,
    /// #-POS: cells marked positive.
    pub pos: usize,
    /// Repair seconds (extra diagnostic).
    pub seconds: f64,
    /// Degraded / failed / quarantined counters (all-zero for KATARA and
    /// for fault-free unbounded runs).
    pub resilience: dr_core::ResilienceReport,
    /// Disk-snapshot counters for the row's registry (all-zero for KATARA
    /// and when [`Exp1Config::cache_dir`] is unset).
    pub snapshot: dr_core::SnapshotStats,
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// KB flavor.
    pub kb: KbFlavor,
    /// Aligned classes/relationships.
    pub stats: AlignmentStats,
}

/// Computes Table II: aligned classes and relationships per dataset × KB.
pub fn table2(cfg: &Exp1Config) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    let webtables = WebTablesWorld::generate(cfg.seed);
    let nobel = NobelWorld::generate(cfg.nobel_size, cfg.seed);
    let uis = UisWorld::generate(cfg.uis_size.min(5_000), cfg.seed);
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let profile = KbProfile::of(flavor);

        // Alignment is counted on the datasets as evaluated (dirty), so the
        // negative relationships behind the errors are observed too.
        let wt_kb = webtables.kb(&profile);
        let samples: Vec<&Relation> = webtables.tables.iter().map(|t| &t.dirty).collect();
        rows.push(Table2Row {
            dataset: "WebTables",
            kb: flavor,
            stats: dr_datasets::alignment::alignment_many(&wt_kb, &samples, 100),
        });

        let nobel_clean = nobel.clean_relation();
        let nobel_name = nobel_clean.schema().attr_expect("Name");
        let (nobel_dirty, _) = inject(
            &nobel_clean,
            &NoiseSpec::new(cfg.error_rate, cfg.seed ^ 1).with_excluded(vec![nobel_name]),
            &nobel.semantic_source(),
        );
        let nobel_kb = nobel.kb(&profile);
        rows.push(Table2Row {
            dataset: "Nobel",
            kb: flavor,
            stats: alignment(&nobel_kb, &nobel_dirty, 500),
        });

        let uis_clean = uis.clean_relation();
        let uis_name = uis_clean.schema().attr_expect("Name");
        let (uis_dirty, _) = inject(
            &uis_clean,
            &NoiseSpec::new(cfg.error_rate, cfg.seed ^ 2).with_excluded(vec![uis_name]),
            &uis.semantic_source(),
        );
        let uis_kb = uis.kb(&profile);
        rows.push(Table2Row {
            dataset: "UIS",
            kb: flavor,
            stats: alignment(&uis_kb, &uis_dirty, 500),
        });
    }
    rows
}

/// KATARA table patterns for the WebTables corpus: one per domain, built
/// directly from the domain's classes and positive relationship.
fn webtables_katara_patterns(
    world: &WebTablesWorld,
    kb: &dr_kb::KnowledgeBase,
) -> Vec<Option<SchemaGraph>> {
    let schema = WebTablesWorld::schema();
    let entity_col = schema.attr_expect("Entity");
    let value_col = schema.attr_expect("Value");
    world
        .domains
        .iter()
        .map(|domain| {
            let kc = kb.class_named(&domain.key_class)?;
            let vc = kb.class_named(&domain.value_class)?;
            let pos = kb.pred_named(&domain.pos_rel)?;
            let mut g = SchemaGraph::new();
            let key = g.add_node(SchemaNode::new(
                entity_col,
                NodeType::Class(kc),
                SimFn::Equal,
            ));
            let value = g.add_node(SchemaNode::new(
                value_col,
                NodeType::Class(vc),
                SimFn::Equal,
            ));
            g.add_edge(key, value, pos);
            if let Some(sc) = &domain.second {
                let value2_col = WebTablesWorld::schema3().attr_expect("Value2");
                let c2 = kb.class_named(&sc.class)?;
                let pos2 = kb.pred_named(&sc.pos_rel)?;
                let value2 = g.add_node(SchemaNode::new(
                    value2_col,
                    NodeType::Class(c2),
                    SimFn::Equal,
                ));
                g.add_edge(key, value2, pos2);
            }
            Some(g)
        })
        .collect()
}

/// Runs Exp-1 on the WebTables corpus for one KB flavor. Quality counters
/// are aggregated across the 37 tables. The DR runs share one
/// [`CacheRegistry`](dr_core::CacheRegistry), so same-schema tables
/// warm-start from their predecessors' value caches.
fn webtables_rows(cfg: &Exp1Config, flavor: KbFlavor, rows: &mut Vec<Exp1Row>) {
    let world = WebTablesWorld::generate(cfg.seed);
    let profile = KbProfile::of(flavor);
    let kb = world.kb(&profile);
    let mut registry_cfg = dr_core::RegistryConfig::default();
    if let Some(dir) = &cfg.cache_dir {
        registry_cfg = registry_cfg.with_cache_dir(dir);
    }
    let registry = std::sync::Arc::new(dr_core::CacheRegistry::new(registry_cfg));
    let ctx = MatchContext::with_registry(&kb, std::sync::Arc::clone(&registry))
        .with_obs_opt(cfg.obs.clone());
    let rules = world.rules(&kb);
    let katara_patterns = webtables_katara_patterns(&world, &kb);

    let mut dr_totals = (0usize, 0f64, 0usize, 0usize, 0f64); // repaired, correct, errors, pos, secs
    let mut ka_totals = (0usize, 0f64, 0usize, 0usize, 0f64);
    let mut dr_resilience = dr_core::ResilienceReport::default();
    for table in &world.tables {
        let table_rules = WebTablesWorld::applicable_rules(&rules, table.dirty.schema().arity());
        let outcome = run_drs(&ctx, &table_rules, &table.clean, &table.dirty, DrAlgo::Fast);
        dr_totals.0 += outcome.quality.repaired;
        dr_totals.1 += outcome.quality.correct;
        dr_totals.2 += outcome.quality.errors;
        dr_totals.3 += outcome.pos_marks;
        dr_totals.4 += outcome.seconds;
        dr_resilience += outcome.resilience;

        if let Some(pattern) = &katara_patterns[table.domain] {
            let katara = Katara::new(&ctx, pattern);
            let mut working = table.dirty.clone();
            let start = std::time::Instant::now();
            let report = katara.clean(&mut working);
            ka_totals.4 += start.elapsed().as_secs_f64();
            let q = evaluate(
                &table.clean,
                &table.dirty,
                &working,
                &RepairExtras::default(),
            );
            ka_totals.0 += q.repaired;
            ka_totals.1 += q.correct;
            ka_totals.2 += q.errors;
            ka_totals.3 += report.marked_positive;
        }
    }
    if cfg.cache_dir.is_some() {
        registry.persist();
    }
    rows.push(Exp1Row {
        dataset: "WebTables",
        method: "DRs",
        kb: flavor,
        quality: quality_from_totals(dr_totals),
        pos: dr_totals.3,
        seconds: dr_totals.4,
        resilience: dr_resilience,
        snapshot: registry.stats().snapshot,
    });
    rows.push(Exp1Row {
        dataset: "WebTables",
        method: "KATARA",
        kb: flavor,
        quality: quality_from_totals(ka_totals),
        pos: ka_totals.3,
        seconds: ka_totals.4,
        resilience: dr_core::ResilienceReport::default(),
        snapshot: dr_core::SnapshotStats::default(),
    });
}

fn quality_from_totals(t: (usize, f64, usize, usize, f64)) -> Quality {
    let (repaired, correct, errors, _, _) = t;
    let precision = if repaired == 0 {
        1.0
    } else {
        correct / repaired as f64
    };
    let recall = if errors == 0 {
        1.0
    } else {
        correct / errors as f64
    };
    let f_measure = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    Quality {
        precision,
        recall,
        f_measure,
        repaired,
        correct,
        errors,
    }
}

/// Runs Exp-1 on a keyed dataset (Nobel or UIS). With a `cache_dir`, the
/// DR run goes through a snapshot-persisting registry: it seeds from any
/// snapshot a previous process left behind and writes its own back.
#[allow(clippy::too_many_arguments)]
fn keyed_rows(
    dataset: &'static str,
    clean: &Relation,
    dirty: &Relation,
    kb: &dr_kb::KnowledgeBase,
    rules: &[dr_core::DetectiveRule],
    flavor: KbFlavor,
    cache_dir: Option<&std::path::Path>,
    obs: Option<std::sync::Arc<dr_obs::Obs>>,
    rows: &mut Vec<Exp1Row>,
) {
    let registry = cache_dir.map(|dir| {
        std::sync::Arc::new(dr_core::CacheRegistry::new(
            dr_core::RegistryConfig::default().with_cache_dir(dir),
        ))
    });
    let ctx = match &registry {
        Some(reg) => MatchContext::with_registry(kb, std::sync::Arc::clone(reg)),
        None => MatchContext::new(kb),
    }
    .with_obs_opt(obs);
    let outcome = run_drs(&ctx, rules, clean, dirty, DrAlgo::Fast);
    let snapshot = registry
        .as_ref()
        .map(|reg| {
            reg.persist();
            reg.stats().snapshot
        })
        .unwrap_or_default();
    rows.push(Exp1Row {
        dataset,
        method: "DRs",
        kb: flavor,
        quality: outcome.quality,
        pos: outcome.pos_marks,
        seconds: outcome.seconds,
        resilience: outcome.resilience,
        snapshot,
    });
    let pattern = katara_pattern(rules);
    let outcome: RunOutcome = run_katara(&ctx, &pattern, clean, dirty);
    rows.push(Exp1Row {
        dataset,
        method: "KATARA",
        kb: flavor,
        quality: outcome.quality,
        pos: outcome.pos_marks,
        seconds: outcome.seconds,
        resilience: outcome.resilience,
        snapshot: dr_core::SnapshotStats::default(),
    });
}

/// Runs Exp-1 / Table III: all datasets × {DRs, KATARA} × {Yago, DBpedia}.
pub fn table3(cfg: &Exp1Config) -> Vec<Exp1Row> {
    let mut rows = Vec::new();

    let nobel = NobelWorld::generate(cfg.nobel_size, cfg.seed);
    let nobel_clean = nobel.clean_relation();
    let nobel_name = nobel_clean.schema().attr_expect("Name");
    let (nobel_dirty, _) = inject(
        &nobel_clean,
        &NoiseSpec::new(cfg.error_rate, cfg.seed ^ 1).with_excluded(vec![nobel_name]),
        &nobel.semantic_source(),
    );

    let uis = UisWorld::generate(cfg.uis_size, cfg.seed);
    let uis_clean = uis.clean_relation();
    let uis_name = uis_clean.schema().attr_expect("Name");
    let (uis_dirty, _) = inject(
        &uis_clean,
        &NoiseSpec::new(cfg.error_rate, cfg.seed ^ 2).with_excluded(vec![uis_name]),
        &uis.semantic_source(),
    );

    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let profile = KbProfile::of(flavor);
        webtables_rows(cfg, flavor, &mut rows);

        let nobel_kb = nobel.kb(&profile);
        let nobel_rules = NobelWorld::rules(&nobel_kb);
        keyed_rows(
            "Nobel",
            &nobel_clean,
            &nobel_dirty,
            &nobel_kb,
            &nobel_rules,
            flavor,
            cfg.cache_dir.as_deref(),
            cfg.obs.clone(),
            &mut rows,
        );

        let uis_kb = uis.kb(&profile);
        let uis_rules = UisWorld::rules(&uis_kb);
        keyed_rows(
            "UIS",
            &uis_clean,
            &uis_dirty,
            &uis_kb,
            &uis_rules,
            flavor,
            cfg.cache_dir.as_deref(),
            cfg.obs.clone(),
            &mut rows,
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Exp1Config {
        Exp1Config {
            nobel_size: 150,
            uis_size: 200,
            error_rate: 0.10,
            seed: 17,
            cache_dir: None,
            obs: None,
        }
    }

    #[test]
    fn table2_has_six_rows_with_nonzero_alignment() {
        let rows = table2(&small_cfg());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.stats.classes > 0, "{row:?}");
            assert!(row.stats.relationships > 0, "{row:?}");
        }
        // WebTables aligns far more classes than the keyed datasets.
        let wt = rows.iter().find(|r| r.dataset == "WebTables").unwrap();
        let nobel = rows.iter().find(|r| r.dataset == "Nobel").unwrap();
        assert!(wt.stats.classes > nobel.stats.classes);
    }

    /// Two "processes" (two full `table3` runs) sharing a cache directory:
    /// the first run cold-starts and persists snapshots, the second seeds
    /// its registries from disk — with identical quality either way.
    #[test]
    fn table3_second_run_warm_starts_from_shared_cache_dir() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dr-exp1-snap-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create cache dir");
        let cfg = Exp1Config {
            nobel_size: 60,
            uis_size: 80,
            cache_dir: Some(dir.clone()),
            ..small_cfg()
        };

        let first = table3(&cfg);
        let second = table3(&cfg);
        assert_eq!(first.len(), second.len());

        let dr_rows = |rows: &[Exp1Row]| -> Vec<Exp1Row> {
            rows.iter().filter(|r| r.method == "DRs").cloned().collect()
        };
        let (first_dr, second_dr) = (dr_rows(&first), dr_rows(&second));
        for row in &first_dr {
            assert_eq!(
                row.snapshot.warm_loads, 0,
                "{}: first run is cold",
                row.dataset
            );
            assert!(
                row.snapshot.saves >= 1,
                "{}: first run persisted",
                row.dataset
            );
        }
        let warm: u64 = second_dr.iter().map(|r| r.snapshot.warm_loads).sum();
        assert!(warm > 0, "second run seeded from disk: {second_dr:?}");
        let rejected: u64 = second_dr.iter().map(|r| r.snapshot.rejected).sum();
        assert_eq!(rejected, 0, "healthy snapshots are never rejected");

        // Warm-starting is invisible in the reported quality.
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.quality.repaired, b.quality.repaired, "{}", a.dataset);
            assert_eq!(a.quality.correct, b.quality.correct, "{}", a.dataset);
            assert_eq!(a.pos, b.pos, "{}", a.dataset);
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The headline Table III shape: DR precision 1.0 (or near), DR #-POS
    /// far above KATARA's, and KATARA precision below DRs'.
    #[test]
    fn table3_shape_holds_on_small_scale() {
        let rows = table3(&small_cfg());
        assert_eq!(rows.len(), 12);
        for dataset in ["Nobel", "UIS"] {
            for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
                let dr = rows
                    .iter()
                    .find(|r| r.dataset == dataset && r.method == "DRs" && r.kb == flavor)
                    .unwrap();
                let ka = rows
                    .iter()
                    .find(|r| r.dataset == dataset && r.method == "KATARA" && r.kb == flavor)
                    .unwrap();
                assert!(
                    dr.quality.precision > 0.95,
                    "{dataset}/{flavor:?} DR precision {:?}",
                    dr.quality
                );
                assert!(
                    dr.quality.precision >= ka.quality.precision,
                    "{dataset}/{flavor:?}: DR ({}) vs KATARA ({})",
                    dr.quality.precision,
                    ka.quality.precision
                );
                assert!(
                    dr.pos > ka.pos,
                    "{dataset}/{flavor:?}: DR #-POS {} vs KATARA {}",
                    dr.pos,
                    ka.pos
                );
            }
        }
    }
}
