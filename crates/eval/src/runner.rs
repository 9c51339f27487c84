//! Shared experiment plumbing: running each cleaning system on a prepared
//! `(clean, dirty)` pair and scoring it.

use crate::metrics::{evaluate, Quality, RepairExtras};
use dr_baselines::ccfd::ConstantCfdSet;
use dr_baselines::katara::Katara;
use dr_baselines::llunatic::{llunatic_repair, LlunaticConfig};
use dr_baselines::Fd;
use dr_core::graph::schema::{SchemaGraph, SchemaNode};
use dr_core::repair::basic::basic_repair;
use dr_core::{
    fast_repair, parallel_repair, ApplyOptions, DetectiveRule, MatchContext, ParallelOptions,
};
use dr_relation::{Relation, Tuple};
use dr_simmatch::SimFn;
use std::sync::Arc;
use std::time::Instant;

/// Which detective-rule algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrAlgo {
    /// Algorithm 1 (the basic chase).
    Basic,
    /// Algorithm 2 (rule ordering + shared element cache).
    Fast,
    /// Algorithm 2 fanned out over the work-stealing scheduler with the
    /// given worker count (0 = one per core).
    Parallel(usize),
}

impl DrAlgo {
    /// Method label used in result rows.
    pub fn label(self) -> &'static str {
        match self {
            DrAlgo::Basic => "bRepair",
            DrAlgo::Fast => "fRepair",
            DrAlgo::Parallel(_) => "pRepair",
        }
    }
}

/// Outcome of one system run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Quality against the ground truth.
    pub quality: Quality,
    /// Wall-clock seconds of the repair itself (excludes setup).
    pub seconds: f64,
    /// Cells marked positive (`#-POS`), where the system supports marking.
    pub pos_marks: usize,
    /// Degraded / failed / quarantined counters (all-zero for baselines
    /// and for unbounded, fault-free runs — the overwhelmingly common case;
    /// a non-clean report means tuples were skipped, so quality numbers
    /// must be read alongside it).
    pub resilience: dr_core::ResilienceReport,
    /// Disk-snapshot activity attributable to this run (all-zero unless
    /// the context carries a registry configured with a cache directory).
    pub snapshot: dr_core::SnapshotStats,
}

impl RunOutcome {
    /// The outcome of a baseline system: no resilience or snapshot activity.
    fn baseline(quality: Quality, seconds: f64, pos_marks: usize) -> Self {
        Self {
            quality,
            seconds,
            pos_marks,
            resilience: dr_core::ResilienceReport::default(),
            snapshot: dr_core::SnapshotStats::default(),
        }
    }
}

/// A copy of `dirty` that shares no row with it. Cloning a relation only
/// shares its rows, and a repair would then copy each row it writes inside
/// the timed window; copying them all up front charges every system the
/// same untimed copy.
fn working_copy(dirty: &Relation) -> Relation {
    let rows: Vec<Tuple> = dirty.tuples().iter().map(|t| Tuple::clone(t)).collect();
    Relation::from_tuples(Arc::clone(dirty.schema()), rows)
}

/// Runs detective rules over a copy of `dirty` and scores the result. A
/// registry-carrying `ctx` (see [`MatchContext::with_registry`]) makes the
/// `Fast`/`Parallel` algorithms warm-start from earlier same-schema runs.
pub fn run_drs(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    clean: &Relation,
    dirty: &Relation,
    algo: DrAlgo,
) -> RunOutcome {
    let opts = ApplyOptions::default();
    let mut working = working_copy(dirty);
    let snap_before = ctx.registry().map(|r| r.stats().snapshot);
    let start = Instant::now();
    let report = match algo {
        DrAlgo::Basic => basic_repair(ctx, rules, &mut working, &opts),
        DrAlgo::Fast => fast_repair(ctx, rules, &mut working, &opts),
        DrAlgo::Parallel(threads) => parallel_repair(
            ctx,
            rules,
            &mut working,
            &ParallelOptions {
                threads,
                ..Default::default()
            },
        ),
    };
    let seconds = start.elapsed().as_secs_f64();
    let extras = RepairExtras::from_report(&report);
    let quality = evaluate(clean, dirty, &working, &extras);
    RunOutcome {
        quality,
        seconds,
        pos_marks: working.positive_count(),
        resilience: report.resilience,
        snapshot: match (snap_before, ctx.registry()) {
            (Some(before), Some(r)) => r.stats().snapshot.delta_since(&before),
            _ => dr_core::SnapshotStats::default(),
        },
    }
}

/// Builds a KATARA table pattern from a rule set: the union of the rules'
/// positive graphs with **exact** matching (KATARA has no fuzzy matching).
pub fn katara_pattern(rules: &[DetectiveRule]) -> SchemaGraph {
    let mut graph = SchemaGraph::new();
    let mut index_of = dr_kb::FxHashMap::default();
    let mut node_for = |graph: &mut SchemaGraph, n: &SchemaNode| -> usize {
        *index_of
            .entry(n.col)
            .or_insert_with(|| graph.add_node(SchemaNode::new(n.col, n.ty, SimFn::Equal)))
    };
    let mut seen_edges = dr_kb::FxHashSet::default();
    for rule in rules {
        let positive = rule.positive_graph();
        for e in positive.edges() {
            let from_node = positive.nodes()[e.from];
            let to_node = positive.nodes()[e.to];
            let from = node_for(&mut graph, &from_node);
            let to = node_for(&mut graph, &to_node);
            if seen_edges.insert((from, to, e.rel)) {
                graph.add_edge(from, to, e.rel);
            }
        }
    }
    graph
}

/// Runs the KATARA simulation over a copy of `dirty` and scores it.
pub fn run_katara(
    ctx: &MatchContext<'_>,
    pattern: &SchemaGraph,
    clean: &Relation,
    dirty: &Relation,
) -> RunOutcome {
    let katara = Katara::new(ctx, pattern);
    let mut working = working_copy(dirty);
    let start = Instant::now();
    let report = katara.clean(&mut working);
    let seconds = start.elapsed().as_secs_f64();
    let quality = evaluate(clean, dirty, &working, &RepairExtras::default());
    RunOutcome::baseline(quality, seconds, report.marked_positive)
}

/// Runs the Llunatic-style FD repair over a copy of `dirty` and scores it.
pub fn run_llunatic(fds: &[Fd], clean: &Relation, dirty: &Relation) -> RunOutcome {
    let mut working = working_copy(dirty);
    let start = Instant::now();
    let changes = llunatic_repair(&mut working, fds, &LlunaticConfig::default());
    let seconds = start.elapsed().as_secs_f64();
    let extras = RepairExtras::from_llunatic(&changes);
    let quality = evaluate(clean, dirty, &working, &extras);
    RunOutcome::baseline(quality, seconds, 0)
}

/// Runs mined constant CFDs over a copy of `dirty` and scores it.
pub fn run_ccfd(cfds: &ConstantCfdSet, clean: &Relation, dirty: &Relation) -> RunOutcome {
    let mut working = working_copy(dirty);
    let start = Instant::now();
    cfds.apply(&mut working);
    let seconds = start.elapsed().as_secs_f64();
    let quality = evaluate(clean, dirty, &working, &RepairExtras::default());
    RunOutcome::baseline(quality, seconds, 0)
}

/// The FDs used by the IC-based baselines per dataset (only dependencies
/// with actual redundancy in the data are useful to them).
pub mod fds {
    use super::Fd;
    use dr_relation::Schema;

    /// Nobel: Institution → City, City → Country.
    pub fn nobel(schema: &Schema) -> Vec<Fd> {
        vec![
            Fd::new(schema, &["Institution"], "City"),
            Fd::new(schema, &["City"], "Country"),
        ]
    }

    /// UIS: City → State, City → Zip, Zip → City, Zip → State.
    pub fn uis(schema: &Schema) -> Vec<Fd> {
        vec![
            Fd::new(schema, &["City"], "State"),
            Fd::new(schema, &["City"], "Zip"),
            Fd::new(schema, &["Zip"], "City"),
            Fd::new(schema, &["Zip"], "State"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_baselines::mine_constant_cfds;
    use dr_datasets::{KbProfile, NobelWorld};
    use dr_relation::noise::{inject, NoiseSpec};

    #[test]
    fn dr_run_produces_sane_quality() {
        let w = NobelWorld::generate(80, 3);
        let kb = w.kb(&KbProfile::yago());
        let rules = NobelWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);
        let clean = w.clean_relation();
        let name = clean.schema().attr_expect("Name");
        let (dirty, _) = inject(
            &clean,
            &NoiseSpec::new(0.1, 2).with_excluded(vec![name]),
            &w.semantic_source(),
        );
        for algo in [DrAlgo::Basic, DrAlgo::Fast, DrAlgo::Parallel(4)] {
            let outcome = run_drs(&ctx, &rules, &clean, &dirty, algo);
            assert!(
                outcome.quality.precision > 0.9,
                "{algo:?}: {:?}",
                outcome.quality
            );
            assert!(
                outcome.quality.recall > 0.4,
                "{algo:?}: {:?}",
                outcome.quality
            );
            assert!(outcome.pos_marks > 0);
        }
    }

    #[test]
    fn basic_and_fast_agree_on_quality() {
        let w = NobelWorld::generate(60, 9);
        let kb = w.kb(&KbProfile::yago());
        let rules = NobelWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);
        let clean = w.clean_relation();
        let name = clean.schema().attr_expect("Name");
        let (dirty, _) = inject(
            &clean,
            &NoiseSpec::new(0.12, 8).with_excluded(vec![name]),
            &w.semantic_source(),
        );
        let a = run_drs(&ctx, &rules, &clean, &dirty, DrAlgo::Basic);
        let b = run_drs(&ctx, &rules, &clean, &dirty, DrAlgo::Fast);
        assert_eq!(a.quality.repaired, b.quality.repaired);
        assert_eq!(a.quality.correct, b.quality.correct);
        assert_eq!(a.pos_marks, b.pos_marks);
    }

    #[test]
    fn katara_pattern_merges_rule_positives() {
        let kb = dr_kb::fixtures::nobel_mini_kb();
        let rules = dr_core::fixtures::figure4_rules(&kb);
        let pattern = katara_pattern(&rules);
        assert_eq!(pattern.len(), 6); // all six Nobel columns appear
        assert!(pattern.validate().is_ok(), "{:?}", pattern.validate());
        // Every node is exact.
        assert!(pattern.nodes().iter().all(|n| n.sim == SimFn::Equal));
    }

    #[test]
    fn baselines_run_end_to_end() {
        let w = NobelWorld::generate(100, 5);
        let clean = w.clean_relation();
        let name = clean.schema().attr_expect("Name");
        let (dirty, _) = inject(
            &clean,
            &NoiseSpec::new(0.1, 4).with_excluded(vec![name]),
            &w.semantic_source(),
        );
        let fds = fds::nobel(clean.schema());
        let llunatic = run_llunatic(&fds, &clean, &dirty);
        assert!(llunatic.quality.precision <= 1.0);

        let cfds = mine_constant_cfds(&clean, &fds);
        let ccfd = run_ccfd(&cfds, &clean, &dirty);
        assert!(ccfd.quality.precision <= 1.0);
        assert!(ccfd.seconds < 1.0, "constant CFDs are near-instant");
    }
}
