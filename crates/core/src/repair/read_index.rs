//! Reverse index from KB region to the readers that read it.
//!
//! A KB delta names the regions it wrote in its [`KbFootprint`]; a reader
//! names the regions it read, in the same sorted [`Region`] slice.
//! Indexing readers by region turns "which readers can this delta have
//! made stale?" into a few lookups instead of a scan over every reader.
//! Two kinds of reader use the one [`ReadIndex`]: each value-cache shard
//! indexes its entries, so a sweep reaches only the entries a delta can
//! make stale, and a [`RelationReport`] indexes its rows ([`RowIndex`]),
//! so selective re-repair reaches only the rows a delta can have changed.
//!
//! Removal is lazy. A reader that goes away (a swept cache entry, a row
//! re-run with a new footprint) keeps its references under the regions
//! nobody looked up, and every consumer re-checks each reader it reaches
//! against its own record before acting on it. `refs` counts the
//! references held and `live` those the current readers account for; once
//! dead references outnumber live ones (plus [`LAZY_SLACK`]) the owner
//! builds a fresh index.

use crate::repair::basic::{RelationReport, TupleReport};
use dr_kb::{FxHashMap, KbFootprint, Region};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Lazily removed references an index tolerates beyond twice its live
/// count before its owner rebuilds it.
const LAZY_SLACK: usize = 64;

/// Region → readers, with lazy removal (see the module docs).
pub(crate) struct ReadIndex<R> {
    readers: FxHashMap<Region, Vec<R>>,
    /// Readers every delta reaches, whatever it wrote.
    always: Vec<R>,
    refs: usize,
    live: usize,
}

impl<R> Default for ReadIndex<R> {
    fn default() -> Self {
        Self {
            readers: FxHashMap::default(),
            always: Vec::new(),
            refs: 0,
            live: 0,
        }
    }
}

impl<R: Clone> ReadIndex<R> {
    /// Files `reader` under each region it read.
    pub(crate) fn add(&mut self, reader: &R, reads: impl IntoIterator<Item = Region>) {
        for region in reads {
            self.readers.entry(region).or_default().push(reader.clone());
            self.refs += 1;
            self.live += 1;
        }
    }

    /// Files `reader` where every delta reaches it.
    fn add_always(&mut self, reader: &R) {
        self.always.push(reader.clone());
        self.refs += 1;
        self.live += 1;
    }

    /// Records that a reader holding `refs` references went away; its
    /// references stay until a lookup drains them or the index is rebuilt.
    pub(crate) fn forget(&mut self, refs: usize) {
        self.live = self.live.saturating_sub(refs);
    }

    /// The indexed regions `fp` makes stale: filtered from the index for a
    /// taxonomy-wide footprint, which reaches every class without naming
    /// one, and `fp`'s own regions otherwise.
    fn stale_regions<'a>(&self, fp: &'a KbFootprint) -> Cow<'a, [Region]> {
        if fp.contains(Region::AllClasses) {
            let keys = self.readers.keys().copied();
            return Cow::Owned(keys.filter(|region| region.stale(fp)).collect());
        }
        Cow::Borrowed(fp.regions())
    }

    /// Drains the readers of every region `fp` makes stale, and those every
    /// delta reaches, once per reference (a reader of several such regions
    /// comes back several times).
    pub(crate) fn take_stale(&mut self, fp: &KbFootprint) -> Vec<R> {
        let mut out = std::mem::take(&mut self.always);
        for region in self.stale_regions(fp).iter() {
            if let Some(readers) = self.readers.remove(region) {
                out.extend(readers);
            }
        }
        self.refs -= out.len();
        out
    }

    /// Calls `f` with each reader of every region `fp` makes stale, and
    /// each reader every delta reaches, once per reference, leaving the
    /// index as it is.
    pub(crate) fn visit_stale(&self, fp: &KbFootprint, mut f: impl FnMut(&R)) {
        self.always.iter().for_each(&mut f);
        for region in self.stale_regions(fp).iter() {
            if let Some(readers) = self.readers.get(region) {
                readers.iter().for_each(&mut f);
            }
        }
    }

    /// Whether dead references outnumber live ones beyond the slack.
    pub(crate) fn needs_rebuild(&self) -> bool {
        self.refs > 2 * self.live + LAZY_SLACK
    }
}

/// Files a report's row under the regions it read, and where every delta
/// reaches it when its repair never settled.
fn add_row(index: &mut ReadIndex<u32>, row: usize, tuple: &TupleReport, fp: &KbFootprint) {
    index.add(&(row as u32), fp.regions().iter().copied());
    if !tuple.outcome.is_completed() {
        index.add_always(&(row as u32));
    }
}

/// The references [`add_row`] files for a row.
fn row_refs(tuple: &TupleReport, fp: &KbFootprint) -> usize {
    fp.len() + usize::from(!tuple.outcome.is_completed())
}

/// A [`RelationReport`]'s reverse index from KB region to row, for
/// selective re-repair.
///
/// Built on the report's first selection, so a batch repair never pays
/// for it. A selective successor shares its prior's index and appends the
/// rows it re-ran: every report sharing the index finds all of its own
/// rows in it (and possibly stale ones, which selection re-checks against
/// the report's own footprints). When dead references pile up, the
/// successor starts a fresh index instead, so the prior keeps the one it
/// has and stays valid if reused.
#[derive(Clone, Default)]
pub(crate) struct RowIndex(Arc<Mutex<Option<ReadIndex<u32>>>>);

impl fmt::Debug for RowIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RowIndex").finish_non_exhaustive()
    }
}

impl RowIndex {
    /// The rows of `report` a delta with write footprint `fp` may have
    /// changed, ascending: those whose footprint is stale under `fp`,
    /// plus every row whose repair never settled.
    pub(crate) fn select(&self, report: &RelationReport, fp: &KbFootprint) -> Vec<usize> {
        let mut rows = Vec::new();
        {
            let mut guard = self.0.lock();
            let index = guard.get_or_insert_with(|| {
                let mut index = ReadIndex::default();
                for (row, (tuple, row_fp)) in
                    report.tuples.iter().zip(&report.footprints).enumerate()
                {
                    add_row(&mut index, row, tuple, row_fp);
                }
                index
            });
            index.visit_stale(fp, |&row| rows.push(row as usize));
        }
        rows.sort_unstable();
        rows.dedup();
        rows.retain(|&row| {
            !report.tuples[row].outcome.is_completed() || report.footprints[row].stale(fp)
        });
        rows
    }

    /// The index for `next`, the successor of `prior` that re-ran `rows`:
    /// this index with those rows' new reads appended, or a fresh one when
    /// this index was never built or is due for a rebuild.
    pub(crate) fn successor(
        &self,
        prior: &RelationReport,
        rows: &[usize],
        next: &RelationReport,
    ) -> RowIndex {
        let mut guard = self.0.lock();
        match guard.as_mut() {
            Some(index) if !index.needs_rebuild() => {
                for &row in rows {
                    index.forget(row_refs(&prior.tuples[row], &prior.footprints[row]));
                    add_row(index, row, &next.tuples[row], &next.footprints[row]);
                }
                self.clone()
            }
            _ => RowIndex::default(),
        }
    }

    /// Whether two reports share one index.
    #[cfg(test)]
    pub(crate) fn shared_with(&self, other: &RowIndex) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::resilience::TupleOutcome;
    use dr_kb::{ClassId, InstanceId, LiteralId, Node, PredId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A footprint over a small id space, so random rows and deltas
    /// overlap often; a few read every class or the literal pool.
    fn footprint(rng: &mut StdRng) -> KbFootprint {
        let mut regions = Vec::new();
        for _ in 0..rng.gen_range(0..3) {
            regions.push(Region::Class(ClassId::from_index(rng.gen_range(0..4))));
        }
        for _ in 0..rng.gen_range(0..4) {
            let s = InstanceId::from_index(rng.gen_range(0..6));
            regions.push(Region::Out(s, PredId::from_index(rng.gen_range(0..3))));
        }
        for _ in 0..rng.gen_range(0..3) {
            let o = if rng.gen_bool(0.3) {
                Node::Literal(LiteralId::from_index(rng.gen_range(0..2)))
            } else {
                Node::Instance(InstanceId::from_index(rng.gen_range(0..5)))
            };
            regions.push(Region::In(o, PredId::from_index(rng.gen_range(0..3))));
        }
        if rng.gen_bool(0.15) {
            regions.push(Region::Literals);
        }
        if rng.gen_bool(0.08) {
            regions.push(Region::AllClasses);
        }
        KbFootprint::from_buf(&mut regions)
    }

    /// A report over `rows` (footprint, settled) pairs.
    fn report(rows: impl IntoIterator<Item = (KbFootprint, bool)>) -> RelationReport {
        let mut report = RelationReport::default();
        for (fp, settled) in rows {
            let outcome = if settled {
                TupleOutcome::Completed
            } else {
                TupleOutcome::Failed {
                    message: "unsettled".into(),
                }
            };
            report.tuples.push(Arc::new(TupleReport {
                outcome,
                ..TupleReport::default()
            }));
            report.footprints.push(fp);
        }
        report
    }

    /// `n` random rows, about one in seven unsettled.
    fn random_report(rng: &mut StdRng, n: usize) -> RelationReport {
        report(
            (0..n)
                .map(|_| (footprint(rng), rng.gen_bool(0.85)))
                .collect::<Vec<_>>(),
        )
    }

    /// The selection oracle: one staleness test per row.
    fn linear(report: &RelationReport, delta: &KbFootprint) -> Vec<usize> {
        (0..report.tuples.len())
            .filter(|&row| {
                !report.tuples[row].outcome.is_completed() || report.footprints[row].stale(delta)
            })
            .collect()
    }

    fn cases() -> u32 {
        if std::env::var_os("DR_QUICK").is_some() {
            64
        } else {
            512
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Along a random chain of deltas, each step re-repairing the rows
        /// it selects from a report drawn from the whole history (so prior
        /// reports are reused after their successors appended to, or
        /// rebuilt, the shared index), the index selects exactly the rows
        /// the linear filter selects.
        #[test]
        fn row_selection_matches_linear_filter(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = rng.gen_range(1..16);
            let mut history = vec![random_report(&mut rng, rows)];
            for _ in 0..rng.gen_range(1..24) {
                let delta = footprint(&mut rng);
                let prior = &history[rng.gen_range(0..history.len())];
                let selected = prior.rows_to_rerun(&delta);
                prop_assert_eq!(&selected, &linear(prior, &delta));
                let sub = random_report(&mut rng, selected.len());
                let next = prior.splice(&selected, sub);
                prop_assert_eq!(next.selected_rows, Some(selected.len()));
                history.push(next);
            }
            let delta = footprint(&mut rng);
            for report in &history {
                prop_assert_eq!(report.rows_to_rerun(&delta), linear(report, &delta));
            }
        }
    }

    /// A cloned report selects from an index of its own, so an edit to
    /// either copy cannot leave the other's index short of a row.
    #[test]
    fn a_clone_starts_its_own_index() {
        let row = |i: usize| KbFootprint::from_iter([pair(i)]);
        let original = report((0..4).map(|i| (row(i), true)));
        assert_eq!(original.rows_to_rerun(&row(1)), vec![1]);
        let mut copy = original.clone();
        assert!(!copy.row_index.shared_with(&original.row_index));
        copy.footprints[2] = row(1);
        assert_eq!(copy.rows_to_rerun(&row(1)), vec![1, 2]);
        assert_eq!(original.rows_to_rerun(&row(1)), vec![1]);
    }

    fn pair(i: usize) -> Region {
        Region::Out(InstanceId::from_index(i), PredId::from_index(0))
    }

    /// Re-running every row on every step piles dead references into the
    /// shared index until a successor starts its own; the reports before
    /// the rebuild still select exactly, from the index they kept.
    #[test]
    fn a_rebuild_leaves_prior_reports_valid() {
        let row = |i: usize| KbFootprint::from_iter([pair(i), Region::Literals]);
        let rows = || (0..8).map(|i| (row(i), true));
        let everything = KbFootprint::from_iter([Region::Literals]);
        let mut history = vec![report(rows())];
        let mut rebuilt = false;
        while !rebuilt && history.len() < 64 {
            let prior = history.last().expect("non-empty");
            let selected = prior.rows_to_rerun(&everything);
            assert_eq!(selected.len(), 8);
            let next = prior.splice(&selected, report(rows()));
            rebuilt = !next.row_index.shared_with(&prior.row_index);
            history.push(next);
        }
        assert!(rebuilt, "the shared index was never rebuilt");
        let one = KbFootprint::from_iter([pair(3)]);
        for report in &history {
            assert_eq!(report.rows_to_rerun(&one), vec![3]);
        }
    }
}
