//! Per-tuple outcomes and the relation-level [`ResilienceReport`]
//! (DESIGN.md §4c).
//!
//! Every repaired tuple finishes in exactly one of three states:
//!
//! * **Completed** — the algorithm ran to its fixpoint; this is the only
//!   state the pre-resilience code could report.
//! * **Degraded** — the tuple's [`RepairBudget`](crate::repair::budget)
//!   ran out mid-repair. Rule applications already performed stand (each is
//!   atomic: a rule mutates the tuple only after its enumeration finished
//!   inside budget); the remaining rules were skipped.
//! * **Failed** — the worker panicked on this row. The panic was caught at
//!   the row boundary ([`parallel_repair`](crate::repair::parallel)), the
//!   payload message preserved, and every other row continued. The row is
//!   not re-run: its repair is a pure function of the KB, the rules and
//!   the tuple, so a second attempt would panic the same way.
//!
//! The counts (plus loader quarantine counts and a histogram of the step
//! spend at exhaustion) aggregate into a [`ResilienceReport`] carried by
//! [`RelationReport`](crate::repair::basic::RelationReport) and surfaced
//! through the eval tables.

use crate::repair::basic::TupleReport;
use crate::repair::budget::BudgetExhaustion;

/// How one tuple's repair ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TupleOutcome {
    /// The repair ran to its fixpoint.
    #[default]
    Completed,
    /// The per-tuple budget ran out; the trace holds the rules that fully
    /// applied before exhaustion.
    Degraded {
        /// Why and when the budget tripped.
        reason: BudgetExhaustion,
    },
    /// The worker panicked on this row and the panic was isolated.
    Failed {
        /// The panic payload (or a placeholder for non-string payloads).
        message: String,
    },
}

impl TupleOutcome {
    /// Whether the repair ran to its fixpoint.
    pub fn is_completed(&self) -> bool {
        matches!(self, TupleOutcome::Completed)
    }
}

/// Number of power-of-two buckets in [`BudgetHistogram`].
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Histogram of step spend at budget exhaustion, in power-of-two buckets:
/// bucket `i` counts exhaustions whose step count `s` satisfies
/// `2^(i-1) < s <= 2^i` (bucket 0 holds `s <= 1`); the last bucket is
/// open-ended. Answers "how far past the cap do pathological tuples go"
/// without recording per-tuple step counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for BudgetHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl BudgetHistogram {
    /// Records one exhaustion that spent `steps`.
    pub fn record(&mut self, steps: u64) {
        self.buckets[Self::bucket_of(steps)] += 1;
    }

    /// The bucket index `steps` falls into.
    pub fn bucket_of(steps: u64) -> usize {
        if steps <= 1 {
            0
        } else {
            // ceil(log2(steps)), capped at the open-ended last bucket.
            let ceil_log2 = 64 - (steps - 1).leading_zeros() as usize;
            ceil_log2.min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Total exhaustions recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

impl std::ops::AddAssign for BudgetHistogram {
    fn add_assign(&mut self, rhs: Self) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets) {
            *a += b;
        }
    }
}

/// Relation-level resilience counters: what did *not* finish cleanly.
///
/// All-zero (`is_clean`) on a healthy run, so the pre-resilience reports
/// read unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Tuples whose budget ran out ([`TupleOutcome::Degraded`]).
    pub degraded: usize,
    /// Tuples whose worker panicked ([`TupleOutcome::Failed`]).
    pub failed: usize,
    /// Input records/lines quarantined by a lenient loader before the
    /// repair ever saw them (filled in by the pipeline that loaded the
    /// relation; repairers leave it zero).
    pub quarantined: usize,
    /// Step spend at exhaustion for every degraded tuple.
    pub exhaustion: BudgetHistogram,
}

impl ResilienceReport {
    /// Tallies the per-tuple outcomes of a finished relation repair.
    pub fn tally<'a>(tuples: impl IntoIterator<Item = &'a TupleReport>) -> Self {
        let mut out = Self::default();
        for t in tuples {
            match &t.outcome {
                TupleOutcome::Completed => {}
                TupleOutcome::Degraded { reason } => {
                    out.degraded += 1;
                    out.exhaustion.record(reason.steps);
                }
                TupleOutcome::Failed { .. } => out.failed += 1,
            }
        }
        out
    }

    /// Whether every tuple completed and nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.degraded == 0 && self.failed == 0 && self.quarantined == 0
    }

    /// Adds loader-quarantined records (see
    /// [`Quarantine`](dr_kb::Quarantine)).
    pub fn add_quarantined(&mut self, records: usize) {
        self.quarantined += records;
    }
}

impl std::ops::AddAssign for ResilienceReport {
    /// Counter-wise accumulation — used by experiment harnesses summing
    /// per-table reports into one row.
    fn add_assign(&mut self, rhs: Self) {
        self.degraded += rhs.degraded;
        self.failed += rhs.failed;
        self.quarantined += rhs.quarantined;
        self.exhaustion += rhs.exhaustion;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::budget::{BudgetExhaustion, ExhaustCause};

    fn degraded(steps: u64) -> TupleReport {
        TupleReport {
            outcome: TupleOutcome::Degraded {
                reason: BudgetExhaustion {
                    steps,
                    cause: ExhaustCause::StepCap,
                },
            },
            ..Default::default()
        }
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(BudgetHistogram::bucket_of(0), 0);
        assert_eq!(BudgetHistogram::bucket_of(1), 0);
        assert_eq!(BudgetHistogram::bucket_of(2), 1);
        assert_eq!(BudgetHistogram::bucket_of(3), 2);
        assert_eq!(BudgetHistogram::bucket_of(4), 2);
        assert_eq!(BudgetHistogram::bucket_of(5), 3);
        assert_eq!(BudgetHistogram::bucket_of(1 << 14), 14);
        assert_eq!(BudgetHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn tally_counts_outcomes() {
        let tuples = vec![
            TupleReport::default(),
            degraded(3),
            degraded(1000),
            TupleReport {
                outcome: TupleOutcome::Failed {
                    message: "boom".into(),
                },
                ..Default::default()
            },
        ];
        let r = ResilienceReport::tally(&tuples);
        assert_eq!(r.degraded, 2);
        assert_eq!(r.failed, 1);
        assert_eq!(r.quarantined, 0);
        assert_eq!(r.exhaustion.total(), 2);
        assert!(!r.is_clean());
        assert!(ResilienceReport::tally(&[TupleReport::default()]).is_clean());
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = ResilienceReport::tally(&[degraded(4)]);
        a.add_quarantined(3);
        let b = ResilienceReport::tally(&[degraded(4), degraded(9)]);
        a += b;
        assert_eq!(a.degraded, 3);
        assert_eq!(a.quarantined, 3);
        assert_eq!(a.exhaustion.total(), 3);
        assert_eq!(a.exhaustion.buckets()[2], 2, "two exhaustions at 4 steps");
    }
}
