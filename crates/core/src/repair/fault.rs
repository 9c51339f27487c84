//! Deterministic fault injection for the parallel repair scheduler
//! (DESIGN.md §4c; compiled only with the `fault-injection` feature).
//!
//! A [`FaultPlan`] maps row indexes to [`Fault`]s and is executed by
//! [`parallel_repair`](crate::repair::parallel::parallel_repair) at the
//! moment a worker claims the row — *before* the row's tuple is touched, so
//! a panicked or exhausted row is left exactly as loaded and every other
//! row must come out bit-identical to a fault-free run. The scheduler runs
//! each row once, so a [`Fault::Panic`] row is reported `Failed` exactly
//! once. Plans built with [`FaultPlan::seeded`] are pure functions of
//! `(seed, rows, spec)`: recovery tests replay the exact same faults on
//! every run and across thread counts.
//!
//! This module is test infrastructure shipped in the library (the recovery
//! proptests in dr-core and dr-eval drive the real scheduler, not a mock),
//! but it is feature-gated so production builds carry none of it.

use crate::repair::budget::BudgetMeter;
use dr_kb::FxHashMap;
use rand::prelude::*;
use std::time::Duration;

/// What to inject at one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic in the worker (with a recognizable payload) before the row's
    /// repair starts. The scheduler must isolate it as
    /// [`TupleOutcome::Failed`](crate::repair::resilience::TupleOutcome).
    Panic,
    /// Sleep before repairing, simulating a straggler row. The row still
    /// completes; work stealing must route around it.
    Slow(Duration),
    /// Force the row's [`BudgetMeter`] into exhaustion, simulating a
    /// pathological tuple hitting its step cap; the row degrades.
    ExhaustBudget,
}

/// Payload prefix of injected panics, so tests (and panic hooks) can tell
/// an injected fault from a genuine bug.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault: panic at row";

/// Per-fault-kind injection rates for [`FaultPlan::seeded`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSpec {
    /// Fraction of rows that panic.
    pub panic_rate: f64,
    /// Fraction of rows that run slow.
    pub slow_rate: f64,
    /// Sleep injected into slow rows.
    pub slow_duration: Duration,
    /// Fraction of rows whose budget is force-exhausted.
    pub exhaust_rate: f64,
}

impl FaultSpec {
    /// A spec that only panics, at `rate`.
    pub fn panics(rate: f64) -> Self {
        Self {
            panic_rate: rate,
            ..Default::default()
        }
    }
}

/// A deterministic schedule of per-row faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: FxHashMap<usize, Fault>,
}

impl FaultPlan {
    /// An empty plan (inject nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `fault` at `row` (builder style).
    pub fn with_fault(mut self, row: usize, fault: Fault) -> Self {
        self.faults.insert(row, fault);
        self
    }

    /// Builds a plan over `rows` rows where each row independently draws
    /// its fate from `spec` using a seeded RNG. Deterministic: the same
    /// `(seed, rows, spec)` always yields the same plan.
    pub fn seeded(seed: u64, rows: usize, spec: FaultSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::new();
        for row in 0..rows {
            // One draw per fate keeps each row's outcome independent and
            // the rates composable (first matching fate wins).
            let roll: f64 = rng.gen_range(0.0..1.0);
            if roll < spec.panic_rate {
                plan.faults.insert(row, Fault::Panic);
            } else if roll < spec.panic_rate + spec.exhaust_rate {
                plan.faults.insert(row, Fault::ExhaustBudget);
            } else if roll < spec.panic_rate + spec.exhaust_rate + spec.slow_rate {
                plan.faults.insert(row, Fault::Slow(spec.slow_duration));
            }
        }
        plan
    }

    /// The fault planned for `row`, if any.
    pub fn fault_at(&self, row: usize) -> Option<Fault> {
        self.faults.get(&row).copied()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// All rows with a planned fault, sorted.
    pub fn affected_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.faults.keys().copied().collect();
        rows.sort_unstable();
        rows
    }

    /// Rows planned to panic, sorted.
    pub fn panicking_rows(&self) -> Vec<usize> {
        self.rows_with(|f| matches!(f, Fault::Panic))
    }

    /// Rows planned for forced budget exhaustion, sorted.
    pub fn exhausted_rows(&self) -> Vec<usize> {
        self.rows_with(|f| matches!(f, Fault::ExhaustBudget))
    }

    /// Rows whose repaired value may legitimately differ from a fault-free
    /// run (panicked or degraded rows), sorted. Slow rows complete
    /// normally, so they are not included.
    pub fn disturbed_rows(&self) -> Vec<usize> {
        self.rows_with(|f| !matches!(f, Fault::Slow(_)))
    }

    fn rows_with(&self, pred: impl Fn(Fault) -> bool) -> Vec<usize> {
        let mut rows: Vec<usize> = self
            .faults
            .iter()
            .filter(|(_, &f)| pred(f))
            .map(|(&r, _)| r)
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Executes the fault planned for `row` (no-op without one). Called by
    /// the scheduler inside its per-row `catch_unwind`, before the row's
    /// tuple is locked.
    ///
    /// # Panics
    ///
    /// On purpose, when the planned fault is [`Fault::Panic`].
    pub fn trigger(&self, row: usize, meter: &BudgetMeter) {
        match self.fault_at(row) {
            Some(Fault::Panic) => panic!("{INJECTED_PANIC_PREFIX} {row}"),
            Some(Fault::Slow(d)) => std::thread::sleep(d),
            Some(Fault::ExhaustBudget) => meter.force_exhaust(),
            None => {}
        }
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// report for injected panics — recognized by [`INJECTED_PANIC_PREFIX`] —
/// and delegates everything else to the previously installed hook.
/// Recovery tests call this so hundreds of *expected* panics don't bury
/// real failures in stderr noise.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with(INJECTED_PANIC_PREFIX));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let spec = FaultSpec {
            panic_rate: 0.2,
            exhaust_rate: 0.2,
            slow_rate: 0.1,
            slow_duration: Duration::from_millis(1),
        };
        let a = FaultPlan::seeded(99, 500, spec);
        let b = FaultPlan::seeded(99, 500, spec);
        assert_eq!(a.affected_rows(), b.affected_rows());
        assert_eq!(a.panicking_rows(), b.panicking_rows());
        assert_eq!(a.exhausted_rows(), b.exhausted_rows());
        assert!(!a.is_empty());
        let c = FaultPlan::seeded(100, 500, spec);
        assert_ne!(
            a.affected_rows(),
            c.affected_rows(),
            "different seed, different plan"
        );
    }

    #[test]
    fn seeded_rates_are_roughly_respected() {
        let plan = FaultPlan::seeded(7, 10_000, FaultSpec::panics(0.10));
        let hit = plan.panicking_rows().len();
        assert!((600..=1400).contains(&hit), "~10% of 10k rows, got {hit}");
        assert!(plan.exhausted_rows().is_empty());
    }

    #[test]
    fn trigger_exhausts_and_panics() {
        silence_injected_panics();
        let plan = FaultPlan::new()
            .with_fault(3, Fault::ExhaustBudget)
            .with_fault(5, Fault::Panic);
        let meter = BudgetMeter::unbounded();
        plan.trigger(0, &meter); // no-op
        plan.trigger(3, &meter);
        assert!(meter.is_exhausted());
        assert_eq!(plan.disturbed_rows(), vec![3, 5]);

        let result = std::panic::catch_unwind(|| {
            plan.trigger(5, &BudgetMeter::unbounded());
        });
        let payload = result.expect_err("row 5 panics");
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.starts_with(INJECTED_PANIC_PREFIX), "{message}");
    }
}
