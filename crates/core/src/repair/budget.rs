//! Per-tuple repair budgets — the first pillar of the resilience layer
//! (DESIGN.md §4c).
//!
//! The matching graphs of §IV are searched by a backtracking solver whose
//! worst case is exponential in pattern size; a pathological tuple (a cell
//! matching thousands of KB nodes under a loose `ED,k`) can make one row
//! consume a whole relation's time budget. A [`RepairBudget`] caps the work
//! one tuple may spend: a **step counter** over candidate expansions in the
//! instance-graph search, plus an optional coarse **wall-clock deadline**.
//! Exhaustion never panics and never corrupts the tuple — rule application
//! aborts *before* any mutation of the current rule, earlier (complete)
//! rule applications stand, and the tuple's report carries a
//! [`TupleOutcome::Degraded`](crate::repair::resilience::TupleOutcome)
//! outcome with the reason.
//!
//! The budget is configuration ([`RepairBudget`], stored on the
//! [`MatchContext`](crate::context::MatchContext)); each tuple gets its own
//! [`BudgetMeter`] spending it. The default budget is unbounded, so
//! existing callers see bit-identical behavior.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// How often (in charged steps) the meter polls the wall clock when a
/// deadline is set. Coarse on purpose: `Instant::now()` per candidate would
/// dominate the solver's inner loop.
const DEADLINE_POLL_STEPS: u64 = 1024;

/// Why a tuple's budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustCause {
    /// The candidate-expansion step counter hit
    /// [`RepairBudget::max_steps`].
    StepCap,
    /// The wall-clock deadline passed.
    Deadline,
    /// Exhaustion was forced externally (fault injection / cancellation).
    Forced,
}

impl std::fmt::Display for ExhaustCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustCause::StepCap => write!(f, "step cap"),
            ExhaustCause::Deadline => write!(f, "deadline"),
            ExhaustCause::Forced => write!(f, "forced"),
        }
    }
}

/// The terminal state of an exhausted [`BudgetMeter`]: how many steps were
/// spent and why the meter stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BudgetExhaustion {
    /// Steps charged up to (and including) the exhausting charge.
    pub steps: u64,
    /// What tripped.
    pub cause: ExhaustCause,
}

impl std::fmt::Display for BudgetExhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "budget exhausted ({} after {} steps)",
            self.cause, self.steps
        )
    }
}

/// Per-tuple work limits for the repair algorithms.
///
/// `max_steps` counts **candidate expansions** in the instance-graph search
/// (each node the backtracking solver considers binding), the unit that
/// actually scales with pathological inputs. `deadline` is a coarse
/// wall-clock cap checked every `DEADLINE_POLL_STEPS` steps. The
/// default — `max_steps == 0`, no deadline — is unbounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairBudget {
    /// Maximum candidate-expansion steps per tuple; `0` means unbounded.
    pub max_steps: u64,
    /// Wall-clock ceiling per tuple; `None` means no deadline.
    pub deadline: Option<Duration>,
}

impl RepairBudget {
    /// The unbounded budget (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A budget capped at `max_steps` candidate expansions per tuple.
    pub fn with_max_steps(max_steps: u64) -> Self {
        Self {
            max_steps,
            deadline: None,
        }
    }

    /// A budget with a per-tuple wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            max_steps: 0,
            deadline: Some(deadline),
        }
    }

    /// Whether this budget can never exhaust on its own.
    pub fn is_unbounded(&self) -> bool {
        self.max_steps == 0 && self.deadline.is_none()
    }

    /// Starts a fresh meter for one tuple. The deadline clock starts now.
    pub fn meter(&self) -> BudgetMeter {
        BudgetMeter {
            max_steps: self.max_steps,
            deadline: self.deadline.map(|d| Instant::now() + d),
            steps: Cell::new(0),
            until_poll: Cell::new(DEADLINE_POLL_STEPS),
            exhaustion: Cell::new(None),
        }
    }
}

/// One tuple's spend against a [`RepairBudget`].
///
/// The meter is intentionally `!Sync` (plain [`Cell`]s): a tuple is always
/// repaired by exactly one thread, and the solver charges it on every
/// candidate expansion — atomics would be pure overhead. Once exhausted the
/// meter stays exhausted; all further [`charge`](Self::charge) calls refuse.
#[derive(Debug)]
pub struct BudgetMeter {
    max_steps: u64,
    deadline: Option<Instant>,
    steps: Cell<u64>,
    until_poll: Cell<u64>,
    exhaustion: Cell<Option<BudgetExhaustion>>,
}

impl BudgetMeter {
    /// A meter that never exhausts on its own (used by the unmetered entry
    /// points so legacy callers pay one branch per charge and nothing else).
    pub fn unbounded() -> Self {
        RepairBudget::unbounded().meter()
    }

    /// Charges `n` steps. Returns `false` — permanently — once the budget
    /// is exhausted; the caller must stop expanding and unwind.
    pub fn charge(&self, n: u64) -> bool {
        if self.exhaustion.get().is_some() {
            return false;
        }
        let steps = self.steps.get().saturating_add(n);
        self.steps.set(steps);
        if self.max_steps != 0 && steps > self.max_steps {
            self.exhaust(ExhaustCause::StepCap);
            return false;
        }
        if let Some(deadline) = self.deadline {
            let until = self.until_poll.get().saturating_sub(n);
            if until == 0 {
                self.until_poll.set(DEADLINE_POLL_STEPS);
                if Instant::now() >= deadline {
                    self.exhaust(ExhaustCause::Deadline);
                    return false;
                }
            } else {
                self.until_poll.set(until);
            }
        }
        true
    }

    /// Exhausts the meter from outside (fault injection, cancellation).
    pub fn force_exhaust(&self) {
        if self.exhaustion.get().is_none() {
            self.exhaust(ExhaustCause::Forced);
        }
    }

    /// Steps charged so far.
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// The exhaustion record, once the meter has tripped.
    pub fn exhaustion(&self) -> Option<BudgetExhaustion> {
        self.exhaustion.get()
    }

    /// Whether the meter has tripped.
    pub fn is_exhausted(&self) -> bool {
        self.exhaustion.get().is_some()
    }

    /// `Err` with the exhaustion record if the meter has tripped.
    pub fn check(&self) -> Result<(), BudgetExhaustion> {
        match self.exhaustion.get() {
            Some(ex) => Err(ex),
            None => Ok(()),
        }
    }

    fn exhaust(&self, cause: ExhaustCause) {
        self.exhaustion.set(Some(BudgetExhaustion {
            steps: self.steps.get(),
            cause,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_meter_never_trips() {
        let meter = BudgetMeter::unbounded();
        for _ in 0..10_000 {
            assert!(meter.charge(1_000));
        }
        assert!(!meter.is_exhausted());
        assert_eq!(meter.steps(), 10_000_000);
        assert!(meter.check().is_ok());
    }

    #[test]
    fn step_cap_trips_and_stays_tripped() {
        let meter = RepairBudget::with_max_steps(10).meter();
        assert!(meter.charge(6));
        assert!(!meter.charge(6), "12 > 10 trips the cap");
        let ex = meter.exhaustion().expect("exhausted");
        assert_eq!(ex.cause, ExhaustCause::StepCap);
        assert_eq!(ex.steps, 12);
        // Permanently refused, steps frozen at the exhausting charge.
        assert!(!meter.charge(1));
        assert_eq!(meter.exhaustion().map(|e| e.steps), Some(12));
        assert_eq!(meter.check(), Err(ex));
    }

    #[test]
    fn elapsed_deadline_trips_at_poll_boundary() {
        let meter = RepairBudget::with_deadline(Duration::ZERO).meter();
        // Polling is coarse: the first DEADLINE_POLL_STEPS-1 steps pass.
        assert!(meter.charge(DEADLINE_POLL_STEPS - 1));
        assert!(!meter.charge(1), "poll boundary sees the elapsed deadline");
        assert_eq!(
            meter.exhaustion().map(|e| e.cause),
            Some(ExhaustCause::Deadline)
        );
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let meter = RepairBudget::with_deadline(Duration::from_secs(3600)).meter();
        assert!(meter.charge(DEADLINE_POLL_STEPS * 4));
        assert!(!meter.is_exhausted());
    }

    #[test]
    fn force_exhaust_records_forced_cause() {
        let meter = BudgetMeter::unbounded();
        meter.charge(7);
        meter.force_exhaust();
        let ex = meter.exhaustion().expect("forced");
        assert_eq!(ex.cause, ExhaustCause::Forced);
        assert_eq!(ex.steps, 7);
        // Forcing again does not overwrite the first record.
        meter.force_exhaust();
        assert_eq!(meter.exhaustion(), Some(ex));
        assert!(!meter.charge(1));
    }

    #[test]
    fn budget_constructors() {
        assert!(RepairBudget::unbounded().is_unbounded());
        assert!(RepairBudget::default().is_unbounded());
        assert!(!RepairBudget::with_max_steps(5).is_unbounded());
        assert!(!RepairBudget::with_deadline(Duration::from_secs(1)).is_unbounded());
        let display = BudgetExhaustion {
            steps: 42,
            cause: ExhaustCause::StepCap,
        }
        .to_string();
        assert!(
            display.contains("step cap") && display.contains("42"),
            "{display}"
        );
    }
}
