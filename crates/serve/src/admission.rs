//! Admission control and acceptor backoff — the overload half of the
//! service survival layer (DESIGN.md §9).
//!
//! A service carrying heavy traffic must shed excess load at the door, not
//! queue it unboundedly: every request admitted past the machine's
//! capacity makes *every* in-flight request slower, and an unbounded queue
//! converts a traffic spike into minutes of stale work after the spike has
//! passed. The [`AdmissionGate`] enforces a hard in-flight cap per route
//! class with a *bounded* wait: a request that cannot get a permit within
//! the configured queue window — or that arrives when the queue itself is
//! full — is shed immediately with `429 Retry-After`, which is cheap for
//! the server and actionable for the client (it knows when to come back).
//!
//! Three metrics make the gate observable: `serve_inflight{route}`
//! (gauge), `serve_shed_total{route,reason}` (counter), and
//! `serve_queue_wait_seconds` (histogram over *admitted* requests' queue
//! time). `crates/serve/tests/robustness.rs` reconciles the shed and
//! request counters exactly against client-side observations.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dr_obs::{Counter, Gauge, Histogram, MetricRegistry};

/// Admission tunables, fixed at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Max repair requests in flight (being repaired) at once.
    /// `0` = auto: `max(8, 2 × available cores)`.
    pub max_inflight_repairs: usize,
    /// Max repair requests allowed to *wait* for a permit beyond the
    /// in-flight cap. Arrivals past this queue are shed instantly.
    /// `0` = auto: `2 × max_inflight_repairs`.
    pub max_queue: usize,
    /// Longest a queued request waits for a permit before being shed.
    pub queue_wait: Duration,
    /// `Retry-After` value (seconds) sent with sheds.
    pub retry_after_secs: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_inflight_repairs: 0,
            max_queue: 0,
            queue_wait: Duration::from_secs(2),
            retry_after_secs: 1,
        }
    }
}

impl AdmissionConfig {
    fn resolved_limit(&self) -> usize {
        if self.max_inflight_repairs > 0 {
            return self.max_inflight_repairs;
        }
        (2 * dr_core::available_cores()).max(8)
    }

    fn resolved_queue(&self) -> usize {
        if self.max_queue > 0 {
            self.max_queue
        } else {
            2 * self.resolved_limit()
        }
    }
}

/// Why a request was shed (the `reason` label on `serve_shed_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The wait queue was already full on arrival.
    QueueFull,
    /// A permit did not free up within the queue-wait window.
    Timeout,
}

impl ShedReason {
    fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Timeout => "timeout",
        }
    }
}

/// The outcome of [`AdmissionGate::acquire`].
pub enum Admission<'a> {
    /// Admitted; drop the permit when the request's work is done.
    Granted(Permit<'a>),
    /// Shed; answer `429` with the given `Retry-After` seconds.
    Shed {
        /// Why the request was shed.
        reason: ShedReason,
        /// Seconds the client should wait before retrying.
        retry_after_secs: u32,
    },
}

struct GateState {
    inflight: usize,
    queued: usize,
}

/// A bounded in-flight permit gate for the repair route.
///
/// Light routes (`/healthz`, `/readyz`, `/metrics`, `/kbs`) bypass the
/// gate entirely — an overloaded server that cannot answer its own health
/// and metrics probes is indistinguishable from a dead one, which defeats
/// the point of shedding.
pub struct AdmissionGate {
    limit: usize,
    max_queue: usize,
    queue_wait: Duration,
    retry_after_secs: u32,
    state: Mutex<GateState>,
    freed: Condvar,
    inflight_gauge: Gauge,
    shed_queue_full: Counter,
    shed_timeout: Counter,
    queue_wait_hist: Histogram,
}

impl AdmissionGate {
    /// Builds the gate and registers its metric cells.
    pub fn new(config: AdmissionConfig, metrics: &MetricRegistry) -> Self {
        let limit = config.resolved_limit();
        Self {
            limit,
            max_queue: config.resolved_queue(),
            queue_wait: config.queue_wait,
            retry_after_secs: config.retry_after_secs,
            state: Mutex::new(GateState {
                inflight: 0,
                queued: 0,
            }),
            freed: Condvar::new(),
            inflight_gauge: metrics.gauge("serve_inflight", &[("route", "repair")]),
            shed_queue_full: metrics.counter(
                "serve_shed_total",
                &[
                    ("route", "repair"),
                    ("reason", ShedReason::QueueFull.label()),
                ],
            ),
            shed_timeout: metrics.counter(
                "serve_shed_total",
                &[("route", "repair"), ("reason", ShedReason::Timeout.label())],
            ),
            queue_wait_hist: metrics.histogram("serve_queue_wait_seconds", &[]),
        }
    }

    /// The resolved in-flight cap.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Current in-flight count (for tests).
    pub fn inflight(&self) -> usize {
        self.lock_state().inflight
    }

    // The vendored `parking_lot` shim has no Condvar, so the gate sits on
    // `std::sync` directly; the gate never relies on poisoning (a panic
    // while holding the lock leaves plain counters, not broken invariants).
    fn lock_state(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tries to admit one repair request, waiting at most the configured
    /// queue window for a permit.
    pub fn acquire(&self) -> Admission<'_> {
        let arrived = Instant::now();
        let deadline = arrived + self.queue_wait;
        let mut state = self.lock_state();
        if state.inflight < self.limit {
            state.inflight += 1;
            let inflight = state.inflight;
            drop(state);
            return self.granted(inflight, arrived);
        }
        if state.queued >= self.max_queue {
            drop(state);
            return self.shed(ShedReason::QueueFull);
        }
        state.queued += 1;
        loop {
            if state.inflight < self.limit {
                state.inflight += 1;
                state.queued -= 1;
                let inflight = state.inflight;
                drop(state);
                return self.granted(inflight, arrived);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                state.queued -= 1;
                drop(state);
                return self.shed(ShedReason::Timeout);
            }
            let (guard, timeout) = self
                .freed
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if timeout.timed_out() {
                // Re-check once: the permit may have freed exactly at the
                // deadline and the notification raced the timeout.
                if state.inflight < self.limit {
                    state.inflight += 1;
                    state.queued -= 1;
                    let inflight = state.inflight;
                    drop(state);
                    return self.granted(inflight, arrived);
                }
                state.queued -= 1;
                drop(state);
                return self.shed(ShedReason::Timeout);
            }
        }
    }

    fn granted(&self, inflight: usize, arrived: Instant) -> Admission<'_> {
        self.inflight_gauge.set(inflight as u64);
        self.queue_wait_hist.record(arrived.elapsed());
        Admission::Granted(Permit { gate: self })
    }

    fn shed(&self, reason: ShedReason) -> Admission<'_> {
        match reason {
            ShedReason::QueueFull => self.shed_queue_full.inc(),
            ShedReason::Timeout => self.shed_timeout.inc(),
        }
        Admission::Shed {
            reason,
            retry_after_secs: self.retry_after_secs,
        }
    }

    fn release(&self) {
        let mut state = self.lock_state();
        state.inflight -= 1;
        self.inflight_gauge.set(state.inflight as u64);
        drop(state);
        self.freed.notify_one();
    }
}

/// An admitted request's permit; releasing it (on drop) wakes one queued
/// waiter.
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// Escalating backoff for transient `accept()` failures (EMFILE, ENFILE,
/// ECONNABORTED under SYN floods, ...).
///
/// Before this existed, any persistent accept error — most plausibly file
/// descriptor exhaustion, which does *not* clear by retrying — spun the
/// acceptor thread at 100% CPU, stealing exactly the resource the server
/// needed to drain existing connections and free descriptors. The backoff
/// sleeps 1 ms after a first failure and doubles per consecutive failure
/// up to 100 ms, logging once per error streak (first failure and then
/// whenever the cap is reached for the first time would still be one line;
/// we keep it to exactly one line per streak to stay quiet under floods).
#[derive(Debug)]
pub struct AcceptBackoff {
    delay: Duration,
    logged: bool,
}

/// First sleep after an accept error.
const ACCEPT_BACKOFF_INITIAL: Duration = Duration::from_millis(1);
/// Ceiling for the accept-error sleep.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

impl Default for AcceptBackoff {
    fn default() -> Self {
        Self::new()
    }
}

impl AcceptBackoff {
    /// A fresh (reset) backoff.
    pub fn new() -> Self {
        Self {
            delay: ACCEPT_BACKOFF_INITIAL,
            logged: false,
        }
    }

    /// Called on an `accept()` error: returns how long the acceptor should
    /// sleep before retrying, and whether this error should be logged
    /// (true exactly once per error streak).
    pub fn on_error(&mut self) -> (Duration, bool) {
        let delay = self.delay;
        self.delay = (self.delay * 2).min(ACCEPT_BACKOFF_MAX);
        let log = !self.logged;
        self.logged = true;
        (delay, log)
    }

    /// Called on a successful accept: resets the streak.
    pub fn on_success(&mut self) {
        self.delay = ACCEPT_BACKOFF_INITIAL;
        self.logged = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_obs::Obs;
    use std::sync::Arc;

    fn gate(limit: usize, queue: usize, wait_ms: u64) -> (Arc<Obs>, AdmissionGate) {
        let obs = Arc::new(Obs::new());
        let gate = AdmissionGate::new(
            AdmissionConfig {
                max_inflight_repairs: limit,
                max_queue: queue,
                queue_wait: Duration::from_millis(wait_ms),
                retry_after_secs: 3,
            },
            obs.metrics(),
        );
        (obs, gate)
    }

    #[test]
    fn grants_up_to_limit_then_sheds() {
        let (obs, gate) = gate(2, 0, 10);
        // max_queue auto-resolves to 2 * limit = 4; fill in-flight first.
        let p1 = match gate.acquire() {
            Admission::Granted(p) => p,
            _ => panic!("first acquire grants"),
        };
        let _p2 = match gate.acquire() {
            Admission::Granted(p) => p,
            _ => panic!("second acquire grants"),
        };
        assert_eq!(gate.inflight(), 2);
        // Third queues and times out (nobody releases within 10 ms).
        match gate.acquire() {
            Admission::Shed {
                reason,
                retry_after_secs,
            } => {
                assert_eq!(reason, ShedReason::Timeout);
                assert_eq!(retry_after_secs, 3);
            }
            _ => panic!("over-limit acquire must shed"),
        }
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter_total("serve_shed_total"), 1);
        // Release one; the next acquire is instant.
        drop(p1);
        let p3 = match gate.acquire() {
            Admission::Granted(p) => p,
            _ => panic!("freed permit admits the next acquire"),
        };
        assert_eq!(gate.inflight(), 2);
        drop(p3);
    }

    #[test]
    fn queue_full_sheds_immediately() {
        let (obs, gate) = gate(1, 1, 200);
        let _p = match gate.acquire() {
            Admission::Granted(p) => p,
            _ => panic!("grants"),
        };
        // One waiter occupies the queue slot in a thread...
        std::thread::scope(|s| {
            s.spawn(|| {
                // This one waits the full 200 ms window and sheds on
                // timeout (the permit is held for the whole test).
                assert!(matches!(
                    gate.acquire(),
                    Admission::Shed {
                        reason: ShedReason::Timeout,
                        ..
                    }
                ));
            });
            // ...so an arrival while the queue is occupied sheds at once,
            // well before the 200 ms wait window.
            std::thread::sleep(Duration::from_millis(50));
            let started = Instant::now();
            assert!(matches!(
                gate.acquire(),
                Admission::Shed {
                    reason: ShedReason::QueueFull,
                    ..
                }
            ));
            assert!(started.elapsed() < Duration::from_millis(100));
        });
        let snap = obs.metrics().snapshot();
        assert_eq!(
            snap.counter("serve_shed_total", "route=\"repair\",reason=\"queue_full\""),
            Some(1)
        );
        assert_eq!(
            snap.counter("serve_shed_total", "route=\"repair\",reason=\"timeout\""),
            Some(1)
        );
    }

    #[test]
    fn queued_request_is_admitted_when_a_permit_frees() {
        let (_obs, gate) = gate(1, 2, 5_000);
        let p1 = match gate.acquire() {
            Admission::Granted(p) => p,
            _ => panic!("grants"),
        };
        std::thread::scope(|s| {
            let h = s.spawn(|| match gate.acquire() {
                Admission::Granted(_) => true,
                Admission::Shed { .. } => false,
            });
            std::thread::sleep(Duration::from_millis(30));
            drop(p1);
            assert!(h.join().unwrap(), "freed permit admits the waiter");
        });
        assert_eq!(gate.inflight(), 0, "all permits released");
    }

    #[test]
    fn auto_limits_resolve_sanely() {
        let config = AdmissionConfig::default();
        assert!(config.resolved_limit() >= 8);
        assert_eq!(config.resolved_queue(), 2 * config.resolved_limit());
        let fixed = AdmissionConfig {
            max_inflight_repairs: 3,
            max_queue: 7,
            ..AdmissionConfig::default()
        };
        assert_eq!(fixed.resolved_limit(), 3);
        assert_eq!(fixed.resolved_queue(), 7);
    }

    #[test]
    fn accept_backoff_doubles_caps_and_logs_once_per_streak() {
        let mut b = AcceptBackoff::new();
        let (d1, log1) = b.on_error();
        assert_eq!(d1, Duration::from_millis(1));
        assert!(log1, "first error of a streak logs");
        let (d2, log2) = b.on_error();
        assert_eq!(d2, Duration::from_millis(2));
        assert!(!log2, "rest of the streak is quiet");
        let mut last = d2;
        for _ in 0..10 {
            let (d, log) = b.on_error();
            assert!(!log);
            assert!(d >= last);
            last = d;
        }
        assert_eq!(last, Duration::from_millis(100), "capped at 100 ms");
        b.on_success();
        let (d, log) = b.on_error();
        assert_eq!(d, Duration::from_millis(1), "success resets the streak");
        assert!(log, "new streak logs again");
    }
}
