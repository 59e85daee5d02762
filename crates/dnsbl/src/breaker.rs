//! Circuit breaker for external DNSBL dependencies.
//!
//! The paper's §9 stance is that DNSBL checking must never delay or deny
//! mail service. A blackholed or flapping resolver violates that stance
//! indirectly: every connection pays the full lookup timeout before the
//! greeting-side machinery moves on. This breaker converts a dead
//! dependency from a per-connection stall into a per-*backoff-window*
//! probe: after [`FAILURE_THRESHOLD`] consecutive failures the circuit
//! opens, lookups are short-circuited (the caller fails open to "not
//! listed"), and one half-open probe is admitted per backoff window. The
//! backoff doubles deterministically on each failed probe up to
//! [`MAX_BACKOFF`] and resets to [`OPEN_BACKOFF`] when a probe succeeds.
//!
//! Time comes exclusively from an injected [`Clock`], so the whole state
//! machine is a pure function of the call sequence and the clock readings
//! — tests drive it with a `ManualClock` and assert exact transitions.
//!
//! # Example
//!
//! ```
//! use spamaware_dnsbl::{BreakerDecision, CircuitBreaker, FAILURE_THRESHOLD, OPEN_BACKOFF};
//! use spamaware_metrics::ManualClock;
//! use std::sync::Arc;
//!
//! let clock = ManualClock::new();
//! let mut breaker = CircuitBreaker::new(Arc::new(clock.clone()));
//! assert_eq!(breaker.admit(), BreakerDecision::Allow);
//! for _ in 0..FAILURE_THRESHOLD {
//!     breaker.record_failure(); // the last one opens the circuit
//! }
//! assert_eq!(breaker.admit(), BreakerDecision::ShortCircuit);
//! clock.advance(OPEN_BACKOFF.as_nanos() as u64); // backoff elapsed
//! assert_eq!(breaker.admit(), BreakerDecision::Probe);
//! breaker.record_success();
//! assert_eq!(breaker.admit(), BreakerDecision::Allow);
//! ```

use spamaware_metrics::{Clock, Counter, Gauge, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Consecutive failures (while closed) that open the circuit.
pub const FAILURE_THRESHOLD: u32 = 3;

/// How long the circuit stays open after tripping; also the backoff a
/// successful probe resets to.
pub const OPEN_BACKOFF: Duration = Duration::from_secs(1);

/// Cap for the backoff doubling applied when a half-open probe fails.
pub const MAX_BACKOFF: Duration = Duration::from_secs(60);

/// What the breaker decided about one prospective lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Circuit closed: do the lookup.
    Allow,
    /// Circuit half-open: do the lookup as the one probe of this window.
    Probe,
    /// Circuit open (or a probe is already outstanding): skip the lookup
    /// and fail open.
    ShortCircuit,
}

/// Gauge encoding of the breaker state (`*.breaker_state`).
const STATE_CLOSED: i64 = 0;
const STATE_OPEN: i64 = 1;
const STATE_HALF_OPEN: i64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Healthy: lookups flow, consecutive failures are counted.
    Closed { failures: u32 },
    /// Tripped: lookups short-circuit until `until_ns`.
    Open { until_ns: u64, backoff_ns: u64 },
    /// One probe admitted; its outcome decides open-again vs closed.
    HalfOpen { backoff_ns: u64 },
}

/// Optional instrument handles (`{prefix}.breaker_*`).
#[derive(Debug)]
struct BreakerMetrics {
    opened: Arc<Counter>,
    closed: Arc<Counter>,
    short_circuits: Arc<Counter>,
    probes: Arc<Counter>,
    state: Arc<Gauge>,
}

/// A consecutive-failure circuit breaker over an injected [`Clock`].
///
/// Not internally synchronized: the intended owner is a single dispatch
/// thread (the live server's master loop). See the module docs for the
/// state machine.
#[derive(Debug)]
pub struct CircuitBreaker {
    clock: Arc<dyn Clock>,
    state: State,
    metrics: Option<BreakerMetrics>,
}

impl CircuitBreaker {
    /// Creates a closed breaker reading time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> CircuitBreaker {
        CircuitBreaker {
            clock,
            state: State::Closed { failures: 0 },
            metrics: None,
        }
    }

    /// Registers `{prefix}.breaker_opened/_closed/_short_circuits/_probes`
    /// counters and a `{prefix}.breaker_state` gauge (0 closed, 1 open,
    /// 2 half-open) in `registry`.
    pub fn with_metrics(mut self, registry: &Registry, prefix: &str) -> CircuitBreaker {
        let m = BreakerMetrics {
            opened: registry.counter(&format!("{prefix}.breaker_opened")),
            closed: registry.counter(&format!("{prefix}.breaker_closed")),
            short_circuits: registry.counter(&format!("{prefix}.breaker_short_circuits")),
            probes: registry.counter(&format!("{prefix}.breaker_probes")),
            state: registry.gauge(&format!("{prefix}.breaker_state")),
        };
        m.state.set(STATE_CLOSED);
        self.metrics = Some(m);
        self
    }

    /// Decides whether a lookup may proceed right now. A [`BreakerDecision::Allow`]
    /// or [`BreakerDecision::Probe`] must be answered with exactly one
    /// [`record_success`](Self::record_success) or
    /// [`record_failure`](Self::record_failure) call.
    pub fn admit(&mut self) -> BreakerDecision {
        match self.state {
            State::Closed { .. } => BreakerDecision::Allow,
            State::Open {
                until_ns,
                backoff_ns,
            } => {
                if self.clock.now_nanos() >= until_ns {
                    self.set_state(State::HalfOpen { backoff_ns });
                    if let Some(m) = &self.metrics {
                        m.probes.inc();
                    }
                    BreakerDecision::Probe
                } else {
                    if let Some(m) = &self.metrics {
                        m.short_circuits.inc();
                    }
                    BreakerDecision::ShortCircuit
                }
            }
            // A probe is already in flight; everyone else fails open.
            State::HalfOpen { .. } => {
                if let Some(m) = &self.metrics {
                    m.short_circuits.inc();
                }
                BreakerDecision::ShortCircuit
            }
        }
    }

    /// Reports a successful lookup: closes the circuit and resets both the
    /// failure count and the backoff.
    pub fn record_success(&mut self) {
        let was_half_open = matches!(self.state, State::HalfOpen { .. });
        self.set_state(State::Closed { failures: 0 });
        if was_half_open {
            if let Some(m) = &self.metrics {
                m.closed.inc();
            }
        }
    }

    /// Reports a failed lookup (timeout, network error, garbled answer).
    /// While closed, counts toward the threshold; while half-open, reopens
    /// with the backoff doubled (capped at [`MAX_BACKOFF`]).
    pub fn record_failure(&mut self) {
        let now = self.clock.now_nanos();
        match self.state {
            State::Closed { failures } => {
                let failures = failures + 1;
                if failures >= FAILURE_THRESHOLD {
                    self.open(now, duration_ns(OPEN_BACKOFF));
                } else {
                    self.state = State::Closed { failures };
                }
            }
            State::HalfOpen { backoff_ns } => {
                let doubled = backoff_ns
                    .saturating_mul(2)
                    .min(duration_ns(MAX_BACKOFF))
                    .max(1);
                self.open(now, doubled);
            }
            // Failure reported without an admit (defensive): restart the
            // current window from now.
            State::Open { backoff_ns, .. } => {
                self.state = State::Open {
                    until_ns: now.saturating_add(backoff_ns),
                    backoff_ns,
                };
            }
        }
    }

    /// Whether the circuit is currently open (short-circuiting lookups).
    pub fn is_open(&self) -> bool {
        matches!(self.state, State::Open { .. })
    }

    /// The state name, for reports and logs.
    pub fn state_name(&self) -> &'static str {
        match self.state {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen { .. } => "half-open",
        }
    }

    fn open(&mut self, now: u64, backoff_ns: u64) {
        self.set_state(State::Open {
            until_ns: now.saturating_add(backoff_ns),
            backoff_ns,
        });
        if let Some(m) = &self.metrics {
            m.opened.inc();
        }
    }

    fn set_state(&mut self, state: State) {
        self.state = state;
        if let Some(m) = &self.metrics {
            m.state.set(match self.state {
                State::Closed { .. } => STATE_CLOSED,
                State::Open { .. } => STATE_OPEN,
                State::HalfOpen { .. } => STATE_HALF_OPEN,
            });
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamaware_metrics::ManualClock;

    const SEC: u64 = 1_000_000_000;

    fn breaker(clock: &ManualClock) -> CircuitBreaker {
        CircuitBreaker::new(Arc::new(clock.clone()))
    }

    #[test]
    fn the_knobs_are_the_shipped_ones() {
        assert_eq!(FAILURE_THRESHOLD, 3);
        assert_eq!(duration_ns(OPEN_BACKOFF), SEC);
        assert_eq!(duration_ns(MAX_BACKOFF), 60 * SEC);
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let clock = ManualClock::new();
        let mut b = breaker(&clock);
        for _ in 0..2 {
            assert_eq!(b.admit(), BreakerDecision::Allow);
            b.record_failure();
            assert!(!b.is_open());
        }
        assert_eq!(b.admit(), BreakerDecision::Allow);
        b.record_failure();
        assert!(b.is_open());
        assert_eq!(b.admit(), BreakerDecision::ShortCircuit);
    }

    #[test]
    fn success_resets_the_failure_count() {
        let clock = ManualClock::new();
        let mut b = breaker(&clock);
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert!(!b.is_open(), "non-consecutive failures never open");
    }

    #[test]
    fn half_open_probe_after_backoff_success_closes() {
        let clock = ManualClock::new();
        let mut b = breaker(&clock);
        for _ in 0..3 {
            b.record_failure();
        }
        assert!(b.is_open());
        clock.advance(SEC - 1);
        assert_eq!(b.admit(), BreakerDecision::ShortCircuit, "1ns early");
        clock.advance(1);
        assert_eq!(b.admit(), BreakerDecision::Probe, "exactly at backoff");
        // Concurrent admit while the probe is outstanding fails open.
        assert_eq!(b.admit(), BreakerDecision::ShortCircuit);
        b.record_success();
        assert_eq!(b.state_name(), "closed");
        assert_eq!(b.admit(), BreakerDecision::Allow);
    }

    #[test]
    fn failed_probes_double_backoff_deterministically_up_to_cap() {
        let clock = ManualClock::new();
        let mut b = breaker(&clock);
        for _ in 0..3 {
            b.record_failure();
        }
        // Windows: 1 s, doubling on each failed probe, capped at 60 s.
        for expect_s in [1u64, 2, 4, 8, 16, 32, 60, 60] {
            clock.advance(expect_s * SEC - 1);
            assert_eq!(b.admit(), BreakerDecision::ShortCircuit, "{expect_s}s");
            clock.advance(1);
            assert_eq!(b.admit(), BreakerDecision::Probe, "{expect_s}s");
            b.record_failure();
        }
        // A successful probe resets the backoff to OPEN_BACKOFF.
        clock.advance(60 * SEC);
        assert_eq!(b.admit(), BreakerDecision::Probe);
        b.record_success();
        for _ in 0..3 {
            b.record_failure();
        }
        clock.advance(SEC);
        assert_eq!(b.admit(), BreakerDecision::Probe, "backoff reset to base");
    }

    #[test]
    fn state_machine_is_deterministic_under_replay() {
        let run = || {
            let clock = ManualClock::new();
            let registry = Registry::new(Arc::new(clock.clone()));
            let mut b = breaker(&clock).with_metrics(&registry, "dnsbl");
            for step in 0..50u64 {
                clock.advance(37_000_000);
                match b.admit() {
                    BreakerDecision::Allow | BreakerDecision::Probe => {
                        if step % 3 == 0 {
                            b.record_success();
                        } else {
                            b.record_failure();
                        }
                    }
                    BreakerDecision::ShortCircuit => {}
                }
            }
            registry.render()
        };
        assert_eq!(run(), run(), "byte-identical metrics across replays");
    }

    #[test]
    fn metrics_track_transitions() {
        let clock = ManualClock::new();
        let registry = Registry::new(Arc::new(clock.clone()));
        let mut b = breaker(&clock).with_metrics(&registry, "dnsbl");
        for _ in 0..3 {
            b.record_failure();
        }
        assert_eq!(registry.counter_value("dnsbl.breaker_opened"), Some(1));
        assert_eq!(registry.gauge_value("dnsbl.breaker_state"), Some(1));
        b.admit();
        assert_eq!(
            registry.counter_value("dnsbl.breaker_short_circuits"),
            Some(1)
        );
        clock.advance(SEC);
        b.admit();
        assert_eq!(registry.counter_value("dnsbl.breaker_probes"), Some(1));
        assert_eq!(registry.gauge_value("dnsbl.breaker_state"), Some(2));
        b.record_success();
        assert_eq!(registry.counter_value("dnsbl.breaker_closed"), Some(1));
        assert_eq!(registry.gauge_value("dnsbl.breaker_state"), Some(0));
    }
}
