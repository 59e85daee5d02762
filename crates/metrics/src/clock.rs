//! Injectable time sources for span timers.
//!
//! The live server measures real elapsed time ([`WallClock`]); simulations
//! and deterministic tests inject a [`ManualClock`] (or the DES kernel's
//! scheduler-backed clock) so that every recorded duration — and therefore
//! every rendered report — is a pure function of the workload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonic nanosecond time source.
///
/// Implementations must be cheap (called on every span start/stop) and
/// monotone non-decreasing; span timers saturate on regression rather than
/// panic.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Nanoseconds since an arbitrary epoch fixed at construction.
    fn now_nanos(&self) -> u64;
}

/// Real elapsed time since the clock was created.
///
/// This is the one deliberate wall-clock read in the workspace's
/// instrumented path: the live TCP server measures real durations.
/// Deterministic runs must inject a [`ManualClock`] instead —
/// `crates/clippy.toml` refuses any *other* wall-clock read in this crate.
#[derive(Debug)]
pub struct WallClock {
    epoch: std::time::Instant,
}

impl WallClock {
    /// Creates a wall clock whose epoch is "now".
    #[expect(clippy::disallowed_methods, reason = "the one sanctioned wall clock")]
    pub fn new() -> WallClock {
        WallClock {
            epoch: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for tests and simulations.
///
/// Cloning shares the underlying instant, so a simulation driver can keep
/// one handle to advance while registries and spans read through another.
///
/// # Example
///
/// ```
/// use spamaware_metrics::{Clock, ManualClock};
/// let clock = ManualClock::new();
/// clock.advance(250);
/// assert_eq!(clock.now_nanos(), 250);
/// clock.set(1_000);
/// assert_eq!(clock.now_nanos(), 1_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// Creates a clock frozen at nanosecond zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Jumps the clock to an absolute nanosecond value.
    pub fn set(&self, ns: u64) {
        self.0.store(ns, Ordering::Relaxed);
    }

    /// Moves the clock forward by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_is_shared_across_clones() {
        let c = ManualClock::new();
        let view = c.clone();
        c.advance(7);
        assert_eq!(view.now_nanos(), 7);
    }
}
