//! The driver's deadlines: armed timers kept in `(deadline, id)` order.
//!
//! The session engine (DESIGN.md §15.1) arms up to four timers per
//! connection and sizes every reactor wait to the earliest. An id →
//! deadline map finds a timer to re-arm or cancel; a `BTreeSet` of
//! `(deadline_ns, id)` pairs beside it makes the earliest its `first()`
//! and firing its `pop_first()`: `O(log n)` per operation, exact to the
//! nanosecond. No clock, hash container or I/O is touched, so the timers
//! replay byte-identically under the simulated reactor, and
//! `tests/wheel_prop.rs` pins them to a brute-force scan.

use std::collections::{BTreeMap, BTreeSet};

/// Timer ids mapped to nanosecond deadlines, fired in `(deadline, id)`
/// order. Scheduling an id that is already armed replaces its deadline.
/// The name is older than the ordered set behind it.
#[derive(Debug)]
pub struct TimerWheel {
    /// id → deadline_ns of every armed timer.
    armed: BTreeMap<u64, u64>,
    /// `(deadline_ns, id)` of every armed timer, earliest first.
    due: BTreeSet<(u64, u64)>,
}

impl TimerWheel {
    /// An empty set of timers. `now_ns` is ignored: a deadline is an
    /// absolute time, and what is due is decided by each
    /// [`advance`](Self::advance) alone.
    pub fn new(_now_ns: u64) -> TimerWheel {
        TimerWheel {
            armed: BTreeMap::new(),
            due: BTreeSet::new(),
        }
    }

    /// Armed timers.
    pub fn len(&self) -> usize {
        self.armed.len()
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Arms (or re-arms) timer `id` to fire once `deadline_ns` is
    /// reached. A deadline at or before the current `advance` time fires
    /// on the next `advance` call.
    pub fn schedule(&mut self, id: u64, deadline_ns: u64) {
        if let Some(old) = self.armed.insert(id, deadline_ns) {
            self.due.remove(&(old, id));
        }
        self.due.insert((deadline_ns, id));
    }

    /// Disarms timer `id`; a no-op if it is not armed.
    pub fn cancel(&mut self, id: u64) {
        if let Some(old) = self.armed.remove(&id) {
            self.due.remove(&(old, id));
        }
    }

    /// The earliest armed deadline, if any — the reactor wait is sized to
    /// `next_deadline - now`.
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.due.first().map(|&(deadline_ns, _)| deadline_ns)
    }

    /// Appends every timer whose deadline is `<= now_ns` to `out` as
    /// `(deadline_ns, id)`, sorted, and disarms it.
    pub fn advance(&mut self, now_ns: u64, out: &mut Vec<(u64, u64)>) {
        while let Some(&(deadline_ns, id)) = self.due.first().filter(|&&(d, _)| d <= now_ns) {
            self.due.pop_first();
            self.armed.remove(&id);
            out.push((deadline_ns, id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn fired(wheel: &mut TimerWheel, now_ns: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        wheel.advance(now_ns, &mut out);
        out
    }

    #[test]
    fn fires_in_deadline_then_id_order() {
        let mut w = TimerWheel::new(0);
        w.schedule(7, 30 * MS);
        w.schedule(3, 10 * MS);
        w.schedule(9, 10 * MS);
        assert_eq!(w.next_deadline(), Some(10 * MS));
        assert_eq!(
            fired(&mut w, 40 * MS),
            vec![(10 * MS, 3), (10 * MS, 9), (30 * MS, 7)]
        );
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn never_fires_early_and_never_loses_a_timer() {
        let mut w = TimerWheel::new(0);
        w.schedule(1, 500 * MS);
        assert!(fired(&mut w, 499 * MS).is_empty());
        assert_eq!(fired(&mut w, 500 * MS), vec![(500 * MS, 1)]);
        assert!(fired(&mut w, 10_000 * MS).is_empty());
    }

    #[test]
    fn reschedule_replaces_and_cancel_disarms() {
        let mut w = TimerWheel::new(0);
        w.schedule(1, 10 * MS);
        w.schedule(1, 200 * MS); // re-arm later: the 10 ms deadline is gone
        w.schedule(2, 50 * MS);
        w.cancel(2);
        assert!(fired(&mut w, 100 * MS).is_empty());
        assert_eq!(w.next_deadline(), Some(200 * MS));
        assert_eq!(fired(&mut w, 250 * MS), vec![(200 * MS, 1)]);
    }

    #[test]
    fn reschedule_to_same_deadline_fires_once() {
        let mut w = TimerWheel::new(0);
        w.schedule(1, 10 * MS);
        w.schedule(1, 10 * MS);
        assert_eq!(fired(&mut w, 20 * MS), vec![(10 * MS, 1)]);
        assert!(fired(&mut w, 40 * MS).is_empty());
    }

    #[test]
    fn past_deadline_fires_on_next_advance() {
        let mut w = TimerWheel::new(100 * MS);
        w.schedule(1, 5 * MS);
        assert_eq!(fired(&mut w, 100 * MS), vec![(5 * MS, 1)]);
    }

    #[test]
    fn outer_level_and_overflow_deadlines_survive_the_trip_in() {
        let mut w = TimerWheel::new(0);
        let hour = 3_600_000 * MS;
        w.schedule(1, 6 * hour);
        w.schedule(2, 2 * hour);
        w.schedule(3, 90 * MS);
        assert_eq!(fired(&mut w, 100 * MS), vec![(90 * MS, 3)]);
        assert!(fired(&mut w, hour).is_empty());
        assert_eq!(fired(&mut w, 3 * hour), vec![(2 * hour, 2)]);
        assert_eq!(fired(&mut w, 7 * hour), vec![(6 * hour, 1)]);
        assert!(w.is_empty());
    }

    #[test]
    fn dense_reschedules_stay_bounded_by_the_sweep() {
        let mut w = TimerWheel::new(0);
        for round in 0..10_000u64 {
            w.schedule(1, (round + 2) * MS);
        }
        assert_eq!(w.len(), 1);
        assert_eq!(fired(&mut w, 20_000 * MS), vec![(10_001 * MS, 1)]);
    }
}
