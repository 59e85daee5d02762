//! Deterministic event queue and simulation drivers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Nanos;

/// The simulated system: owns all state and reacts to events.
///
/// A `World` implementation is the "program" run by the DES kernel. The
/// kernel pops the next `(time, event)` pair, advances the virtual clock,
/// and hands the event to [`World::handle`], which may schedule further
/// events. See the crate-level example.
pub trait World {
    /// The event alphabet of this simulation.
    type Event;

    /// Reacts to one event fired at the scheduler's current time.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, ev: Self::Event);
}

/// A deterministic future-event queue over event type `E`.
///
/// Events scheduled for the same instant fire in FIFO order of scheduling
/// (ties broken by a monotone sequence number), which keeps simulations
/// fully deterministic for a fixed seed.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: Nanos,
    seq: u64,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    dispatched: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: Nanos,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Scheduler<E> {
        Scheduler {
            now: Nanos::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            dispatched: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `ev` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Scheduler::now`]).
    pub fn schedule_at(&mut self, at: Nanos, ev: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, ev }));
    }

    /// Schedules `ev` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Nanos, ev: E) {
        self.schedule_at(self.now + delay, ev);
    }

    /// Pops the next event, advancing the clock to its firing time.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let Reverse(e) = self.heap.pop()?;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        self.dispatched += 1;
        Some((e.at, e.ev))
    }

    /// Peeks at the firing time of the next event without popping it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

/// Runs the simulation until the event queue drains.
pub fn run<W: World>(sched: &mut Scheduler<W::Event>, world: &mut W) {
    while let Some((_, ev)) = sched.pop() {
        world.handle(sched, ev);
    }
}

/// Runs the simulation until the event queue drains or the clock would pass
/// `horizon`. Events scheduled strictly after `horizon` are left unfired;
/// the clock is advanced to exactly `horizon` on return if any remain.
pub fn run_until<W: World>(sched: &mut Scheduler<W::Event>, world: &mut W, horizon: Nanos) {
    loop {
        match sched.peek_time() {
            Some(t) if t <= horizon => {
                let (_, ev) = sched.pop().expect("peeked event must exist");
                world.handle(sched, ev);
            }
            Some(_) => {
                sched.now = horizon;
                return;
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
        Chain(u32),
    }

    struct Log(Vec<(Nanos, String)>);

    impl World for Log {
        type Event = Ev;
        fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
            self.0.push((sched.now(), format!("{ev:?}")));
            if let Ev::Chain(n) = ev {
                if n > 0 {
                    sched.schedule_in(Nanos::from_micros(10), Ev::Chain(n - 1));
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(Nanos::from_micros(20), Ev::B);
        s.schedule_at(Nanos::from_micros(10), Ev::A);
        let mut w = Log(Vec::new());
        run(&mut s, &mut w);
        assert_eq!(w.0[0], (Nanos::from_micros(10), "A".into()));
        assert_eq!(w.0[1], (Nanos::from_micros(20), "B".into()));
        assert_eq!(s.dispatched(), 2);
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        let mut s = Scheduler::new();
        s.schedule_at(Nanos::from_micros(5), Ev::A);
        s.schedule_at(Nanos::from_micros(5), Ev::B);
        let mut w = Log(Vec::new());
        run(&mut s, &mut w);
        assert_eq!(w.0[0].1, "A");
        assert_eq!(w.0[1].1, "B");
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut s = Scheduler::new();
        s.schedule_at(Nanos::ZERO, Ev::Chain(3));
        let mut w = Log(Vec::new());
        run(&mut s, &mut w);
        assert_eq!(w.0.len(), 4);
        assert_eq!(s.now(), Nanos::from_micros(30));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut s = Scheduler::new();
        s.schedule_at(Nanos::ZERO, Ev::Chain(100));
        let mut w = Log(Vec::new());
        run_until(&mut s, &mut w, Nanos::from_micros(25));
        // Events at 0, 10, 20 fire; 30 does not.
        assert_eq!(w.0.len(), 3);
        assert_eq!(s.now(), Nanos::from_micros(25));
        assert_eq!(s.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s: Scheduler<Ev> = Scheduler::new();
        s.schedule_at(Nanos::from_micros(10), Ev::A);
        s.pop();
        s.schedule_at(Nanos::from_micros(5), Ev::B);
    }
}
