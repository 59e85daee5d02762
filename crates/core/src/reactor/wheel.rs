//! A hierarchical timer wheel for the master's deadline bookkeeping.
//!
//! The readiness-driven master (DESIGN.md §15) needs one timer per
//! pre-trust connection per deadline kind (idle, whole-session), and it
//! needs the earliest deadline cheaply every loop iteration to size the
//! reactor wait. A `BTreeMap<(deadline, id)>` would do, but costs
//! `O(log n)` per reschedule on the hottest path (every byte of client
//! progress re-arms the idle timer). The wheel makes insert, cancel, and
//! per-tick advance `O(1)` amortized:
//!
//! * Resolution is one tick = 2^[`TICK_SHIFT`] ns ≈ 1.05 ms — far finer
//!   than the coarsest deadline knob (tens of seconds) and finer than the
//!   100 ms read slices it replaces.
//! * Four levels of 64 slots cover `64^4` ticks ≈ 4.9 h; deadlines past
//!   the horizon sit in an overflow list that recirculates when the
//!   outermost level wraps. Entries cascade toward level 0 as their due
//!   tick approaches.
//! * Cancellation and reschedule are lazy: the authoritative state is the
//!   `active` id → deadline map, and slot entries that no longer match it
//!   are dropped when their slot is next drained (a sweep bounds how many
//!   stale copies can pile up).
//!
//! [`TimerWheel::advance`] reports expirations sorted by `(deadline, id)`
//! — exactly the firing order of the reference `BTreeMap` model, which is
//! what the property tests in `tests/wheel_prop.rs` pin down.
//!
//! Everything here is pure data structure: no clock reads, no hash
//! containers, no I/O — `crates/core/clippy.toml` refuses the clock and
//! ambient entropy (DESIGN.md §9), so the wheel behaves byte-identically
//! under the simulated reactor.

use std::collections::BTreeMap;

/// log2 of the tick length in nanoseconds (2^20 ns ≈ 1.05 ms).
pub const TICK_SHIFT: u32 = 20;
/// Slots per level (64 ⇒ 6 bits of tick index per level).
const SLOTS: u64 = 64;
/// Bits of tick index consumed per level.
const LEVEL_BITS: u32 = 6;
/// Hierarchy depth; the wheel spans `SLOTS^LEVELS` ticks (≈ 4.9 h).
const LEVELS: usize = 4;
/// Ticks the wheel horizon covers before the overflow list takes over.
const HORIZON: u64 = SLOTS * SLOTS * SLOTS * SLOTS;
/// An `advance` jumping further than this many ticks rebuilds the wheel
/// in one `O(n)` pass instead of stepping tick by tick — virtual time in
/// the simulated reactor routinely leaps minutes at once.
const REBUILD_JUMP: u64 = SLOTS * SLOTS;

/// Hierarchical timer wheel mapping `u64` timer ids to nanosecond
/// deadlines. Scheduling an id that is already armed replaces its
/// deadline.
#[derive(Debug)]
pub struct TimerWheel {
    /// Current time, in ticks (`now_ns >> TICK_SHIFT`).
    now_tick: u64,
    /// `LEVELS * SLOTS` buckets of `(id, deadline_ns)` placements; index
    /// `level * SLOTS + slot`. Entries whose `(id, deadline)` no longer
    /// match [`TimerWheel::active`] are stale and dropped on contact.
    slots: Vec<Vec<(u64, u64)>>,
    /// Deadlines beyond the wheel horizon, recirculated on outer wrap.
    overflow: Vec<(u64, u64)>,
    /// Authoritative armed-timer state: id → deadline_ns.
    active: BTreeMap<u64, u64>,
    /// Cached earliest deadline; `None` when empty, recomputed lazily
    /// when the minimum itself was cancelled or fired.
    min_deadline: Option<u64>,
    min_dirty: bool,
    /// Stale placements accumulated by reschedules/cancels since the last
    /// sweep; bounds wheel memory at `O(active)`.
    stale: usize,
}

impl TimerWheel {
    /// An empty wheel whose "now" is `now_ns`.
    pub fn new(now_ns: u64) -> TimerWheel {
        TimerWheel {
            now_tick: now_ns >> TICK_SHIFT,
            slots: (0..(LEVELS as u64 * SLOTS)).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            active: BTreeMap::new(),
            min_deadline: None,
            min_dirty: false,
            stale: 0,
        }
    }

    /// Armed timers.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Arms (or re-arms) timer `id` to fire once `deadline_ns` is
    /// reached. A deadline at or before the current `advance` time fires
    /// on the next `advance` call.
    pub fn schedule(&mut self, id: u64, deadline_ns: u64) {
        match self.active.insert(id, deadline_ns) {
            Some(old) if old == deadline_ns => {
                // Same deadline re-armed: the existing placement already
                // covers it; a second copy would be indistinguishable
                // from it, so leave the wheel untouched.
                return;
            }
            Some(old) => {
                self.note_removed(old);
                self.stale += 1;
            }
            None => {}
        }
        match self.min_deadline {
            Some(m) if m <= deadline_ns => {}
            _ => self.min_deadline = Some(deadline_ns),
        }
        self.place(id, deadline_ns);
        self.maybe_sweep();
    }

    /// Disarms timer `id`; a no-op if it is not armed.
    pub fn cancel(&mut self, id: u64) {
        if let Some(old) = self.active.remove(&id) {
            self.note_removed(old);
            self.stale += 1;
            self.maybe_sweep();
        }
    }

    /// The earliest armed deadline, if any — the reactor wait is sized to
    /// `next_deadline - now`.
    pub fn next_deadline(&mut self) -> Option<u64> {
        if self.min_dirty {
            self.min_deadline = self.active.values().copied().min();
            self.min_dirty = false;
        }
        self.min_deadline
    }

    /// Moves time forward to `now_ns` and appends every timer whose
    /// deadline is `<= now_ns` to `out` as `(deadline_ns, id)`, sorted —
    /// the same global order a `BTreeMap<(deadline, id)>` reference model
    /// fires in. Fired timers are disarmed.
    pub fn advance(&mut self, now_ns: u64, out: &mut Vec<(u64, u64)>) {
        let target_tick = now_ns >> TICK_SHIFT;
        let start = out.len();
        if target_tick > self.now_tick.saturating_add(REBUILD_JUMP) {
            self.rebuild(now_ns, out);
        } else {
            while self.now_tick < target_tick {
                self.now_tick += 1;
                self.cascade(self.now_tick);
                let idx = (self.now_tick % SLOTS) as usize;
                self.drain_slot(idx, now_ns, out);
            }
            // Same-tick deadlines: entries due earlier in the current
            // tick live in the current level-0 slot.
            let idx = (self.now_tick % SLOTS) as usize;
            self.drain_slot(idx, now_ns, out);
        }
        out[start..].sort_unstable();
    }

    /// Whether `(id, deadline)` is the live placement of an armed timer.
    fn is_live(&self, id: u64, deadline_ns: u64) -> bool {
        self.active.get(&id) == Some(&deadline_ns)
    }

    fn note_removed(&mut self, deadline_ns: u64) {
        if self.min_deadline == Some(deadline_ns) {
            self.min_dirty = true;
            if self.active.is_empty() {
                self.min_deadline = None;
                self.min_dirty = false;
            }
        }
    }

    /// Buckets a live `(id, deadline)` relative to `now_tick`. A deadline
    /// already in the past is clamped to the current tick so the trailing
    /// same-tick drain in [`TimerWheel::advance`] picks it up — otherwise
    /// it would sit in a slot the tick cursor has already moved past.
    fn place(&mut self, id: u64, deadline_ns: u64) {
        let dl_tick = (deadline_ns >> TICK_SHIFT).max(self.now_tick);
        let delta = dl_tick - self.now_tick;
        let mut span = SLOTS;
        for level in 0..LEVELS {
            if delta < span {
                let slot = (dl_tick >> (LEVEL_BITS * level as u32)) % SLOTS;
                self.slots[level * SLOTS as usize + slot as usize].push((id, deadline_ns));
                return;
            }
            span *= SLOTS;
        }
        self.overflow.push((id, deadline_ns));
    }

    /// On entering `tick`, recirculates every outer bucket whose window
    /// just became current, deepest level first.
    fn cascade(&mut self, tick: u64) {
        if !tick.is_multiple_of(SLOTS) {
            return;
        }
        if tick.is_multiple_of(HORIZON) {
            let moved = std::mem::take(&mut self.overflow);
            self.replace_all(moved);
        }
        // Level 3 wraps every SLOTS^3 ticks, level 2 every SLOTS^2, level
        // 1 every SLOTS; a coarser wrap implies all finer ones.
        for level in (1..LEVELS).rev() {
            let span = SLOTS.pow(level as u32);
            if tick.is_multiple_of(span) {
                let slot = (tick >> (LEVEL_BITS * level as u32)) % SLOTS;
                let moved = std::mem::take(&mut self.slots[level * SLOTS as usize + slot as usize]);
                self.replace_all(moved);
            }
        }
    }

    fn replace_all(&mut self, moved: Vec<(u64, u64)>) {
        for (id, dl) in moved {
            if self.is_live(id, dl) {
                self.place(id, dl);
            } else {
                self.stale = self.stale.saturating_sub(1);
            }
        }
    }

    /// Drains one bucket: fires live entries that are due, re-places live
    /// entries that are not (same-tick stragglers), drops stale copies.
    fn drain_slot(&mut self, idx: usize, now_ns: u64, out: &mut Vec<(u64, u64)>) {
        if self.slots[idx].is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.slots[idx]);
        for (id, dl) in entries {
            if !self.is_live(id, dl) {
                self.stale = self.stale.saturating_sub(1);
            } else if dl <= now_ns {
                self.active.remove(&id);
                self.note_removed(dl);
                out.push((dl, id));
            } else {
                self.place(id, dl);
            }
        }
    }

    /// `O(n)` catch-up for a large time jump: drop every placement, move
    /// `now` to the target, fire what is due, re-bucket the rest.
    fn rebuild(&mut self, now_ns: u64, out: &mut Vec<(u64, u64)>) {
        let mut live: Vec<(u64, u64)> = Vec::with_capacity(self.active.len());
        for bucket in &mut self.slots {
            bucket.clear();
        }
        self.overflow.clear();
        self.stale = 0;
        self.now_tick = now_ns >> TICK_SHIFT;
        for (&id, &dl) in &self.active {
            live.push((id, dl));
        }
        for (id, dl) in live {
            if dl <= now_ns {
                self.active.remove(&id);
                self.note_removed(dl);
                out.push((dl, id));
            } else {
                self.place(id, dl);
            }
        }
    }

    /// Compacts the wheel once stale placements outnumber live ones.
    fn maybe_sweep(&mut self) {
        if self.stale <= SLOTS as usize + 4 * self.active.len() {
            return;
        }
        for idx in 0..self.slots.len() {
            let before = std::mem::take(&mut self.slots[idx]);
            self.slots[idx] = before
                .into_iter()
                .filter(|&(id, dl)| self.active.get(&id) == Some(&dl))
                .collect();
        }
        let active = &self.active;
        self.overflow
            .retain(|&(id, dl)| active.get(&id) == Some(&dl));
        self.stale = 0;
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
        w.schedule(1, 200 * MS); // re-arm later: the 10 ms copy is stale
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
        w.schedule(1, 6 * hour); // beyond the ~4.9 h horizon: overflow
        w.schedule(2, 2 * hour); // outermost in-wheel level
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
        // One live timer; the sweep kept stale copies from accumulating.
        assert_eq!(w.len(), 1);
        let placed: usize = w.slots.iter().map(Vec::len).sum::<usize>() + w.overflow.len();
        assert!(placed <= SLOTS as usize + 5, "stale pile-up: {placed}");
        assert_eq!(fired(&mut w, 20_000 * MS), vec![(10_001 * MS, 1)]);
    }
}
