#![deny(clippy::iter_over_hash_type)] // DESIGN.md §9
//! Discrete-event simulation (DES) kernel for the spam-aware mail server
//! reproduction.
//!
//! The kernel provides:
//!
//! * [`Nanos`] — a virtual-time instant/duration in nanoseconds.
//! * [`Scheduler`] — a deterministic event queue over a user-defined event
//!   type, plus the [`World`] trait and [`run`]/[`run_until`] drivers.
//! * [`FifoResource`] — a single-server FIFO queue with per-job service
//!   times and context-switch accounting, used to model CPUs and disks.
//! * [`dist`] — hand-rolled random distributions (exponential, lognormal,
//!   Pareto) built on [`rand`], since `rand_distr` is out of scope.
//! * [`Readout`] — the plain copy of a
//!   [`spamaware_metrics::LogHistogram`] that reports carry, with the CDF
//!   export the benchmark harness prints the paper's figures from.
//!
//! # Example
//!
//! ```
//! use spamaware_sim::{Nanos, Scheduler, World, run};
//!
//! struct Counter { fired: u32 }
//! enum Ev { Tick }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, sched: &mut Scheduler<Ev>, _ev: Ev) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             sched.schedule_in(Nanos::from_millis(5), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_at(Nanos::ZERO, Ev::Tick);
//! let mut world = Counter { fired: 0 };
//! run(&mut sched, &mut world);
//! assert_eq!(world.fired, 3);
//! assert_eq!(sched.now(), Nanos::from_millis(10));
//! ```

pub mod dist;
mod readout;
mod resource;
mod sched;
mod time;

pub use readout::Readout;
pub use resource::{FifoResource, ProcId, ResourceStats, ServiceJob};
pub use sched::{run, run_until, Scheduler, World};
/// What the simulator records distributions into; re-exported so a model
/// crate needs no dependency edge of its own to `spamaware-metrics`.
pub use spamaware_metrics::LogHistogram;
pub use time::Nanos;

/// Creates a deterministic small RNG from a 64-bit seed.
///
/// Every stochastic component in this workspace takes its randomness from a
/// seeded RNG so that experiments and tests are exactly reproducible.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut a = spamaware_sim::det_rng(7);
/// let mut b = spamaware_sim::det_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn det_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
