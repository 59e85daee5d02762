//! Readiness notification behind a seam the tests can script.
//!
//! A session loop must never block on any one connection (§5 of the
//! paper), and it does not poll for the lack of one either: the driver
//! ([`crate::driver`]) sleeps in [`Reactor::wait`] until the OS reports a
//! socket ready or the earliest deadline in its [`wheel::TimerWheel`] (an
//! ordered set of armed timers) is due. Two
//! implementations share the trait:
//!
//! * [`os::OsReactor`] — epoll via the vendored `rawpoll` bindings, plus
//!   a self-pipe waker so drain/shutdown interrupt an idle wait;
//! * [`sim::SimReactor`] — scripted readiness events on a
//!   [`spamaware_metrics::ManualClock`], so the whole session engine
//!   (timeouts, drain, shed, slowloris eviction, `DATA` deadlines) runs
//!   byte-identically in unit tests with zero real sockets or sleeps.
//!
//! The trait keys registrations on an opaque `poll_id` ([`Pollable`])
//! rather than a raw fd, which is what lets simulated connections stand
//! in for sockets without a fake-fd table.

pub mod os;
pub mod sim;
pub mod wheel;

use std::io;

/// Something a [`Reactor`] can watch for readability.
pub trait Pollable {
    /// Stable identity registrations are keyed on: the raw fd for real
    /// sockets, a script-assigned id for simulated ones.
    fn poll_id(&self) -> u64;
}

impl Pollable for std::net::TcpStream {
    fn poll_id(&self) -> u64 {
        use std::os::fd::AsRawFd;
        self.as_raw_fd() as u64
    }
}

impl Pollable for std::net::TcpListener {
    fn poll_id(&self) -> u64 {
        use std::os::fd::AsRawFd;
        self.as_raw_fd() as u64
    }
}

/// One readiness report out of [`Reactor::wait`].
///
/// Hangups and pending errors are folded into `readable` (a read will
/// surface them), so the engine's read path stays one arm; `writable`
/// only fires for ids whose write interest is currently armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The token the id was registered under.
    pub token: u64,
    /// Readable, at EOF, or carrying a pending error.
    pub readable: bool,
    /// Writable (reported only while write interest is armed).
    pub writable: bool,
}

/// Readiness notification: level-triggered readability, opt-in per-id
/// write interest, plus a bounded wait. The reactor wait is the single
/// blocking call of a driver thread, made from one line of `driver.rs`
/// (DESIGN.md §14.2, §15).
pub trait Reactor {
    /// Starts watching `poll_id` for readability under `token` (write
    /// interest starts disarmed).
    ///
    /// # Errors
    ///
    /// Fails if the OS rejects the registration (e.g. `epoll_ctl`); the
    /// caller must close the connection rather than serve it unwatched.
    fn register(&mut self, poll_id: u64, token: u64) -> io::Result<()>;

    /// Stops watching `poll_id`. Must be called before a socket is handed
    /// to another thread, or this loop keeps seeing its readiness.
    ///
    /// # Errors
    ///
    /// Fails if the OS rejects the removal; safe to ignore for a socket
    /// that is about to be closed.
    fn deregister(&mut self, poll_id: u64) -> io::Result<()>;

    /// Sets what `poll_id`, registered under `token`, is reported for from
    /// now on; the caller calls it only on a change. Level-triggered:
    /// while `write` is armed, an id with socket-buffer room is reported
    /// writable on every wait, so it must be armed only while output is
    /// actually queued (DESIGN.md §15.4). `read` is dropped for exactly as
    /// long (backpressure: a peer that is not draining its replies is not
    /// read from), and for good once input is over — a level-triggered
    /// EOF would otherwise wake the loop on every wait.
    ///
    /// # Errors
    ///
    /// Fails if the OS rejects the re-registration; the caller should
    /// evict the connection (its queued output can never flush).
    fn set_interest(&mut self, poll_id: u64, token: u64, read: bool, write: bool)
        -> io::Result<()>;

    /// Blocks until at least one watched id is ready, the timeout
    /// elapses, or a waker fires; appends the ready events to `out`
    /// (possibly none — timer expiry and wakes return empty). `None`
    /// means wait indefinitely.
    ///
    /// # Errors
    ///
    /// Fails only if the underlying readiness syscall does.
    fn wait(&mut self, timeout_ns: Option<u64>, out: &mut Vec<ReadyEvent>) -> io::Result<()>;
}
