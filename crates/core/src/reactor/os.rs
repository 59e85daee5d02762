//! The production [`Reactor`]: epoll plus a self-pipe waker.

use super::{Reactor, ReadyEvent};
use std::io;
use std::os::fd::RawFd;

/// Token reserved for the waker pipe inside the reactor; never surfaced
/// to callers, so the engine's token space is unconstrained apart from
/// this one value.
const WAKE_TOKEN: u64 = u64::MAX;

/// Readiness notification over epoll (level-triggered; per-fd read and
/// write interest, see [`Reactor::set_interest`]).
///
/// The embedded wake pipe lets other threads interrupt a blocked
/// [`Reactor::wait`]: [`OsReactor::waker`] hands out cloneable handles,
/// and a wake shows up as a spurious empty return — callers re-check
/// their stop/drain flags every iteration anyway.
pub struct OsReactor {
    poller: rawpoll::Poller,
    wake: rawpoll::WakePipe,
    /// Reusable kernel-event scratch buffer.
    events: Vec<rawpoll::Ready>,
}

impl OsReactor {
    /// Creates the epoll instance and its waker pipe.
    ///
    /// # Errors
    ///
    /// Fails if `epoll_create1` or `pipe2` do.
    pub fn new() -> io::Result<OsReactor> {
        let poller = rawpoll::Poller::new()?;
        let wake = rawpoll::WakePipe::new()?;
        poller.add(wake.read_fd(), WAKE_TOKEN)?;
        Ok(OsReactor {
            poller,
            wake,
            events: Vec::new(),
        })
    }

    /// A cloneable handle that interrupts a blocked [`Reactor::wait`].
    pub fn waker(&self) -> rawpoll::WakePipe {
        self.wake.clone()
    }
}

impl Reactor for OsReactor {
    fn register(&mut self, poll_id: u64, token: u64) -> io::Result<()> {
        self.poller.add(poll_id as RawFd, token)
    }

    fn deregister(&mut self, poll_id: u64) -> io::Result<()> {
        self.poller.del(poll_id as RawFd)
    }

    fn set_interest(
        &mut self,
        poll_id: u64,
        token: u64,
        read: bool,
        write: bool,
    ) -> io::Result<()> {
        // `EPOLL_CTL_MOD` replaces the whole interest set, token included.
        self.poller.modify(poll_id as RawFd, token, read, write)
    }

    fn wait(&mut self, timeout_ns: Option<u64>, out: &mut Vec<ReadyEvent>) -> io::Result<()> {
        let timeout_ms = match timeout_ns {
            // Timer already due: poll without sleeping.
            Some(0) => Some(0),
            Some(ns) => rawpoll::ns_to_timeout_ms(ns),
            None => None,
        };
        self.events.clear();
        self.poller.wait(timeout_ms, &mut self.events)?;
        for ev in &self.events {
            if ev.token == WAKE_TOKEN {
                // Swallow the wake bytes; the caller notices whatever
                // state change prompted the wake via its own flags.
                self.wake.drain();
            } else {
                out.push(ReadyEvent {
                    token: ev.token,
                    // A hangup or pending error surfaces through the next
                    // read, so it counts as readability for the engine.
                    readable: ev.readable || ev.hangup,
                    writable: ev.writable,
                });
            }
        }
        Ok(())
    }
}
