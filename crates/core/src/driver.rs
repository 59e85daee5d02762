//! The one session engine: a protocol-agnostic connection driver.
//!
//! §5 of the paper argues that one cheap event loop should carry every
//! connection that has not earned a process of its own. [`drive`] is that
//! loop, written once: it sleeps in [`Reactor::wait`] until a socket is
//! ready or the earliest deadline in its [`TimerWheel`] — an ordered set
//! of `(deadline, token)` pairs — is due, reads into a fixed-size
//! per-connection [`LineBuffer`], hands each complete line to a
//! [`Protocol`], coalesces the replies of a pipelined burst, and routes
//! every outbound byte through a bounded per-connection queue (write
//! what fits, queue the rest, arm write interest, flush on writable —
//! and take no further input from a peer until it has drained what it
//! was sent, DESIGN.md §15.4). Each connection has one deadline in that
//! set: the earliest of its budgets — idle (or write-stall, while output
//! is queued), whole-session, and one protocol *phase* (SMTP's `DATA`
//! transfer). It is filed only when a change moves it earlier, and
//! recomputed when it fires. Every connection leaves through one exit,
//! [`Protocol::finish`], with the [`End`] that explains why.
//!
//! The server's four dialogs are instances of it: pre-trust SMTP on the
//! master ([`crate::pretrust`]), post-trust SMTP on each worker
//! ([`crate::posttrust`]), POP3, and the one-line admin protocol. The
//! driver is the only code that parks a thread or touches a socket; a
//! protocol is a state machine over lines, handed a `&mut Vec<u8>` to
//! reply into and never the connection (DESIGN.md §14.2).
//!
//! Everything is injected — transport ([`Conn`]/[`Acceptor`]), reactor,
//! clock, flags — so the same loop runs on epoll and real sockets in
//! production and on [`crate::reactor::sim`] and a `ManualClock` in the
//! deterministic tests.

pub use crate::instruments::DriverMetrics;
use crate::linebuf::{LineBuffer, LineOverflow};
use crate::reactor::wheel::TimerWheel;
use crate::reactor::{Pollable, Reactor, ReadyEvent};
use spamaware_metrics::Clock;
use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The reactor token reserved for a protocol's listening socket;
/// connection tokens start above it.
pub const ACCEPT_TOKEN: u64 = 0;

/// Reply bytes one pump may coalesce before it must offer them to the
/// socket. Together with "no input is taken while output is queued" this
/// bounds what a peer can make the driver hold for it to this much plus
/// one reply, however many commands it pipelines.
const BURST_BYTES: usize = 16 * 1024;

/// A connection the driver can serve without blocking.
pub trait Conn: Pollable {
    /// One non-blocking read: `Ok(0)` is peer EOF, `WouldBlock` means the
    /// socket is dry (the reactor will say when to try again).
    ///
    /// # Errors
    ///
    /// Transport errors close the connection.
    fn read_ready(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// One non-blocking write: accepts what fits in the socket buffer,
    /// `WouldBlock` when nothing does (the reactor's write-readiness says
    /// when to retry).
    ///
    /// # Errors
    ///
    /// Transport errors close the connection.
    fn write_ready(&mut self, buf: &[u8]) -> io::Result<usize>;
}

/// A listening socket a protocol can drain without blocking.
pub trait Acceptor: Pollable {
    /// The connection type this acceptor produces.
    type Conn: Conn;

    /// Accepts one pending connection; `Ok(None)` means none is pending.
    ///
    /// # Errors
    ///
    /// Fatal listener errors end the accept burst (existing connections
    /// keep being served).
    fn try_accept(&mut self) -> io::Result<Option<(Self::Conn, SocketAddr)>>;
}

impl Conn for TcpStream {
    fn read_ready(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }

    fn write_ready(&mut self, buf: &[u8]) -> io::Result<usize> {
        // The server's single raw socket-write site: everything above it
        // goes through an OutBuf, and `write_all` is refused crate-wide
        // (clippy.toml).
        Write::write(self, buf)
    }
}

impl Acceptor for TcpListener {
    type Conn = TcpStream;

    fn try_accept(&mut self) -> io::Result<Option<(TcpStream, SocketAddr)>> {
        match self.accept() {
            Ok((stream, peer)) => {
                let _ = stream.set_nonblocking(true);
                // Replies are coalesced into one write per pipelined
                // burst, so Nagle only adds delayed-ACK stalls between
                // our small writes and the client's next burst.
                let _ = stream.set_nodelay(true);
                Ok(Some((stream, peer)))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Saturating [`Duration`] → nanoseconds (`Duration::MAX` ⇒ `u64::MAX`,
/// which the driver reads as "no deadline").
pub(crate) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Outcome of an [`OutBuf`] write attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteState {
    /// Everything queued has reached the socket.
    Drained,
    /// Bytes remain queued; the reactor must say when to retry.
    Pending,
    /// The queue outgrew its cap: the peer has stopped draining.
    Overflow,
    /// The transport failed; the connection is dead.
    Broken,
}

/// A bounded per-connection outbound queue: write what fits, keep the
/// rest, report when the peer stops draining (DESIGN.md §15.4).
///
/// The cap is on *queued* (unflushed) bytes: a burst the socket refuses
/// more of than that evicts its peer on the spot. (What keeps the queue
/// to one burst in the first place is [`Driver::pump`].) An overflowing
/// send still queues before reporting, so the byte-count gauge stays
/// exact until the eviction reconciles it.
struct OutBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written; drained lazily so partial flushes
    /// do not memmove the queue.
    head: usize,
    cap: usize,
}

impl OutBuf {
    fn new(cap: usize) -> OutBuf {
        OutBuf {
            buf: Vec::new(),
            head: 0,
            cap,
        }
    }

    /// Bytes queued and not yet accepted by the socket.
    fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Takes the queued bytes (for a protocol hand-off).
    fn take_pending(mut self) -> Vec<u8> {
        self.buf.drain(..self.head);
        self.buf
    }

    /// Writes the backlog and then `bytes` (possibly none) until the
    /// socket stops accepting; only what it refuses is copied into the
    /// queue. Returns the state plus the bytes written this call.
    fn send<C: Conn>(&mut self, conn: &mut C, mut bytes: &[u8]) -> (WriteState, usize) {
        let mut wrote = 0;
        loop {
            let backlog = self.head < self.buf.len();
            let chunk = if backlog {
                &self.buf[self.head..]
            } else {
                bytes
            };
            if chunk.is_empty() {
                break;
            }
            match conn.write_ready(chunk) {
                Ok(0) => return (WriteState::Broken, wrote),
                Ok(n) if backlog => {
                    self.head += n;
                    wrote += n;
                }
                Ok(n) => {
                    bytes = &bytes[n..];
                    wrote += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => return (WriteState::Broken, wrote),
            }
        }
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= self.buf.len() / 2 {
            // Compact once the drained prefix dominates the allocation.
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
        if self.buf.is_empty() {
            (WriteState::Drained, wrote)
        } else if self.pending() > self.cap {
            (WriteState::Overflow, wrote)
        } else {
            (WriteState::Pending, wrote)
        }
    }
}

/// Best-effort write for a connection that is leaving: writes what the
/// socket accepts now and drops the rest — nobody stalls a loop to say
/// goodbye.
pub(crate) fn farewell<C: Conn>(conn: &mut C, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        match conn.write_ready(bytes) {
            Ok(0) | Err(_) => return,
            Ok(n) => bytes = &bytes[n..],
        }
    }
}

/// Why a connection left the driver — the argument of the one exit,
/// [`Protocol::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The protocol ended the dialog ([`Step::Close`]); its last replies
    /// reached the socket.
    Closed,
    /// The peer hung up or the transport failed.
    PeerGone,
    /// The peer overflowed the fixed-size line buffer; replies queued
    /// before the overflow reached the socket.
    Overflow,
    /// No bytes moved in either direction for the idle budget.
    Idle,
    /// The whole-session budget ran out.
    Session,
    /// The protocol's phase budget (SMTP `DATA`) ran out.
    Phase,
    /// The peer stopped reading: its reply queue hit the cap or made no
    /// progress for the write-stall budget.
    SlowWriter,
    /// Evicted by a graceful drain (no phase was in flight).
    Drain,
    /// The protocol asked for the socket ([`Step::Detach`]);
    /// [`Gone::unsent`] carries the replies the peer has not accepted.
    Detached,
    /// The reactor refused to watch the socket; it was never served.
    Unwatchable,
}

/// What a protocol wants after handling one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep serving.
    Continue,
    /// A deadline-bounded phase began (SMTP `DATA`): its budget starts
    /// to run; a drain lets the phase finish.
    PhaseStart,
    /// The phase completed: its budget no longer applies.
    PhaseEnd,
    /// Flush the replies, then end the dialog ([`End::Closed`]).
    Close,
    /// Flush what the socket accepts, then hand the socket to the
    /// protocol ([`End::Detached`]).
    Detach,
}

/// A connection a protocol asks the driver to serve.
pub struct Arrival<C, S> {
    /// The socket (nonblocking, registered nowhere).
    pub conn: C,
    /// Protocol state for this connection.
    pub session: S,
    /// The connection's line buffer, possibly already holding input.
    pub lines: LineBuffer,
    /// Bytes to send first (a greeting, or replies owed from a hand-off).
    pub greeting: Vec<u8>,
    /// Clock instant the session deadline is charged from.
    pub accepted_ns: u64,
}

/// A connection the driver is done with, returned to its protocol.
pub struct Gone<C, S> {
    /// The socket, deregistered; dropping it closes it.
    pub conn: C,
    /// Protocol state.
    pub session: S,
    /// Unconsumed input with its allocation.
    pub lines: LineBuffer,
    /// Reply bytes the peer never accepted (meaningful for
    /// [`End::Detached`]; otherwise they are dropped with the socket).
    pub unsent: Vec<u8>,
    /// The [`Arrival::accepted_ns`] it came with.
    pub accepted_ns: u64,
}

/// A line-oriented dialog the driver can serve. Implementations hold no
/// socket and never block on one: they turn lines into reply bytes.
pub trait Protocol<C: Conn> {
    /// Per-connection protocol state.
    type Session;

    /// The `poll_id` of the listening socket arrivals come through, if
    /// any: [`Protocol::admit`] is then called when it is readable.
    /// Queue-fed protocols return `None` and are asked after every
    /// wakeup (their feeder wakes the reactor).
    fn listener(&self) -> Option<u64>;

    /// The next connection to serve, or `None` when there is none right
    /// now. Arrivals the protocol refuses are dealt with here and never
    /// reach the driver; each one returned ends in exactly one
    /// [`Protocol::finish`] (unless the driver is stopped first).
    fn admit(&mut self, now_ns: u64, draining: bool) -> Option<Arrival<C, Self::Session>>;

    /// Handles one complete input line (terminator stripped), appending
    /// any reply bytes to `out`.
    fn line(&mut self, session: &mut Self::Session, line: &[u8], out: &mut Vec<u8>) -> Step;

    /// The one exit: releases the connection's resources, says a
    /// best-effort farewell if `end` deserves one, and counts the
    /// outcome.
    fn finish(&mut self, gone: Gone<C, Self::Session>, end: End);
}

/// Per-connection budgets. `Duration::MAX` disables a deadline.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// No bytes in either direction for this long ends the connection.
    pub idle: Duration,
    /// Whole-session budget, charged from [`Arrival::accepted_ns`].
    pub session: Duration,
    /// How long queued output may make zero progress.
    pub write_stall: Duration,
    /// Budget of one protocol phase ([`Step::PhaseStart`]).
    pub phase: Duration,
    /// Hard cap on queued (unflushed) reply bytes per connection.
    pub max_outq_bytes: usize,
}

/// Everything [`drive`] needs beyond the reactor and the protocol.
pub struct DriverEnv {
    /// The loop's only time source.
    pub clock: Arc<dyn Clock>,
    /// Hard-stop flag; the loop exits at the next wakeup and drops its
    /// connections without ceremony.
    pub stop: Arc<AtomicBool>,
    /// Graceful-drain flag: connections with no phase in flight are
    /// retired with [`End::Drain`], the rest as soon as their phase ends.
    pub draining: Arc<AtomicBool>,
    /// Per-connection budgets.
    pub limits: Limits,
    /// Loop-health instruments.
    pub metrics: DriverMetrics,
}

/// One served connection's loop state.
struct Slot<C, S> {
    conn: C,
    session: S,
    lines: LineBuffer,
    /// Reply bytes the socket has not accepted yet.
    outq: OutBuf,
    /// Whether write interest is currently armed on the reactor.
    w_armed: bool,
    /// When the protocol phase in flight began, if one is.
    phase_since: Option<u64>,
    /// Input is finished (dialog closed, overflow, or peer EOF) and reads
    /// are muted; the connection leaves with this end once `outq` drains.
    closing: Option<End>,
    accepted_ns: u64,
    /// When bytes last moved in either direction, or output began to
    /// queue: the idle and write-stall budgets run from here.
    quiet_since: u64,
    /// The deadline filed for this connection in the timer set, or
    /// `u64::MAX` if none is. The connection's deadline is never earlier.
    armed_ns: u64,
}

impl<C, S> Slot<C, S> {
    /// The connection's deadline — the earliest of its budgets — and the
    /// [`End`] it gives. The quiet budget is the write-stall one while
    /// output is queued (the peer owes us a drain) and the idle one
    /// otherwise (it owes us bytes). Ties go to idle, then session, write
    /// stall and phase; `u64::MAX` is no deadline.
    fn deadline(&self, limits: &Limits) -> (u64, End) {
        let after = |since: u64, budget: Duration| since.saturating_add(duration_ns(budget));
        let (idle, stall) = match self.outq.pending() {
            0 => (after(self.quiet_since, limits.idle), u64::MAX),
            _ => (u64::MAX, after(self.quiet_since, limits.write_stall)),
        };
        let phase = self
            .phase_since
            .map_or(u64::MAX, |t| after(t, limits.phase));
        [
            (idle, End::Idle),
            (after(self.accepted_ns, limits.session), End::Session),
            (stall, End::SlowWriter),
            (phase, End::Phase),
        ]
        .into_iter()
        .min_by_key(|&(deadline, _)| deadline)
        .unwrap_or((u64::MAX, End::Idle))
    }
}

struct Driver<'a, C: Conn, R: Reactor, P: Protocol<C>> {
    reactor: &'a mut R,
    proto: &'a mut P,
    env: &'a DriverEnv,
    /// One entry per connection, keyed by its token: its deadline.
    timers: TimerWheel,
    conns: BTreeMap<u64, Slot<C, P::Session>>,
    next_token: u64,
    /// Reply bytes of the burst being pumped.
    out: Vec<u8>,
    /// Per-thread read scratch: one read of up to this much per readable
    /// event. The per-connection [`LineBuffer`] stays fixed-size (§5.2).
    scratch: [u8; 4096],
}

/// Serves `proto`'s connections on `reactor` until `env.stop` is set.
pub fn drive<C: Conn, R: Reactor, P: Protocol<C>>(reactor: &mut R, proto: &mut P, env: &DriverEnv) {
    let listening = match proto.listener() {
        // A loop that cannot watch its own listener cannot serve.
        Some(id) if reactor.register(id, ACCEPT_TOKEN).is_err() => return,
        Some(_) => true,
        None => false,
    };
    Driver {
        reactor,
        proto,
        env,
        timers: TimerWheel::new(env.clock.now_nanos()),
        conns: BTreeMap::new(),
        next_token: ACCEPT_TOKEN + 1,
        out: Vec::new(),
        scratch: [0; 4096],
    }
    .run(listening);
}

impl<C: Conn, R: Reactor, P: Protocol<C>> Driver<'_, C, R, P> {
    fn now(&self) -> u64 {
        self.env.clock.now_nanos()
    }

    fn run(mut self, listening: bool) {
        let env = self.env;
        let mm = &env.metrics;
        let mut ready: Vec<ReadyEvent> = Vec::new();
        let mut fired: Vec<(u64, u64)> = Vec::new();
        while !self.env.stop.load(Ordering::SeqCst) {
            let now = self.now();
            let timeout_ns = self.timers.next_deadline().map(|d| d.saturating_sub(now));
            ready.clear();
            // The one place a driver thread parks: until readiness, a
            // timer deadline, or a waker.
            if self.reactor.wait(timeout_ns, &mut ready).is_err() {
                return;
            }
            mm.wakeups.inc();
            if !ready.is_empty() {
                mm.io_events.add(ready.len() as u64);
            }
            if self.env.stop.load(Ordering::SeqCst) {
                break;
            }
            let draining = self.env.draining.load(Ordering::SeqCst);
            let mut arrivals = !listening;
            for &ev in &ready {
                if ev.token == ACCEPT_TOKEN {
                    arrivals = true;
                    continue;
                }
                if ev.writable {
                    // The peer drained some of its socket buffer: flush
                    // the queue before reading more work from it.
                    self.send(ev.token, &[]);
                }
                if ev.readable {
                    self.pump(ev.token, true);
                }
            }
            while arrivals {
                let now = self.now();
                match self.proto.admit(now, draining) {
                    Some(arrival) => self.adopt(arrival),
                    None => arrivals = false,
                }
            }
            let now = self.now();
            fired.clear();
            self.timers.advance(now, &mut fired);
            if !fired.is_empty() {
                mm.timers_fired.add(fired.len() as u64);
            }
            for &(_, token) in &fired {
                self.on_timer(token, now);
            }
            if draining {
                // Whatever holds no in-flight phase holds no unacked
                // mail: retire it so the drain converges regardless of
                // client behavior. A phase in flight is swept by the
                // wakeup that completes it.
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, slot)| slot.phase_since.is_none())
                    .map(|(&token, _)| token)
                    .collect();
                for token in idle {
                    self.retire(token, End::Drain);
                }
            }
            debug_assert_eq!(
                self.timers.len(),
                self.conns
                    .values()
                    .filter(|s| s.armed_ns != u64::MAX)
                    .count(),
                "the timer set holds one deadline per armed connection"
            );
        }
    }

    /// Starts serving one arrival: watch it, start its clocks, send its
    /// greeting, and handle whatever input came with it — without a read,
    /// so bytes a pipelining client sent ahead of the hand-off are served
    /// before the socket is ever polled. That saves a `read`, not a
    /// wakeup: a queue-fed protocol's feeder wakes this thread for every
    /// arrival (`Dispatch::offer` in live.rs records why).
    fn adopt(&mut self, arrival: Arrival<C, P::Session>) {
        let token = self.next_token;
        self.next_token += 1;
        let slot = Slot {
            conn: arrival.conn,
            session: arrival.session,
            lines: arrival.lines,
            outq: OutBuf::new(self.env.limits.max_outq_bytes),
            w_armed: false,
            phase_since: None,
            closing: None,
            accepted_ns: arrival.accepted_ns,
            quiet_since: self.now(),
            armed_ns: u64::MAX,
        };
        if self.reactor.register(slot.conn.poll_id(), token).is_err() {
            // A connection the reactor cannot watch would sit unserved
            // forever; refuse it instead.
            self.release(token, slot, End::Unwatchable);
            return;
        }
        self.conns.insert(token, slot);
        // The greeting rides the same backpressure path as every later
        // reply — a zero-window peer can stall from byte one.
        self.send(token, &arrival.greeting);
        self.pump(token, false);
    }

    /// Queues `bytes` (possibly none) behind the connection's backlog and
    /// flushes what the socket accepts; then reconciles write interest,
    /// the deadline, and the gauge with the queue's state, and retires
    /// the connection if the write path says it is over.
    fn send(&mut self, token: u64, bytes: &[u8]) {
        let now = self.now();
        let env = self.env;
        let mm = &env.metrics;
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        let before = slot.outq.pending();
        let (state, wrote) = slot.outq.send(&mut slot.conn, bytes);
        mm.outq_bytes
            .add(slot.outq.pending() as i64 - before as i64);
        if wrote > 0 {
            // Progress moves the deadline later: a slow drip is served
            // for as long as it keeps accepting.
            slot.quiet_since = now;
        }
        if !slot.w_armed && matches!(state, WriteState::Pending | WriteState::Overflow) {
            // The stall begins here, whether or not the cap survives it.
            mm.write_stalls.inc();
        }
        let (poll_id, mut resume) = (slot.conn.poll_id(), false);
        let end = match state {
            WriteState::Drained => {
                if slot.w_armed {
                    slot.w_armed = false;
                    if slot.closing.is_none() {
                        // The peer caught up: listen to it again.
                        let _ = self.reactor.set_interest(poll_id, token, true, false);
                        resume = true;
                    }
                }
                slot.closing
            }
            WriteState::Pending if !slot.w_armed => {
                // Watch for writability, stop reading (a peer that is not
                // draining its replies gets no more work done for it),
                // and start the no-progress clock. Never being told when
                // the peer drains would leave the queue sitting forever:
                // give the connection up instead.
                match self.reactor.set_interest(poll_id, token, false, true) {
                    Ok(()) => {
                        slot.w_armed = true;
                        slot.quiet_since = now;
                        None
                    }
                    Err(_) => Some(End::SlowWriter),
                }
            }
            WriteState::Pending => None,
            WriteState::Overflow => Some(End::SlowWriter),
            WriteState::Broken => Some(End::PeerGone),
        };
        if let Some(end) = end {
            self.retire(token, end);
            return;
        }
        self.arm_if_earlier(token);
        if resume {
            // Lines that arrived behind the stalled replies are due now.
            self.pump(token, false);
        }
    }

    /// One readiness-driven pump: a single read (if `read`), then every
    /// complete line it completed, the replies coalesced into one send
    /// per [`BURST_BYTES`]. Backpressure: no input is taken while replies
    /// are queued — reads are muted then, the lines already buffered wait,
    /// and the drain ([`Driver::send`]) pumps them.
    fn pump(&mut self, token: u64, read: bool) {
        let Some(slot) = self.conns.get_mut(&token) else {
            // Retired earlier this wakeup.
            return;
        };
        if slot.closing.is_some() || slot.outq.pending() > 0 {
            return;
        }
        let mut end = None;
        if read {
            match slot.conn.read_ready(&mut self.scratch) {
                Ok(0) => end = Some(End::PeerGone),
                Ok(n) => {
                    slot.lines.push(&self.scratch[..n]);
                    // Moves the deadline later: nothing to file.
                    slot.quiet_since = self.env.clock.now_nanos();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => end = Some(End::PeerGone),
            }
        }
        let mut out = std::mem::take(&mut self.out);
        let mut more = true;
        while more {
            let Some(slot) = self.conns.get_mut(&token) else {
                break;
            };
            if slot.outq.pending() > 0 {
                // The socket refused part of the last burst.
                break;
            }
            out.clear();
            more = false;
            while end.is_none() {
                if out.len() >= BURST_BYTES {
                    more = true;
                    break;
                }
                match slot.lines.pop_line() {
                    Ok(Some(line)) => match self.proto.line(&mut slot.session, line, &mut out) {
                        Step::Continue => {}
                        Step::PhaseStart => slot.phase_since = Some(self.env.clock.now_nanos()),
                        Step::PhaseEnd => slot.phase_since = None,
                        Step::Close => end = Some(End::Closed),
                        Step::Detach => end = Some(End::Detached),
                    },
                    Ok(None) => break,
                    Err(LineOverflow) => end = Some(End::Overflow),
                }
            }
            self.arm_if_earlier(token);
            match end {
                None if out.is_empty() => {}
                None => self.send(token, &out),
                Some(End::Detached) => self.detach(token, &out),
                Some(end) => self.close(token, end, &out),
            }
        }
        self.out = out;
    }

    /// Input is over (`end`): send the last replies and leave once they
    /// reached the socket. A peer that has not drained them yet keeps
    /// its connection — reads muted like any queued output's, so its EOF
    /// cannot spin the loop, and never unmuted — until the queue drains
    /// (which retires it with `end`), stalls out, or a deadline fires.
    fn close(&mut self, token: u64, end: End, out: &[u8]) {
        if let Some(slot) = self.conns.get_mut(&token) {
            slot.closing = Some(end);
        }
        self.send(token, out);
    }

    /// [`Step::Detach`]: flush the burst as far as the socket allows and
    /// hand the socket, with whatever stays queued, to the protocol.
    fn detach(&mut self, token: u64, out: &[u8]) {
        let Some(mut slot) = self.conns.remove(&token) else {
            return;
        };
        let before = slot.outq.pending();
        let (state, _) = slot.outq.send(&mut slot.conn, out);
        let mm = &self.env.metrics;
        mm.outq_bytes
            .add(slot.outq.pending() as i64 - before as i64);
        let end = match state {
            WriteState::Broken => End::PeerGone,
            _ => End::Detached,
        };
        self.release(token, slot, end);
    }

    /// Files `token`'s deadline if it is earlier than the one armed; every
    /// send, pump burst and timer ends here. Only adoption, output that
    /// starts to queue, a drain (the stall budget gives way to a shorter
    /// idle one) and `PhaseStart` move a deadline earlier. A later one is
    /// left for the armed one to find when it fires ([`Driver::on_timer`]),
    /// so a read, a flush or a `PhaseEnd` never touches the timer set.
    fn arm_if_earlier(&mut self, token: u64) {
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        let (deadline, _) = slot.deadline(&self.env.limits);
        if deadline < slot.armed_ns {
            self.timers.schedule(token, deadline);
            slot.armed_ns = deadline;
        }
    }

    /// `token`'s armed deadline fired: evict the connection with the
    /// budget that ran out, or, if activity has moved its deadline later
    /// since, arm that.
    fn on_timer(&mut self, token: u64, now: u64) {
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        slot.armed_ns = u64::MAX;
        match slot.deadline(&self.env.limits) {
            (deadline, end) if deadline <= now => self.retire(token, end),
            _ => self.arm_if_earlier(token),
        }
    }

    fn retire(&mut self, token: u64, end: End) {
        if let Some(slot) = self.conns.remove(&token) {
            self.release(token, slot, end);
        }
    }

    /// The driver half of the one exit: unhook the connection from the
    /// reactor, the timer set, and the gauge, then give it back to its
    /// protocol. A forced eviction the peer may still hear (`Session`,
    /// `Phase`, `Drain`) first gets its queued replies, best effort, so
    /// the protocol's farewell lands in order.
    fn release(&mut self, token: u64, slot: Slot<C, P::Session>, end: End) {
        let _ = self.reactor.deregister(slot.conn.poll_id());
        self.timers.cancel(token);
        let mm = &self.env.metrics;
        mm.outq_bytes.add(-(slot.outq.pending() as i64));
        let mut conn = slot.conn;
        let mut unsent = slot.outq.take_pending();
        if matches!(end, End::Session | End::Phase | End::Drain) {
            farewell(&mut conn, &unsent);
            unsent.clear();
        }
        let gone = Gone {
            conn,
            session: slot.session,
            lines: slot.lines,
            unsent,
            accepted_ns: slot.accepted_ns,
        };
        self.proto.finish(gone, end);
    }
}
