//! Pre-trust SMTP: the master's instance of the session engine.
//!
//! [`run_pretrust`] is the §5 "one cheap thread carries every untrusted
//! connection" loop. The loop itself — readiness wait, ordered timers,
//! bounded reply queues, the one exit — is [`crate::driver`]; this module
//! is the protocol it runs on the master: admission control (draining,
//! total in-flight cap, per-IP cap — cheapest first and all before any
//! DNSBL spend), the fire-and-forget DNSBL hand-off, the SMTP dialog up
//! to the first valid `RCPT TO`, and fork-after-trust delegation through
//! an injected sink. Nothing here blocks or touches the reactor: the
//! calls that could are refused crate-wide by `clippy.toml`, and none of
//! its waivers is in this file (DESIGN.md §14.2).
//!
//! Everything is injected: the [`Acceptor`]/`Conn` transport pair (real
//! `TcpListener`/`TcpStream`, or the scripted doubles in
//! [`crate::reactor::sim`]), the [`Reactor`], the metrics registry (whose
//! clock is the loop's only time source), and the trusted-connection
//! sink. `LiveServer` instantiates it with the OS types; the
//! deterministic tests instantiate it with the sim types and replay
//! byte-identical schedules with zero real sockets or sleeps.

use crate::driver::{
    drive, farewell, Acceptor, Arrival, Conn, DriverEnv, DriverMetrics, End, Gone, Limits,
    Protocol, Step,
};
use crate::instruments::{LiveStats, MasterMetrics, VerbCounters};
use crate::linebuf::LineBuffer;
use crate::pool::BufferPool;
use crate::reactor::Reactor;
use spamaware_metrics::{Counter, Gauge, Registry};
use spamaware_netaddr::Ipv4;
use spamaware_smtp::{Reply, ServerSession, SessionConfig, SessionPhase, TrustPoint};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::Duration;

/// A connection that earned trust (valid `RCPT TO`), ready for worker
/// hand-off with its session state and any already-buffered bytes.
pub struct Trusted<C> {
    /// The socket (registered nowhere — the engine deregistered it before
    /// handing it over).
    pub conn: C,
    /// SMTP session state up to and including the trusting `RCPT`.
    pub session: ServerSession,
    /// Bytes read past the last parsed line (a pipelining client's early
    /// `DATA`), with their pooled allocation.
    pub leftover: Vec<u8>,
    /// Reply bytes the master queued but the peer has not yet accepted;
    /// the worker sends these before any reply of its own.
    pub pending_out: Vec<u8>,
    /// Client address.
    pub peer: Ipv4,
    /// Registry-clock instant the connection was accepted; deadlines
    /// downstream keep charging against it.
    pub accepted_ns: u64,
}

/// Everything [`run_pretrust`] needs beyond the transport, reactor, and
/// sink.
pub struct EngineCtx {
    /// Hard-stop flag; the loop exits at the next wakeup.
    pub stop: Arc<AtomicBool>,
    /// Graceful-drain flag; pre-trust connections are evicted and new
    /// arrivals shed while set.
    pub draining: Arc<AtomicBool>,
    /// Lifecycle counters (`live.*`).
    pub stats: Arc<LiveStats>,
    /// Valid mailbox local parts, for `RCPT` validation.
    pub mailboxes: Arc<HashSet<String>>,
    /// Hostname announced in the greeting.
    pub hostname: Arc<str>,
    /// Fire-and-forget hand-off to the DNSBL agent thread, if one runs.
    pub dnsbl_tx: Option<SyncSender<Ipv4>>,
    /// Idle budget for a pre-trust connection.
    pub pretrust_idle_timeout: Duration,
    /// Whole-session wall-clock budget, charged from accept.
    pub session_deadline: Duration,
    /// Hard cap on one connection's queued (unflushed) reply bytes;
    /// beyond it the peer is evicted as a slow writer.
    pub max_outq_bytes: usize,
    /// How long a connection with queued output may make zero write
    /// progress before eviction.
    pub write_stall_timeout: Duration,
    /// Total in-flight connection cap.
    pub max_connections: usize,
    /// Pre-trust connections one client IP may hold.
    pub max_pretrust_per_ip: usize,
    /// Metrics registry; its clock is the loop's only time source.
    pub registry: Arc<Registry>,
    /// Pool the per-connection line buffers cycle through.
    pub line_pool: Arc<BufferPool>,
    /// In-flight connection gauge (`live.inflight`).
    pub inflight: Arc<Gauge>,
}

/// The one-write `421` every refusal and eviction parts with.
pub(crate) fn say_unavailable<C: Conn>(conn: &mut C) {
    farewell(conn, Reply::service_not_available().to_wire().as_bytes());
}

/// One pre-trust connection's protocol state.
struct Pre {
    session: ServerSession,
    peer: Ipv4,
}

/// The pre-trust protocol: what the master does with a connection until
/// it earns trust or leaves.
struct PreTrust<'a, A, S> {
    acceptor: &'a mut A,
    ctx: &'a EngineCtx,
    sink: &'a mut S,
    /// Pre-trust connections held per client IP (admission ledger).
    per_ip: HashMap<Ipv4, usize>,
    metrics: MasterMetrics,
    verbs: VerbCounters,
}

impl<A: Acceptor, S> PreTrust<'_, A, S> {
    /// `421`s and drops a connection the admission policy refused. Cheap
    /// by design: one small write, no session, no DNSBL — shedding under
    /// overload must cost microseconds, not the work it is shedding.
    fn shed(mut conn: A::Conn, counter: &Counter) {
        counter.inc();
        say_unavailable(&mut conn);
    }
}

impl<A, S> Protocol<A::Conn> for PreTrust<'_, A, S>
where
    A: Acceptor,
    S: FnMut(Trusted<A::Conn>) -> Option<Trusted<A::Conn>>,
{
    type Session = Pre;

    fn listener(&self) -> Option<u64> {
        Some(self.acceptor.poll_id())
    }

    fn admit(&mut self, now_ns: u64, draining: bool) -> Option<Arrival<A::Conn, Pre>> {
        let ctx = self.ctx;
        let stats = &ctx.stats;
        loop {
            let (mut conn, peer_addr) = self.acceptor.try_accept().ok().flatten()?;
            stats.accepted.inc();
            let peer = match peer_addr.ip() {
                std::net::IpAddr::V4(v4) => Ipv4::from(v4),
                std::net::IpAddr::V6(_) => {
                    // The DNSBL cache and trust machinery are IPv4-only;
                    // refuse rather than impersonate a loopback peer.
                    stats.rejected_ipv6.inc();
                    farewell(&mut conn, Reply::ipv6_unsupported().to_wire().as_bytes());
                    continue;
                }
            };
            // Admission control, cheapest checks first and all of them
            // *before* the DNSBL query: a shed connection must not be
            // able to spend our lookup budget.
            if draining {
                Self::shed(conn, &stats.shed_draining);
                continue;
            }
            if ctx.inflight.get() >= i64::try_from(ctx.max_connections).unwrap_or(i64::MAX) {
                Self::shed(conn, &stats.shed_connections);
                continue;
            }
            let held = self.per_ip.entry(peer).or_insert(0);
            if *held >= ctx.max_pretrust_per_ip {
                Self::shed(conn, &stats.shed_per_ip);
                continue;
            }
            *held += 1;
            ctx.inflight.inc();
            if let Some(tx) = &ctx.dnsbl_tx {
                // Fire-and-forget hand-off to the DNSBL agent thread: the
                // verdict is record-only (§9), so the master never waits
                // for it. A full queue drops the *lookup*, not the client
                // — under overload we lose a statistic, never mail
                // service.
                if tx.try_send(peer).is_err() {
                    self.metrics.agent_dropped.inc();
                }
            }
            let session = ServerSession::new(SessionConfig {
                hostname: Arc::clone(&ctx.hostname),
            });
            return Some(Arrival {
                conn,
                greeting: session.greeting().to_wire().into_bytes(),
                session: Pre { session, peer },
                lines: LineBuffer::from_remaining(ctx.line_pool.take_vec()),
                accepted_ns: now_ns,
            });
        }
    }

    fn line(&mut self, pre: &mut Pre, line: &[u8], out: &mut Vec<u8>) -> Step {
        let (reply, verb) = pre.session.handle_line(line, &self.ctx.mailboxes);
        self.verbs.count(verb);
        reply.write_wire(out);
        if pre.session.phase() == SessionPhase::Closed {
            Step::Close
        } else if pre.session.trusted(TrustPoint::AfterValidRcpt) {
            Step::Detach
        } else {
            Step::Continue
        }
    }

    fn finish(&mut self, gone: Gone<A::Conn, Pre>, end: End) {
        let ctx = self.ctx;
        let stats = &ctx.stats;
        let Pre { session, peer } = gone.session;
        if let Some(held) = self.per_ip.get_mut(&peer) {
            *held -= 1;
            if *held == 0 {
                self.per_ip.remove(&peer);
            }
        }
        self.metrics.pretrust_ns.record_since(gone.accepted_ns);
        let mut conn = gone.conn;
        let mut leftover = gone.lines.into_remaining();
        let outcome = session.outcome(matches!(end, End::Closed | End::PeerGone));
        match end {
            End::Detached => {
                let task = Trusted {
                    conn,
                    session,
                    leftover,
                    pending_out: gone.unsent,
                    peer,
                    accepted_ns: gone.accepted_ns,
                };
                // Delegated: the worker side owns the in-flight slot and
                // the terminal outcome from here.
                let Some(mut back) = (self.sink)(task) else {
                    return;
                };
                // Every queue full: tempfail instead of blocking. A
                // blocking send here stalls the master — and with it
                // every pre-trust dialog and the accept loop — behind the
                // slowest worker; `421` sheds exactly one client instead.
                stats.shed_worker_busy.inc();
                say_unavailable(&mut back.conn);
                leftover = back.leftover;
            }
            End::Closed | End::PeerGone => {}
            End::Overflow => {
                stats.overflows.inc();
                farewell(&mut conn, Reply::syntax_error().to_wire().as_bytes());
            }
            // Idle slow client: dropped without a word.
            End::Idle => stats.idle_evictions.inc(),
            // No farewell either: by definition it is not reading.
            End::SlowWriter => self.metrics.evicted_slow_writers.inc(),
            End::Session | End::Phase => {
                stats.session_deadline_evictions.inc();
                say_unavailable(&mut conn);
            }
            End::Drain => {
                // Pre-trust connections hold no acked mail.
                stats.shed_draining.inc();
                stats.drain_evictions.inc();
                say_unavailable(&mut conn);
            }
            End::Unwatchable => {
                stats.sockopt_errors.inc();
                say_unavailable(&mut conn);
            }
        }
        ctx.line_pool.put(leftover);
        stats.count_outcome(outcome);
        ctx.inflight.dec();
    }
}

/// Drives the pre-trust event loop until `ctx.stop` is set.
///
/// `sink` receives each trusted connection; handing it back (`Some`)
/// means every worker queue was full, and the engine sheds it with `421`
/// (`live.shed_worker_busy`) instead of blocking.
pub fn run_pretrust<A, R, S>(acceptor: &mut A, reactor: &mut R, ctx: &EngineCtx, sink: &mut S)
where
    A: Acceptor,
    R: Reactor,
    S: FnMut(Trusted<A::Conn>) -> Option<Trusted<A::Conn>>,
{
    let registry = &ctx.registry;
    let env = DriverEnv {
        clock: registry.clock(),
        stop: Arc::clone(&ctx.stop),
        draining: Arc::clone(&ctx.draining),
        limits: Limits {
            idle: ctx.pretrust_idle_timeout,
            session: ctx.session_deadline,
            write_stall: ctx.write_stall_timeout,
            phase: Duration::MAX,
            max_outq_bytes: ctx.max_outq_bytes,
        },
        metrics: DriverMetrics::register(registry),
    };
    let mut proto = PreTrust {
        acceptor,
        ctx,
        sink,
        per_ip: HashMap::new(),
        metrics: MasterMetrics::register(registry),
        verbs: VerbCounters::register(registry),
    };
    drive(reactor, &mut proto, &env);
}
