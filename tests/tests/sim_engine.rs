//! The session engine on scripted readiness and virtual time.
//!
//! Every test here drives [`spamaware_core::pretrust::run_pretrust`] — the
//! exact loop the live master runs — and, past the trust seam,
//! [`spamaware_core::posttrust::run_posttrust`] — the exact loop a live
//! worker runs, here over a `MemFs` store — through a [`SimReactor`]
//! replaying a written schedule of connects, byte deliveries, EOFs, and
//! drain/stop flips against a `ManualClock`. No real sockets, no sleeps: the chaos
//! scenarios that `overload_chaos.rs` exercises with wall-clock races
//! (slowloris eviction, session-deadline 421s, drain convergence,
//! admission shed, worker-busy shed) replay here byte-identically, and
//! one regression pins that two identical runs produce byte-identical
//! metrics renders and reactor event logs.

mod common;

use common::assert_conserved;
use spamaware_core::posttrust::{run_posttrust, WorkerCtx};
use spamaware_core::pretrust::{run_pretrust, EngineCtx, Trusted};
use spamaware_core::reactor::sim::{SimConn, SimEvent, SimReactor};
use spamaware_core::{BufferPool, LiveStats, ShardedStore, SyncBackend, TrustPoint};
use spamaware_metrics::{ManualClock, Registry};
use spamaware_mfs::{Backend, FaultyBackend, MemFs};
use spamaware_server::{build_script, ClientModel, ServerConfig, Step};
use spamaware_sim::Nanos;
use spamaware_trace::{
    bounce_sweep_trace, combined_workload, ConnectionKind, SinkholeConfig, Trace, UnivConfig,
};
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Arc;
use std::time::Duration;

const SEC: u64 = 1_000_000_000;

/// Engine knobs a scenario wants to pin down.
struct Config {
    idle: Duration,
    session: Duration,
    max_connections: usize,
    max_per_ip: usize,
    max_outq_bytes: usize,
    write_stall: Duration,
    /// Hosted mailbox names.
    hosted: HashSet<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            idle: Duration::from_secs(5),
            session: Duration::from_secs(30),
            max_connections: 64,
            max_per_ip: 8,
            max_outq_bytes: 64 * 1024,
            write_stall: Duration::from_secs(10),
            hosted: HashSet::from(["alice".to_owned(), "bob".to_owned()]),
        }
    }
}

/// A ready-to-run engine instance over one scripted network.
struct Harness {
    reactor: SimReactor,
    ctx: EngineCtx,
    registry: Arc<Registry>,
    stats: Arc<LiveStats>,
}

fn harness(script: Vec<(u64, SimEvent)>, cfg: &Config) -> Harness {
    let clock = ManualClock::new();
    let registry = Arc::new(Registry::new(Arc::new(clock.clone())));
    let stop = Arc::new(AtomicBool::new(false));
    let draining = Arc::new(AtomicBool::new(false));
    let reactor = SimReactor::new(&clock, &stop, &draining, script);
    let stats = Arc::new(LiveStats::register(&registry));
    let line_pool = Arc::new(BufferPool::new(&registry, 8, 1024));
    let inflight = registry.gauge("live.inflight");
    let ctx = EngineCtx {
        stop,
        draining,
        stats: Arc::clone(&stats),
        mailboxes: Arc::new(cfg.hosted.clone()),
        hostname: Arc::from("sim.test"),
        dnsbl_tx: None,
        pretrust_idle_timeout: cfg.idle,
        session_deadline: cfg.session,
        max_outq_bytes: cfg.max_outq_bytes,
        write_stall_timeout: cfg.write_stall,
        max_connections: cfg.max_connections,
        max_pretrust_per_ip: cfg.max_per_ip,
        registry: Arc::clone(&registry),
        line_pool,
        inflight,
    };
    Harness {
        reactor,
        ctx,
        registry,
        stats,
    }
}

impl Harness {
    /// Runs the engine to completion (the script's `Stop`, or script
    /// exhaustion) with `sink` receiving trusted hand-offs.
    fn run<S>(&mut self, sink: &mut S)
    where
        S: FnMut(Trusted<SimConn>) -> Option<Trusted<SimConn>>,
    {
        let mut acceptor = self.reactor.acceptor();
        run_pretrust(&mut acceptor, &mut self.reactor, &self.ctx, sink);
        self.assert_conserved();
    }

    /// Every accepted connection is in flight or in exactly one terminal
    /// counter — checked after every engine run in this file.
    fn assert_conserved(&self) {
        let inflight = self.registry.gauge_value("live.inflight").unwrap_or(0);
        assert_conserved(&self.stats.snapshot(), inflight);
    }

    fn output_text(&self, conn: u64) -> String {
        String::from_utf8_lossy(&self.reactor.output(conn)).into_owned()
    }
}

fn peer(s: &str) -> SocketAddr {
    s.parse().expect("literal peer address")
}

fn connect(at: u64, conn: u64) -> (u64, SimEvent) {
    let peer = peer(&format!("10.0.0.{conn}:2525"));
    (at, SimEvent::Connect { conn, peer })
}

fn data(at: u64, conn: u64, bytes: &[u8]) -> (u64, SimEvent) {
    let bytes = bytes.to_vec();
    (at, SimEvent::Data { conn, bytes })
}

/// A burst that earns trust and pipelines `DATA` past the trusting RCPT.
const TRUST_BURST: &[u8] =
    b"HELO relay.example\r\nMAIL FROM:<x@client.example>\r\nRCPT TO:<alice@dept.example>\r\nDATA\r\n";

#[test]
fn trusted_handoff_carries_session_and_pipelined_leftover() {
    let script = vec![
        connect(SEC, 1),
        data(2 * SEC, 1, TRUST_BURST),
        (3 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    let mut trusted: Vec<Trusted<SimConn>> = Vec::new();
    h.run(&mut |t| {
        trusted.push(t);
        None
    });

    assert_eq!(trusted.len(), 1, "one connection earned trust");
    let t = &trusted[0];
    assert!(t.session.trusted(TrustPoint::AfterValidRcpt));
    assert_eq!(
        t.leftover, b"DATA\r\n",
        "pipelined bytes past the trusting RCPT travel with the hand-off"
    );
    assert_eq!(t.accepted_ns, SEC, "accept instant on the manual clock");
    // The socket left the master alive: deregistered, not closed.
    assert!(h.reactor.conn_open(1));
    let out = h.output_text(1);
    assert!(out.starts_with("220 sim.test"), "greeting first: {out}");
    assert!(out.contains("\r\n250 "), "dialog replies coalesced: {out}");
    assert_eq!(h.reactor.unread_input(1), 0);
    assert_eq!(h.stats.accepted.get(), 1);
    // Delegation keeps the connection in flight; the worker side owns the
    // decrement once the transaction finishes.
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(1));
}

/// Satellite regression: the whole loop is a pure function of its script.
/// Two runs over the same schedule must agree byte-for-byte — the metrics
/// render *and* the reactor's event log (readiness batches, timer
/// wakeups, watch/unwatch order).
#[test]
fn identical_scripts_replay_byte_identically() {
    fn script() -> Vec<(u64, SimEvent)> {
        vec![
            connect(SEC, 1),
            data(2 * SEC, 1, TRUST_BURST),
            // Same-instant burst: a second handshake lands in the same
            // wakeup batch that trusts conn 1.
            connect(2 * SEC, 2),
            data(3 * SEC, 2, b"HELO slowloris"),
            connect(4 * SEC, 3),
            data(4 * SEC, 3, b"HELO c\r\nQUIT\r\n"),
            // Silence until well past conn 2's idle deadline, so a timer
            // eviction is part of the replayed history.
            (20 * SEC, SimEvent::Stop),
        ]
    }
    let run = || {
        let mut h = harness(script(), &Config::default());
        let delegated = Arc::clone(&h.stats.delegated);
        h.run(&mut |t| {
            delegated.inc();
            drop(t);
            None
        });
        (h.reactor.log().to_vec(), h.registry.render())
    };
    let (log_a, render_a) = run();
    let (log_b, render_b) = run();
    assert_eq!(log_a, log_b, "reactor event logs diverged");
    assert_eq!(render_a, render_b, "metrics renders diverged");
    // Sanity: the replay actually exercised the interesting paths.
    assert!(render_a.contains("counter live.delegated 1"), "{render_a}");
    assert!(
        render_a.contains("counter live.idle_evictions 1"),
        "{render_a}"
    );
    assert!(
        log_a.iter().any(|l| l.contains("timer")),
        "no timer wakeup in {log_a:?}"
    );
}

#[test]
fn silent_client_is_evicted_by_the_idle_timer() {
    let script = vec![
        connect(SEC, 1),
        // One partial line, then silence: the idle budget restarts at this
        // read, so eviction lands at t=7s, not t=6s.
        data(2 * SEC, 1, b"HELO slow"),
        (30 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    h.run(&mut |t| Some(t));

    assert_eq!(h.stats.idle_evictions.get(), 1);
    assert_eq!(h.stats.unfinished.get(), 1);
    assert!(!h.reactor.conn_open(1), "idle client was dropped");
    let out = h.output_text(1);
    assert!(out.starts_with("220 "), "{out}");
    assert!(
        !out.contains("421"),
        "idle eviction drops silently, no farewell to a dead peer: {out}"
    );
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
    // The eviction is a timer wakeup at exactly last-activity + idle.
    assert!(
        h.reactor
            .log()
            .iter()
            .any(|l| l == &format!("t={} timer", 7 * SEC)),
        "expected a timer wakeup at t=7s in {:?}",
        h.reactor.log()
    );
}

#[test]
fn dripping_client_cannot_outlive_the_session_deadline() {
    let cfg = Config {
        idle: Duration::from_secs(5),
        session: Duration::from_secs(12),
        ..Config::default()
    };
    // One byte every 2s: each read restarts the idle budget, so the drip
    // never idles out — the §5 slowloris defense is the *session* budget,
    // charged from accept no matter how lively the trickle looks.
    let mut script = vec![connect(SEC, 1)];
    for i in 0..5u64 {
        script.push(data((3 + 2 * i) * SEC, 1, b"X"));
    }
    script.push((30 * SEC, SimEvent::Stop));
    let mut h = harness(script, &cfg);
    h.run(&mut |t| Some(t));

    assert_eq!(
        h.stats.idle_evictions.get(),
        0,
        "the drip kept the idle timer at bay"
    );
    assert_eq!(h.stats.session_deadline_evictions.get(), 1);
    assert_eq!(h.stats.unfinished.get(), 1);
    assert!(!h.reactor.conn_open(1));
    let out = h.output_text(1);
    assert!(
        out.ends_with("421 4.3.2 Service not available, closing transmission channel\r\n"),
        "{out}"
    );
    // Session deadline is charged from accept: t = 1s + 12s.
    assert!(
        h.reactor
            .log()
            .iter()
            .any(|l| l == &format!("t={} timer", 13 * SEC)),
        "expected the session-budget wakeup at t=13s in {:?}",
        h.reactor.log()
    );
}

/// When two budgets run out at the same instant the first in the order
/// idle, session, write stall, phase names the end: a client silent since
/// its last read, whose idle and session budgets both expire at t=7s, is
/// an idle eviction — dropped without the session budget's `421`.
#[test]
fn idle_and_session_budgets_due_together_end_in_an_idle_eviction() {
    let cfg = Config {
        idle: Duration::from_secs(5),
        session: Duration::from_secs(6),
        ..Config::default()
    };
    // Idle runs from the read to t=7s; session from accept to t=7s.
    let script = vec![
        connect(SEC, 1),
        data(2 * SEC, 1, b"HELO tie"),
        (30 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &cfg);
    h.run(&mut |t| Some(t));

    assert_eq!(h.stats.idle_evictions.get(), 1);
    assert_eq!(h.stats.session_deadline_evictions.get(), 0);
    assert_eq!(h.stats.unfinished.get(), 1);
    assert!(!h.output_text(1).contains("421"), "no farewell");
    assert!(
        h.reactor
            .log()
            .iter()
            .any(|l| l == &format!("t={} timer", 7 * SEC)),
        "expected the eviction wakeup at t=7s in {:?}",
        h.reactor.log()
    );
}

#[test]
fn drain_evicts_pretrust_and_sheds_new_arrivals() {
    let script = vec![
        connect(SEC, 1),
        data(2 * SEC, 1, b"HELO a\r\n"),
        connect(2 * SEC, 2),
        (3 * SEC, SimEvent::Drain),
        connect(4 * SEC, 3),
        (5 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    h.run(&mut |t| Some(t));

    // Pre-trust holds no acked mail: the drain evicts both mid-dialog
    // connections with 421 and sheds the late arrival the same way.
    assert_eq!(h.stats.shed_draining.get(), 3);
    assert_eq!(
        h.stats.unfinished.get(),
        2,
        "only established dialogs count unfinished"
    );
    for conn in [1, 2, 3] {
        assert!(
            !h.reactor.conn_open(conn),
            "conn {conn} still open after drain"
        );
        assert!(
            h.output_text(conn).contains("421 "),
            "conn {conn}: {}",
            h.output_text(conn)
        );
    }
    assert!(
        !h.output_text(3).contains("220 "),
        "a connection shed while draining never gets a greeting"
    );
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
}

#[test]
fn inflight_cap_sheds_with_421_before_any_session_work() {
    let cfg = Config {
        max_connections: 1,
        ..Config::default()
    };
    let script = vec![
        connect(SEC, 1),
        connect(2 * SEC, 2),
        (3 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &cfg);
    h.run(&mut |t| Some(t));

    assert_eq!(h.stats.accepted.get(), 2);
    assert_eq!(h.stats.shed_connections.get(), 1);
    let out = h.output_text(2);
    assert!(
        out.starts_with("421 "),
        "shed reply only, no greeting: {out}"
    );
    assert!(h.output_text(1).starts_with("220 "));
}

#[test]
fn per_ip_cap_sheds_the_second_connection_from_one_address() {
    let cfg = Config {
        max_per_ip: 1,
        ..Config::default()
    };
    let script = vec![
        (
            SEC,
            SimEvent::Connect {
                conn: 1,
                peer: peer("10.0.0.9:8001"),
            },
        ),
        (
            2 * SEC,
            SimEvent::Connect {
                conn: 2,
                peer: peer("10.0.0.9:8002"),
            },
        ),
        // A different address is unaffected by 10.0.0.9's greed.
        (
            3 * SEC,
            SimEvent::Connect {
                conn: 3,
                peer: peer("10.0.0.7:8003"),
            },
        ),
        (4 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &cfg);
    h.run(&mut |t| Some(t));

    assert_eq!(h.stats.shed_per_ip.get(), 1);
    assert!(h.output_text(2).starts_with("421 "));
    assert!(
        h.output_text(3).starts_with("220 "),
        "unrelated IP admitted"
    );
}

#[test]
fn worker_saturation_hands_back_and_sheds_with_421() {
    let script = vec![
        connect(SEC, 1),
        data(2 * SEC, 1, TRUST_BURST),
        (3 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    // Every worker queue full: the sink hands the trusted connection back.
    h.run(&mut |t| Some(t));

    assert_eq!(h.stats.shed_worker_busy.get(), 1);
    assert_eq!(h.stats.unfinished.get(), 1);
    assert!(
        !h.reactor.conn_open(1),
        "shed connection is closed, not parked"
    );
    let out = h.output_text(1);
    assert!(
        out.contains("\r\n250 "),
        "trust was earned before the shed: {out}"
    );
    assert!(
        out.ends_with("421 4.3.2 Service not available, closing transmission channel\r\n"),
        "{out}"
    );
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
}

#[test]
fn ipv6_peer_is_refused_at_the_door() {
    let script = vec![
        (
            SEC,
            SimEvent::Connect {
                conn: 1,
                peer: peer("[2001:db8::1]:2525"),
            },
        ),
        (2 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    h.run(&mut |t| Some(t));

    assert_eq!(h.stats.rejected_ipv6.get(), 1);
    assert!(!h.reactor.conn_open(1));
    assert!(h.output_text(1).starts_with("554 "), "{}", h.output_text(1));
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
}

#[test]
fn peer_eof_mid_dialog_counts_one_unfinished() {
    let script = vec![
        connect(SEC, 1),
        data(2 * SEC, 1, b"HELO a\r\n"),
        (3 * SEC, SimEvent::Eof { conn: 1 }),
        (4 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    h.run(&mut |t| Some(t));

    assert_eq!(h.stats.unfinished.get(), 1);
    assert_eq!(
        h.stats.idle_evictions.get(),
        0,
        "EOF closed it before any timer"
    );
    assert!(!h.reactor.conn_open(1));
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
}

/// The reactor's own termination backstop: a script that leaves the
/// engine with nothing to wait for (no timers, no events) must stop the
/// simulation instead of hanging the test forever.
#[test]
fn exhausted_script_terminates_the_run() {
    let script = vec![connect(SEC, 1)];
    let mut h = harness(script, &Config::default());
    h.run(&mut |t| Some(t));

    // The lone connection idles out at t=6s, after which the wheel is
    // empty and the script dry: the reactor flips stop itself.
    assert_eq!(h.stats.idle_evictions.get(), 1);
    assert!(
        h.reactor
            .log()
            .iter()
            .any(|l| l.contains("script-exhausted")),
        "{:?}",
        h.reactor.log()
    );
}

/// A peer whose receive window is zero from the handshake on: the
/// greeting queues (one `master.write_stalls`), the no-progress deadline
/// arms at the accept instant, and with no grant ever arriving the
/// engine evicts the connection at exactly accept + `write_stall` on the
/// virtual clock — without a farewell, and with the outq gauge
/// reconciled back to zero.
#[test]
fn zero_window_peer_is_evicted_at_the_stall_deadline() {
    let cfg = Config {
        idle: Duration::from_secs(30),
        session: Duration::from_secs(60),
        write_stall: Duration::from_secs(10),
        ..Config::default()
    };
    let script = vec![
        connect(SEC, 1),
        // Same-instant zero grant: scripted flow control from byte one.
        (SEC, SimEvent::Window { conn: 1, bytes: 0 }),
        (20 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &cfg);
    h.run(&mut |t| Some(t));

    assert_eq!(h.registry.counter_value("master.write_stalls"), Some(1));
    assert_eq!(
        h.registry.counter_value("master.evicted_slow_writers"),
        Some(1)
    );
    assert_eq!(h.stats.unfinished.get(), 1);
    assert!(!h.reactor.conn_open(1), "stalled writer was dropped");
    assert_eq!(
        h.output_text(1),
        "",
        "a zero-window peer never receives a byte"
    );
    assert_eq!(h.registry.gauge_value("master.outq_bytes"), Some(0));
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
    // The eviction is the stall timer firing at exactly accept + 10s.
    assert!(
        h.reactor
            .log()
            .iter()
            .any(|l| l == &format!("t={} timer", 11 * SEC)),
        "expected the stall wakeup at t=11s in {:?}",
        h.reactor.log()
    );
    assert!(
        h.reactor.log().iter().any(|l| l.contains("arm-write")),
        "write interest was armed for the stalled greeting: {:?}",
        h.reactor.log()
    );
}

/// The stall deadline measures *no progress*, not total queue lifetime: a
/// peer draining one byte per virtual second keeps a 3-second stall
/// budget alive for the 30 seconds the greeting needs, and every reply
/// byte arrives in order with none lost.
#[test]
fn one_byte_per_tick_drip_outlives_the_stall_budget_without_eviction() {
    let cfg = Config {
        idle: Duration::from_secs(60),
        session: Duration::from_secs(120),
        write_stall: Duration::from_secs(3),
        ..Config::default()
    };
    let greeting = "220 sim.test ESMTP spamaware\r\n";
    let mut script = vec![
        connect(SEC, 1),
        (SEC, SimEvent::Window { conn: 1, bytes: 0 }),
    ];
    // One byte of window per second: each grant is inside the 3 s stall
    // budget, but the whole drain takes 10× that budget.
    for i in 0..greeting.len() as u64 {
        script.push(((2 + i) * SEC, SimEvent::Window { conn: 1, bytes: 1 }));
    }
    script.push((40 * SEC, SimEvent::Stop));
    let mut h = harness(script, &cfg);
    h.run(&mut |t| Some(t));

    assert_eq!(
        h.output_text(1),
        greeting,
        "the drip received every reply byte, in order"
    );
    // The connection survived to the shutdown (the engine dropping it at
    // stop is not an eviction): no slow-writer eviction, no unfinished
    // transaction was counted.
    assert_eq!(h.registry.counter_value("master.write_stalls"), Some(1));
    assert_eq!(
        h.registry.counter_value("master.evicted_slow_writers"),
        Some(0)
    );
    assert_eq!(h.stats.unfinished.get(), 0);
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(1));
    assert_eq!(h.registry.gauge_value("master.outq_bytes"), Some(0));
    // The queue drained: interest was disarmed, closing the cycle.
    assert!(
        h.reactor.log().iter().any(|l| l.contains("disarm-write")),
        "{:?}",
        h.reactor.log()
    );
}

/// A queue cap smaller than the greeting overflows on the very first
/// send: the engine evicts the slow writer synchronously at the accept
/// instant instead of carrying an unbounded buffer for a peer that
/// reads nothing.
#[test]
fn outq_cap_overflow_evicts_at_the_accept_instant() {
    let cfg = Config {
        max_outq_bytes: 8,
        ..Config::default()
    };
    let script = vec![
        connect(SEC, 1),
        (SEC, SimEvent::Window { conn: 1, bytes: 0 }),
        (2 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &cfg);
    h.run(&mut |t| Some(t));

    assert_eq!(
        h.registry.counter_value("master.evicted_slow_writers"),
        Some(1)
    );
    assert!(!h.reactor.conn_open(1));
    assert_eq!(h.registry.gauge_value("master.outq_bytes"), Some(0));
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
    // Overflow eviction is immediate — no timer wakeup was needed.
    assert!(
        !h.reactor.log().iter().any(|l| l.contains("timer")),
        "{:?}",
        h.reactor.log()
    );
}

/// A drain hands the connection back from the write-stall budget to the
/// shorter idle one, which runs from the drain: the peer that drained its
/// reply at t=7s and then fell silent is evicted at exactly t=12s, not at
/// the t=14s stall deadline that was armed while the reply sat queued.
#[test]
fn a_drain_restarts_the_idle_budget_from_the_drain() {
    let script = vec![
        connect(SEC, 1),
        (3 * SEC, SimEvent::Window { conn: 1, bytes: 0 }),
        // The reply queues at t=4s: a 10 s stall budget, due at t=14s.
        data(4 * SEC, 1, b"NOOP\r\n"),
        (7 * SEC, SimEvent::Window { conn: 1, bytes: 64 }),
        (30 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    h.run(&mut |t| Some(t));

    assert_eq!(h.stats.idle_evictions.get(), 1);
    assert_eq!(
        h.registry.counter_value("master.evicted_slow_writers"),
        Some(0)
    );
    assert!(h.output_text(1).ends_with("250 2.0.0 Ok\r\n"));
    let log = h.reactor.log();
    assert!(
        log.iter().any(|l| l == &format!("t={} timer", 12 * SEC)),
        "expected the idle wakeup at t=12s in {log:?}"
    );
}

/// Backpressure: while replies sit queued toward a peer that is not
/// draining them, the engine takes no more input from it — commands
/// pipelined behind the stall stay in the socket, the queue holds the one
/// burst that stalled and nothing more, and the grant that drains it
/// resumes the dialog where it stopped, every reply in order.
#[test]
fn input_waits_while_replies_are_queued() {
    const OK: &str = "250 2.0.0 Ok\r\n";
    let script = |grant: bool| {
        let mut script = vec![
            connect(SEC, 1),
            // The greeting flushed; then the peer stops reading.
            (2 * SEC, SimEvent::Window { conn: 1, bytes: 0 }),
            data(3 * SEC, 1, b"NOOP\r\nNOOP\r\nNOOP\r\n"),
            data(4 * SEC, 1, b"NOOP\r\nNOOP\r\n"),
            data(5 * SEC, 1, b"NOOP\r\n"),
        ];
        if grant {
            let bytes = 4096;
            script.push((6 * SEC, SimEvent::Window { conn: 1, bytes }));
        }
        script.push((7 * SEC, SimEvent::Stop));
        script
    };
    let cfg = Config {
        idle: Duration::from_secs(30),
        ..Config::default()
    };

    let mut stalled = harness(script(false), &cfg);
    stalled.run(&mut |t| Some(t));
    assert_eq!(
        stalled.registry.gauge_value("master.outq_bytes"),
        Some(3 * OK.len() as i64),
        "only the burst that met the closed window is queued"
    );
    assert_eq!(
        stalled.reactor.unread_input(1),
        3 * "NOOP\r\n".len(),
        "later commands were never read"
    );
    assert_eq!(stalled.output_text(1), "220 sim.test ESMTP spamaware\r\n");

    let mut drained = harness(script(true), &cfg);
    drained.run(&mut |t| Some(t));
    assert_eq!(
        drained.output_text(1),
        format!("220 sim.test ESMTP spamaware\r\n{}", OK.repeat(6)),
        "the drain resumed the dialog"
    );
    assert_eq!(drained.reactor.unread_input(1), 0);
    assert_eq!(drained.registry.gauge_value("master.outq_bytes"), Some(0));
    let log = drained.reactor.log();
    let at = |line: &str| log.iter().position(|l| l == line).expect(line);
    assert!(at("mute-read id=0x1") < at("unmute-read id=0x1"), "{log:?}");
}

/// Reply bytes a stalled peer has not accepted travel with the trusted
/// hand-off (`Trusted::pending_out`) instead of being dropped: the
/// worker owes the peer those bytes before any reply of its own.
#[test]
fn stalled_trust_burst_hands_queued_replies_to_the_worker() {
    let script = vec![
        connect(SEC, 1),
        // The greeting flushed under the default unlimited window; now
        // the peer's receive buffer fills before the dialog replies.
        (2 * SEC, SimEvent::Window { conn: 1, bytes: 0 }),
        data(3 * SEC, 1, TRUST_BURST),
        (5 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    let mut trusted: Vec<Trusted<SimConn>> = Vec::new();
    h.run(&mut |t| {
        trusted.push(t);
        None
    });

    assert_eq!(trusted.len(), 1);
    let t = &trusted[0];
    let pending = String::from_utf8_lossy(&t.pending_out);
    assert_eq!(
        pending.matches("250 ").count(),
        3,
        "HELO, MAIL, and RCPT replies all queued for the worker: {pending}"
    );
    assert!(pending.ends_with("\r\n"), "{pending}");
    assert_eq!(
        h.output_text(1),
        "220 sim.test ESMTP spamaware\r\n",
        "the wire saw only the greeting before the window closed"
    );
    assert_eq!(t.leftover, b"DATA\r\n");
    // The hand-off reconciled the gauge: the master no longer owns the
    // queued bytes.
    assert_eq!(h.registry.gauge_value("master.outq_bytes"), Some(0));
    assert!(h.reactor.conn_open(1), "delegated, not closed");
}

/// The whole stall history — a zero-window eviction and a drip that
/// survives on progress — is a pure function of the script: two
/// runs agree byte-for-byte on the reactor log (arm/disarm instants,
/// timer wakeups) and the metrics render.
#[test]
fn stall_and_eviction_history_replays_byte_identically() {
    fn script() -> Vec<(u64, SimEvent)> {
        vec![
            // Conn 1: zero window forever; stall deadline evicts at 6s.
            connect(SEC, 1),
            (SEC, SimEvent::Window { conn: 1, bytes: 0 }),
            // Conn 2: stalls at 2s, then drips inside the 5s budget and
            // drains fully on a big grant.
            connect(2 * SEC, 2),
            (2 * SEC, SimEvent::Window { conn: 2, bytes: 0 }),
            (4 * SEC, SimEvent::Window { conn: 2, bytes: 1 }),
            (6 * SEC, SimEvent::Window { conn: 2, bytes: 1 }),
            (
                8 * SEC,
                SimEvent::Window {
                    conn: 2,
                    bytes: 100,
                },
            ),
            (12 * SEC, SimEvent::Stop),
        ]
    }
    let cfg = Config {
        idle: Duration::from_secs(30),
        session: Duration::from_secs(60),
        write_stall: Duration::from_secs(5),
        ..Config::default()
    };
    let run = || {
        let mut h = harness(script(), &cfg);
        h.run(&mut |t| Some(t));
        (
            h.reactor.log().to_vec(),
            h.registry.render(),
            h.output_text(2),
        )
    };
    let (log_a, render_a, out2_a) = run();
    let (log_b, render_b, out2_b) = run();
    assert_eq!(log_a, log_b, "reactor event logs diverged");
    assert_eq!(render_a, render_b, "metrics renders diverged");
    assert_eq!(out2_a, out2_b);
    // Sanity: the replay exercised both sides of the stall machinery.
    assert_eq!(out2_a, "220 sim.test ESMTP spamaware\r\n");
    assert!(
        render_a.contains("counter master.evicted_slow_writers 1"),
        "{render_a}"
    );
    assert!(
        render_a.contains("counter master.write_stalls 2"),
        "{render_a}"
    );
    // Conn 1's stall deadline (armed at 1s, 5s budget) expires inside the
    // t=6s wakeup that conn 2's grant happens to trigger: the eviction's
    // unwatch lands between the t=6s batch and the next scripted instant.
    let unwatch = log_a
        .iter()
        .position(|l| l == "unwatch id=0x1")
        .expect("conn 1 was evicted");
    let t6 = log_a
        .iter()
        .position(|l| l.starts_with(&format!("t={} ", 6 * SEC)))
        .expect("a t=6s wakeup");
    let t8 = log_a
        .iter()
        .position(|l| l.starts_with(&format!("t={} ", 8 * SEC)))
        .expect("a t=8s wakeup");
    assert!(
        t6 < unwatch && unwatch < t8,
        "stall eviction pinned to the t=6s wakeup: {log_a:?}"
    );
    assert!(
        log_a.iter().any(|l| l.contains("disarm-write")),
        "conn 2 drained and disarmed: {log_a:?}"
    );
}

// ---------------------------------------------------------------------
// Past the trust seam: the worker's loop on the same scripted network.
// ---------------------------------------------------------------------

type SimStore = ShardedStore<SyncBackend<MemFs>>;

/// Post-trust knobs a scenario wants to pin down.
struct WorkerConfig {
    read_timeout: Duration,
    data_deadline: Duration,
    /// Hand-offs the queue between master and worker holds.
    queue: usize,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            read_timeout: Duration::from_secs(30),
            data_deadline: Duration::from_secs(10),
            queue: 8,
        }
    }
}

impl Harness {
    /// Runs the master until the script's first `Stop`, queueing every
    /// trusted hand-off the way `LiveServer`'s dispatch does; then clears
    /// the stop flag and runs a worker over the *same* scripted network
    /// (and a fresh `MemFs` store) until the next `Stop`. Both halves are
    /// the production loops; only the thread boundary is gone.
    fn run_through_the_seam(&mut self, cfg: &WorkerConfig) -> Arc<SimStore> {
        let fs = SyncBackend::new(MemFs::new());
        let store = Arc::new(ShardedStore::open_with(2, || Ok(fs.clone())).expect("memfs store"));
        self.run_through_the_seam_into(cfg, Arc::clone(&store));
        store
    }

    /// [`Harness::run_through_the_seam`] with the worker delivering into
    /// `store`.
    fn run_through_the_seam_into<B: Backend>(
        &mut self,
        cfg: &WorkerConfig,
        store: Arc<ShardedStore<B>>,
    ) {
        let (tx, rx) = sync_channel(cfg.queue);
        let delegated = Arc::clone(&self.stats.delegated);
        let clock = Arc::clone(&self.registry);
        self.run(&mut |t| {
            delegated.inc();
            tx.try_send((clock.now_nanos(), t)).err().map(|e| match e {
                TrySendError::Full((_, t)) | TrySendError::Disconnected((_, t)) => t,
            })
        });
        self.ctx.stop.store(false, Ordering::SeqCst);
        let ctx = WorkerCtx {
            rx,
            store,
            stats: Arc::clone(&self.stats),
            next_id: Arc::new(AtomicU64::new(1)),
            mailboxes: Arc::clone(&self.ctx.mailboxes),
            registry: Arc::clone(&self.registry),
            line_pool: Arc::clone(&self.ctx.line_pool),
            body_pool: Arc::new(BufferPool::new(&self.registry, 4, 1024)),
            stop: Arc::clone(&self.ctx.stop),
            draining: Arc::clone(&self.ctx.draining),
            inflight: Arc::clone(&self.ctx.inflight),
            read_timeout: cfg.read_timeout,
            session_deadline: self.ctx.session_deadline,
            data_deadline: cfg.data_deadline,
            max_outq_bytes: self.ctx.max_outq_bytes,
        };
        run_posttrust(&mut self.reactor, ctx);
        self.assert_conserved();
    }
}

const R421: &str = "421 4.3.2 Service not available, closing transmission channel\r\n";

/// The delegation seam leaves no reply gap: the three `250`s the stalled
/// peer had not accepted when it earned trust travel as `pending_out`,
/// and the worker sends them before the `354` that answers the `DATA`
/// pipelined past the trusting `RCPT`. The transaction then completes
/// into the store and the connection ends in exactly one outcome.
#[test]
fn worker_sends_the_masters_backlog_before_its_first_reply() {
    let script = vec![
        connect(SEC, 1),
        // The greeting flushed; then the peer's window closes, so the
        // trusting burst's replies stay queued across the hand-off.
        (2 * SEC, SimEvent::Window { conn: 1, bytes: 0 }),
        data(3 * SEC, 1, TRUST_BURST),
        (4 * SEC, SimEvent::Stop),
        // Worker half: the window reopens, body and QUIT follow.
        (
            5 * SEC,
            SimEvent::Window {
                conn: 1,
                bytes: 4096,
            },
        ),
        data(6 * SEC, 1, b"Subject: seam\r\n\r\nhello\r\n.\r\n"),
        data(7 * SEC, 1, b"QUIT\r\n"),
        (8 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    let store = h.run_through_the_seam(&WorkerConfig::default());

    let out = h.output_text(1);
    let codes: Vec<&str> = out.lines().map(|l| &l[..3]).collect();
    assert_eq!(
        codes,
        ["220", "250", "250", "250", "354", "250", "221"],
        "one reply per command, in order, across the seam: {out}"
    );
    assert!(!h.reactor.conn_open(1), "QUIT closed it");
    let mails = store.read_mailbox("alice").expect("read");
    assert_eq!(mails.len(), 1);
    assert!(String::from_utf8_lossy(&mails[0].body).contains("hello"));
    let snap = h.stats.snapshot();
    assert_eq!(
        (snap.delegated, snap.mails_stored, snap.delivered),
        (1, 1, 1)
    );
    assert_eq!(snap.unfinished, 0);
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
    assert_eq!(h.registry.histogram_count("worker.queue_wait_ns"), Some(1));
    assert_eq!(h.registry.histogram_count("worker.data_ns"), Some(1));
}

/// A whole transaction in one segment straddles the seam: the master
/// consumes up to the trusting `RCPT` and stops mid-buffer, the rest —
/// second `RCPT`, `DATA`, body, `QUIT` — travels as `leftover` and the
/// worker serves it without a single read. Every command still gets
/// exactly one reply, in order, and nothing before the cursor is replayed.
#[test]
fn one_segment_straddling_the_seam_gets_one_reply_per_command() {
    let mut burst = TRUST_BURST[..TRUST_BURST.len() - b"DATA\r\n".len()].to_vec();
    burst.extend_from_slice(
        b"RCPT TO:<bob@dept.example>\r\nDATA\r\nSubject: one segment\r\n\r\n..dotted\r\n.\r\nQUIT\r\n",
    );
    let script = vec![
        connect(SEC, 1),
        data(2 * SEC, 1, &burst),
        (3 * SEC, SimEvent::Stop),
        // Worker half: nothing more arrives; the grant only stands in for
        // the wakeup the master's enqueue gives a live worker.
        (
            4 * SEC,
            SimEvent::Window {
                conn: 1,
                bytes: 4096,
            },
        ),
        (5 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    let store = h.run_through_the_seam(&WorkerConfig::default());

    let out = h.output_text(1);
    let codes: Vec<&str> = out.lines().map(|l| &l[..3]).collect();
    assert_eq!(
        codes,
        ["220", "250", "250", "250", "250", "354", "250", "221"],
        "one reply per command, in order, across the seam: {out}"
    );
    assert!(!h.reactor.conn_open(1), "QUIT closed it");
    for mailbox in ["alice", "bob"] {
        let mails = store.read_mailbox(mailbox).expect("read");
        assert_eq!(mails.len(), 1, "{mailbox}");
        assert_eq!(mails[0].body, b"Subject: one segment\r\n\r\n.dotted\r\n");
    }
    let snap = h.stats.snapshot();
    assert_eq!(
        (snap.delegated, snap.mails_stored, snap.delivered),
        (1, 1, 1)
    );
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
}

/// A sender trickling its body keeps the idle timer at bay but cannot
/// outlive the `DATA` budget: the `421` lands at exactly `354` + budget on
/// the virtual clock, nothing is stored, and the connection — which
/// reached *no* terminal counter before this engine — is `unfinished`.
#[test]
fn trickled_data_is_evicted_at_the_exact_data_deadline() {
    let mut script = vec![
        connect(SEC, 1),
        data(2 * SEC, 1, TRUST_BURST),
        (3 * SEC, SimEvent::Stop),
    ];
    // The worker adopts the connection at t=5s (its first wakeup), so the
    // pipelined DATA gets its 354 — and the 10 s budget starts — there.
    for i in 0..5u64 {
        script.push(data((5 + 3 * i) * SEC, 1, b"drip\r\n"));
    }
    script.push((40 * SEC, SimEvent::Stop));
    let mut h = harness(script, &Config::default());
    let cfg = WorkerConfig {
        read_timeout: Duration::from_secs(5),
        ..WorkerConfig::default()
    };
    let store = h.run_through_the_seam(&cfg);

    let snap = h.stats.snapshot();
    assert_eq!(snap.data_deadline_evictions, 1);
    assert_eq!(
        (snap.delivered, snap.unfinished, snap.mails_stored),
        (0, 1, 0)
    );
    assert!(store.read_mailbox("alice").expect("read").is_empty());
    assert!(!h.reactor.conn_open(1));
    let out = h.output_text(1);
    assert!(
        out.ends_with(&format!("354 End data with <CR><LF>.<CR><LF>\r\n{R421}")),
        "{out}"
    );
    assert!(
        h.reactor
            .log()
            .iter()
            .any(|l| l == &format!("t={} timer", 15 * SEC)),
        "expected the DATA-budget wakeup at t=15s in {:?}",
        h.reactor.log()
    );
    // The abandoned transfer still shows up in the latency histogram.
    assert_eq!(h.registry.histogram_count("worker.data_ns"), Some(1));
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
}

/// Drain on the worker: a connection between transactions is told `421`
/// at once; one mid-`DATA` runs to completion — its mail reaches the
/// store and its `250` the wire — and is told `421` right behind the ack.
#[test]
fn drain_finishes_the_inflight_data_then_parts_with_421() {
    let script = vec![
        connect(SEC, 1),
        connect(SEC, 2),
        data(2 * SEC, 1, TRUST_BURST),
        // Conn 2 earns trust but has not asked for DATA.
        data(
            2 * SEC,
            2,
            b"HELO b\r\nMAIL FROM:<y@client.example>\r\nRCPT TO:<bob@dept.example>\r\n",
        ),
        (3 * SEC, SimEvent::Stop),
        data(5 * SEC, 1, b"first half\r\n"),
        (6 * SEC, SimEvent::Drain),
        data(7 * SEC, 1, b"second half\r\n.\r\n"),
        (9 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    let store = h.run_through_the_seam(&WorkerConfig::default());

    let idle = h.output_text(2);
    assert!(idle.ends_with(&format!("250 2.0.0 Ok\r\n{R421}")), "{idle}");
    let busy = h.output_text(1);
    assert!(
        busy.ends_with(&format!("250 2.0.0 Ok: queued as 0000000001\r\n{R421}")),
        "ack first, farewell second: {busy}"
    );
    for conn in [1, 2] {
        assert!(!h.reactor.conn_open(conn), "conn {conn} survived the drain");
    }
    // Conn 2 left at the drain instant, conn 1 only once its DATA ended.
    let log = h.reactor.log();
    // (Last occurrence: the master's hand-off also unwatched each id.)
    let at = |line: &str| log.iter().rposition(|l| l == line).expect(line);
    let second_half = at(&format!("t={} data conn=1 len=16", 7 * SEC));
    assert!(at("unwatch id=0x2") < second_half);
    assert!(second_half < at("unwatch id=0x1"));
    let mails = store.read_mailbox("alice").expect("read");
    assert_eq!(mails.len(), 1, "the mail acked mid-drain is stored");
    assert!(String::from_utf8_lossy(&mails[0].body).contains("second half"));
    let snap = h.stats.snapshot();
    assert_eq!((snap.delivered, snap.unfinished), (1, 1));
    assert_eq!(
        snap.shed_draining, 0,
        "a worker-side 421 is not a door shed"
    );
    assert_eq!(h.registry.gauge_value("live.inflight"), Some(0));
}

/// A connection that ends mid-`DATA` gives back both of its pooled
/// buffers — the line buffer and the capture buffer taken at the `354` —
/// so the next `DATA` on the worker recycles instead of allocating.
#[test]
fn a_body_buffer_abandoned_mid_data_returns_to_its_pool() {
    let script = vec![
        connect(SEC, 1),
        connect(SEC, 2),
        data(2 * SEC, 1, TRUST_BURST),
        // Conn 2 earns trust but asks for DATA only after conn 1 is gone.
        data(
            2 * SEC,
            2,
            b"HELO b\r\nMAIL FROM:<y@client.example>\r\nRCPT TO:<bob@dept.example>\r\n",
        ),
        (3 * SEC, SimEvent::Stop),
        data(5 * SEC, 1, b"half a mail\r\n"),
        (6 * SEC, SimEvent::Eof { conn: 1 }),
        data(7 * SEC, 2, b"DATA\r\n"),
        (8 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    h.run_through_the_seam(&WorkerConfig::default());

    assert!(h
        .output_text(2)
        .ends_with("354 End data with <CR><LF>.<CR><LF>\r\n"));
    let snap = h.stats.snapshot();
    assert_eq!((snap.delivered, snap.unfinished), (0, 1), "conn 1 is gone");
    // Misses: two line buffers at the door, conn 1's body. Conn 2's body
    // is conn 1's, recycled.
    assert_eq!(h.registry.counter_value("live.pool_miss"), Some(3));
    assert_eq!(h.registry.counter_value("live.pool_reuse"), Some(1));
}

/// The post-trust history — hand-off, backlog flush, a stored mail, a
/// `DATA`-deadline eviction — is a pure function of the script too.
#[test]
fn posttrust_history_replays_byte_identically() {
    fn script() -> Vec<(u64, SimEvent)> {
        vec![
            connect(SEC, 1),
            connect(SEC, 2),
            (2 * SEC, SimEvent::Window { conn: 1, bytes: 0 }),
            data(3 * SEC, 1, TRUST_BURST),
            data(3 * SEC, 2, TRUST_BURST),
            (4 * SEC, SimEvent::Stop),
            (
                5 * SEC,
                SimEvent::Window {
                    conn: 1,
                    bytes: 4096,
                },
            ),
            data(6 * SEC, 1, b"mail one\r\n.\r\nQUIT\r\n"),
            // Conn 2 starts a body and goes quiet: evicted at 5s + 10s.
            data(6 * SEC, 2, b"never finished\r\n"),
            (30 * SEC, SimEvent::Stop),
        ]
    }
    let run = || {
        let mut h = harness(script(), &Config::default());
        let store = h.run_through_the_seam(&WorkerConfig::default());
        (
            h.reactor.log().to_vec(),
            h.registry.render(),
            h.output_text(1),
            h.output_text(2),
            store.read_mailbox("alice").expect("read").len(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "reactor event logs diverged");
    assert_eq!(a.1, b.1, "metrics renders diverged");
    assert_eq!((&a.2, &a.3, a.4), (&b.2, &b.3, b.4));
    // Sanity: the replay exercised both outcomes.
    assert_eq!(a.4, 1);
    assert!(a.1.contains("counter live.delivered 1"), "{}", a.1);
    assert!(
        a.1.contains("counter live.data_deadline_evictions 1"),
        "{}",
        a.1
    );
    assert!(a.3.ends_with(R421), "{}", a.3);
}

/// A mail is accepted when the store has it: a store that refuses every
/// write answers the body with `451`, stores nothing, and leaves the
/// connection unfinished. Before the store's answer picked the reply, the
/// session had already counted the mail, so the connection read as
/// delivered.
#[test]
fn a_mail_the_store_refuses_is_a_451_and_no_delivery() {
    let script = vec![
        connect(SEC, 1),
        data(2 * SEC, 1, TRUST_BURST),
        (3 * SEC, SimEvent::Stop),
        data(
            4 * SEC,
            1,
            b"Subject: refused\r\n\r\nhello\r\n.\r\nQUIT\r\n",
        ),
        (5 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    // Replay only reads, so the store opens; every write then fails.
    let fs = SyncBackend::new(MemFs::new());
    let store = ShardedStore::open_with(2, || {
        let mut handle = FaultyBackend::new(fs.clone());
        handle.plan_mut().fail_writes = true;
        Ok(handle)
    })
    .expect("a store with no writes yet opens");
    h.run_through_the_seam_into(&WorkerConfig::default(), Arc::new(store));

    let out = h.output_text(1);
    let codes: Vec<&str> = out.lines().map(|l| &l[..3]).collect();
    assert_eq!(
        codes,
        ["220", "250", "250", "250", "354", "451", "221"],
        "{out}"
    );
    let snap = h.stats.snapshot();
    assert_eq!(snap.delegated, 1, "the valid RCPT earned trust");
    assert_eq!(
        (snap.mails_stored, snap.delivered, snap.unfinished),
        (0, 0, 1)
    );
}

/// A session trusted after one `550` that quits before `DATA` is the same
/// bounce on the worker as in the DES: the client ended a dialogue that
/// drew a `550` and delivered nothing. Before the verdict had one home,
/// the worker counted it `unfinished`.
#[test]
fn a_trusted_session_that_quits_after_a_550_is_one_bounce() {
    let script = vec![
        connect(SEC, 1),
        data(
            2 * SEC,
            1,
            b"HELO relay.example\r\nMAIL FROM:<x@client.example>\r\n\
              RCPT TO:<ghost@dept.example>\r\nRCPT TO:<alice@dept.example>\r\n",
        ),
        (3 * SEC, SimEvent::Stop),
        data(4 * SEC, 1, b"QUIT\r\n"),
        (5 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    h.run_through_the_seam(&WorkerConfig::default());

    let out = h.output_text(1);
    let codes: Vec<&str> = out.lines().map(|l| &l[..3]).collect();
    assert_eq!(codes, ["220", "250", "250", "550", "250", "221"], "{out}");
    let snap = h.stats.snapshot();
    assert_eq!(snap.delegated, 1, "the valid RCPT earned trust");
    assert_eq!((snap.bounces, snap.unfinished), (1, 0));
}

/// A trusted session that falls silent is evicted by the worker's idle
/// timer, and the eviction is counted where the master counts its own:
/// `live.idle_evictions` names the cause of the `unfinished`.
#[test]
fn a_silent_trusted_session_is_an_idle_eviction_on_the_worker() {
    let script = vec![
        connect(SEC, 1),
        data(
            2 * SEC,
            1,
            b"HELO relay.example\r\nMAIL FROM:<x@client.example>\r\nRCPT TO:<alice@dept.example>\r\n",
        ),
        (3 * SEC, SimEvent::Stop),
        // Worker half: the grant stands in for the enqueue's wakeup; then
        // nothing arrives.
        (
            4 * SEC,
            SimEvent::Window {
                conn: 1,
                bytes: 4096,
            },
        ),
        (20 * SEC, SimEvent::Stop),
    ];
    let mut h = harness(script, &Config::default());
    h.run_through_the_seam(&WorkerConfig {
        read_timeout: Duration::from_secs(5),
        ..WorkerConfig::default()
    });

    let snap = h.stats.snapshot();
    assert_eq!(snap.delegated, 1, "the valid RCPT earned trust");
    assert_eq!((snap.idle_evictions, snap.unfinished), (1, 1));
    assert!(!h.reactor.conn_open(1), "the idle timer closed it");
}

// ---------------------------------------------------------------------
// The DES and the live engine classify a trace the same way.
// ---------------------------------------------------------------------

const MS: u64 = 1_000_000;

/// The bytes a DES client script puts on the wire: each command and its
/// CRLF, a body as lines of at most 998 bytes and the lone dot.
fn wire(script: &VecDeque<Step>) -> Vec<u8> {
    let mut out = Vec::new();
    for step in script {
        match step {
            Step::Cmd(cmd) => out.extend_from_slice(format!("{cmd}\r\n").as_bytes()),
            Step::Body(n) => {
                for _ in 0..n.div_ceil(998) {
                    out.extend_from_slice(&[b'x'; 996]);
                    out.extend_from_slice(b"\r\n");
                }
                out.extend_from_slice(b".\r\n");
            }
        }
    }
    out
}

/// Runs `trace` through the DES one connection at a time, so spec *k* is
/// connection *k*, then replays the specs it completed as wire bytes
/// through the master and a worker, and asserts both count the same
/// delivered, bounce and unfinished connections. Returns how many specs
/// were replayed.
fn des_and_live_agree_on(trace: &Trace) -> usize {
    let des = spamaware_server::run(
        trace,
        ServerConfig::hybrid(),
        ClientModel::Closed { concurrency: 1 },
        Nanos::from_secs(60),
    );
    let conns = des.connections;
    assert!(conns > 100, "only {conns} DES connections");
    let mut script = Vec::new();
    for (k, spec) in trace
        .connections
        .iter()
        .cycle()
        .take(conns as usize)
        .enumerate()
    {
        let (conn, at) = (k as u64 + 1, (k as u64 + 1) * MS);
        let peer = SocketAddr::from(([10, 1, (conn >> 8) as u8, conn as u8], 2525));
        script.push((at, SimEvent::Connect { conn, peer }));
        let bytes = wire(&build_script(spec));
        // An empty script is a client that hangs up after the greeting.
        script.push(if bytes.is_empty() {
            (at, SimEvent::Eof { conn })
        } else {
            (at, SimEvent::Data { conn, bytes })
        });
    }
    let end = (conns + 2) * MS;
    script.push((end, SimEvent::Stop));
    // Stands in for the wakeup the master's enqueue gives a live worker.
    script.push(data(end + MS, 1, b""));
    script.push((end + 2 * MS, SimEvent::Stop));
    let cfg = Config {
        max_connections: conns as usize,
        hosted: (0..trace.mailbox_count)
            .map(|i| format!("user{i}"))
            .collect(),
        ..Config::default()
    };
    let mut h = harness(script, &cfg);
    h.run_through_the_seam(&WorkerConfig {
        queue: conns as usize,
        ..WorkerConfig::default()
    });

    let live = h.stats.snapshot();
    assert_eq!(
        (live.delivered, live.bounces, live.unfinished),
        (des.delivered_connections, des.bounces, des.unfinished),
        "live (delivered, bounces, unfinished) vs the DES over {conns} connections"
    );
    assert!(des.delivered_connections > 0 && des.bounces > 0);
    conns as usize
}

#[test]
fn des_and_live_agree_on_a_bounce_sweep() {
    des_and_live_agree_on(&bounce_sweep_trace(5, 200, 0.6, 400));
}

#[test]
fn des_and_live_agree_on_the_combined_sinkhole_workload() {
    let sink = SinkholeConfig::scaled(0.005).generate();
    let trace = combined_workload(&sink.trace, 0.25, 0.10, 8);
    let replayed = des_and_live_agree_on(&trace);
    // Bounces, unfinished handshakes and silent drops were all replayed.
    let kinds: Vec<&ConnectionKind> = trace.connections[..replayed]
        .iter()
        .map(|c| &c.kind)
        .collect();
    assert!(kinds
        .iter()
        .any(|k| matches!(k, ConnectionKind::Bounce { .. })));
    for handshake_commands in [0, 1] {
        assert!(kinds.contains(&&ConnectionKind::Unfinished { handshake_commands }));
    }
}

#[test]
fn des_and_live_agree_on_a_univ_trace() {
    des_and_live_agree_on(&UnivConfig::scaled(1e-4).generate().trace);
}
