//! A live SMTP server implementing fork-after-trust over real TCP
//! sockets.
//!
//! This is the deployable rendering of the paper's §5 architecture (with
//! threads standing in for postfix's processes), and every thread that
//! talks to a peer runs the same session engine ([`crate::driver`]):
//!
//! * the **master** thread owns every new connection and drives the SMTP
//!   dialog through a non-blocking event loop until a valid `RCPT TO`
//!   arrives (fixed-size line buffers only — the §5.2 security argument);
//! * connections that never earn trust (bounces, abandoned handshakes) are
//!   answered and closed by the master without ever waking a worker;
//! * trusted connections are handed — socket, session state, and any
//!   already-buffered bytes — to one of a pool of **worker threads** over
//!   bounded queues (the 64 KiB-UNIX-socket analogue), round-robin with
//!   non-blocking sends so full queues throttle the master naturally;
//! * each worker multiplexes every trusted session it is given on its own
//!   reactor ([`crate::posttrust`]), finishes the transactions (`DATA`
//!   onward) and stores mail in a [`ShardedStore`] over [`RealDir`] —
//!   multi-recipient spam hits the disk once, and deliveries to different
//!   mailboxes proceed in parallel because the store stripes per-mailbox
//!   locks instead of serializing everything behind one mutex. The store
//!   call is the only blocking work on a worker: a slow sender costs its
//!   own connection state, never the thread.
//!
//! # Hot-path allocation discipline
//!
//! Steady-state traffic reuses memory instead of allocating: line buffers
//! and DATA bodies come from bounded [`BufferPool`]s (`live.pool_reuse` /
//! `live.pool_miss` counters), the announced hostname is one shared
//! `Arc<str>` rather than a per-connection clone, and the replies to a
//! pipelined command burst are coalesced into a single socket write.
//!
//! # Observability
//!
//! Every layer feeds a shared [`spamaware_metrics::Registry`]: lifecycle
//! counters (`live.*`), per-verb counts (`smtp.verb.*`), span timings for
//! the master's pre-trust dialog (`master.*`), worker queue wait / `DATA`
//! / storage latencies plus queue depth (`worker.*`), and the DNSBL agent
//! thread's lookups, cache, and breaker (`dnsbl.*`) and the instrumented
//! mail store (`mfs.*`).
//! [`LiveServer::metrics_report`] renders the registry deterministically;
//! the same text is served over a localhost admin socket
//! ([`LiveServer::admin_addr`]) in answer to a `METRICS` (or `STAT`)
//! command line.

use crate::dnsbl_agent::{agent_loop, DnsblAgentCtx};
use crate::driver::{drive, Acceptor, Arrival, DriverEnv, End, Gone, Limits, Protocol, Step};
use crate::instruments::{
    AgentMetrics, DriverMetrics, LiveSnapshot, LiveStats, MasterMetrics, Occupancy, VerbCounters,
    WorkerMetrics,
};
use crate::linebuf::LineBuffer;
use crate::pool::BufferPool;
use crate::posttrust::{run_posttrust, Handoff, WorkerCtx};
use crate::pretrust::{self, EngineCtx, Trusted};
use crate::reactor::os::OsReactor;
use crate::reactor::Pollable;
use crate::ServeError;
use spamaware_metrics::{Counter, Gauge, Registry};
use spamaware_mfs::{check_mailbox_name, RealDir, ShardedStore};
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Lookup requests the DNSBL agent's queue holds before the master starts
/// dropping them (counted in `dnsbl.agent_dropped`). Sized for an accept
/// burst: the agent drains cached and short-circuited lookups in
/// microseconds, so the queue only fills while the breaker is still
/// counting failures against a dead resolver.
const DNSBL_AGENT_QUEUE: usize = 256;

/// Mailbox-lock stripes in the sharded store. Shards only need to
/// outnumber the threads that can hold a mailbox lock at once, and 8
/// covers the 4-worker default pool twice over (DESIGN.md §11).
const STORE_SHARDS: usize = 8;

/// Descriptor slots reserved before the first thread starts: the budget
/// of DESIGN.md §11's fd arithmetic (spool handles, sockets, epoll sets
/// and wake pipes under the customary 1024 soft limit).
const FD_TABLE: usize = 1024;

/// How long a trusted session may go without sending a byte, and how
/// long its queued replies may go without the peer taking one.
const WORKER_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long one `DATA` body transfer may take; a trickling client is
/// evicted with `421` (`live.data_deadline_evictions`).
const DATA_DEADLINE: Duration = Duration::from_secs(120);

/// The same two budgets on the admin socket: a client that asks for
/// `METRICS` and then stops reading is cut off
/// (`live.admin_write_timeouts`).
const ADMIN_IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration for [`LiveServer::start`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Address to bind (use port 0 for an ephemeral port in tests).
    pub bind: SocketAddr,
    /// Hostname announced in the greeting — shared by reference across
    /// every connection, so keep it an `Arc<str>`.
    pub hostname: Arc<str>,
    /// Worker threads (the smtpd pool).
    pub workers: usize,
    /// Delegated connections a worker's queue holds (paper: ≈28).
    pub worker_queue: usize,
    /// Root directory for the MFS mail store.
    pub storage_root: PathBuf,
    /// Valid mailbox local parts.
    pub mailboxes: Vec<String>,
    /// Optional DNSBL over UDP, `(server address, zone)`, checked per
    /// connection with the DNSBLv6 bitmap scheme and cached per /25 for
    /// 24 h; the verdict is recorded, not used to reject (§9: "our
    /// solution does not delay/deny mail service to any client").
    pub dnsbl_udp: Option<(std::net::SocketAddr, String)>,
    /// How long a pre-trust connection may sit idle in the master's event
    /// loop before it is dropped (slow clients must not pin master state;
    /// the paper's smtpd has the analogous idle self-termination, §2).
    pub pretrust_idle_timeout: Duration,
    /// Total in-flight connections (pre-trust + queued + in a worker)
    /// admitted before new arrivals are shed with `421`.
    pub max_connections: usize,
    /// Pre-trust connections one client IP may hold open concurrently;
    /// the excess is shed with `421` (a single spammer must not monopolize
    /// the master's event loop).
    pub max_pretrust_per_ip: usize,
    /// Wall-clock budget for a whole session, measured from accept; a
    /// connection that overstays is evicted with `421` wherever it is in
    /// the dialog.
    pub session_deadline: Duration,
    /// Hard cap on reply bytes queued toward any one pre-trust peer in the
    /// master's event loop. A peer whose backlog would exceed it — it
    /// pipelines commands but never reads replies — is evicted
    /// (`master.evicted_slow_writers`) rather than allowed to grow master
    /// memory without bound.
    pub max_outq_bytes: usize,
    /// No-progress budget for queued pre-trust output: a stalled peer
    /// whose queue advances by zero bytes for this long is evicted. Any
    /// flushed byte resets the clock, so a slow-but-live reader is served
    /// indefinitely while a frozen one is cut off.
    pub write_stall_timeout: Duration,
}

impl LiveConfig {
    /// A localhost config rooted at `storage_root` hosting `mailboxes`.
    pub fn localhost(storage_root: impl Into<PathBuf>, mailboxes: Vec<String>) -> LiveConfig {
        LiveConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            hostname: "mx.spamaware.test".into(),
            workers: 4,
            worker_queue: 28,
            storage_root: storage_root.into(),
            mailboxes,
            dnsbl_udp: None,
            pretrust_idle_timeout: Duration::from_secs(30),
            max_connections: 512,
            max_pretrust_per_ip: 32,
            session_deadline: Duration::from_secs(300),
            max_outq_bytes: 64 * 1024,
            write_stall_timeout: Duration::from_secs(10),
        }
    }
}

impl LiveSnapshot {
    /// Accepted connections that have not reached a terminal outcome:
    /// the conservation equation of DESIGN.md §14.3. Every accepted
    /// connection ends in exactly one of the outcomes the table marks
    /// `terminal` — *delivered*, *bounce*, *unfinished*, or *refused at
    /// the door* (IPv6, in-flight cap, per-IP cap, draining) — so at
    /// quiesce this equals the `live.inflight` gauge: zero once every
    /// client has left. `shed_draining` also counts drain evictions, which
    /// are `unfinished`, hence the subtraction; `shed_worker_busy` and the
    /// eviction counters are causes of an `unfinished`, not outcomes.
    ///
    /// The subtraction is signed: a snapshot is not atomic, and one taken
    /// while a drain evicts can read `drain_evictions` ahead of
    /// `shed_draining`.
    pub fn unaccounted(&self) -> i64 {
        self.accepted as i64 - (self.terminal_outcomes() as i64 - self.drain_evictions as i64)
    }
}

/// Registers every instrument otherwise created lazily in a thread
/// prologue (workers, master engine), so the registry's inventory — and an
/// admin `METRICS` render — is complete the instant `LiveServer::start`
/// returns instead of whenever the scheduler first runs each thread.
/// `get_or_create` semantics make the later per-thread registrations
/// resolve to these same instruments.
fn preregister_thread_instruments(registry: &Registry) {
    WorkerMetrics::register(registry);
    VerbCounters::register(registry);
    MasterMetrics::register(registry);
    DriverMetrics::register(registry);
}

/// A running spam-aware SMTP server.
///
/// # Example
///
/// ```no_run
/// use spamaware_core::{LiveConfig, LiveServer};
///
/// let cfg = LiveConfig::localhost("/tmp/spamaware-mail", vec!["alice".into()]);
/// let server = LiveServer::start(cfg)?;
/// println!("listening on {}", server.local_addr());
/// println!("{}", server.metrics_report());
/// server.shutdown();
/// # Ok::<(), spamaware_core::ServeError>(())
/// ```
pub struct LiveServer {
    addr: SocketAddr,
    admin_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    inflight: Arc<Gauge>,
    /// Interrupt the reactor wait of the master and of every worker, so a
    /// drain request is noticed now instead of at the next readiness
    /// event or timer deadline.
    session_wakers: Vec<rawpoll::WakePipe>,
    /// Interrupts the admin thread's reactor wait (shutdown only).
    admin_waker: rawpoll::WakePipe,
    threads: Vec<JoinHandle<()>>,
    stats: Arc<LiveStats>,
    registry: Arc<Registry>,
    store: Arc<ShardedStore<RealDir>>,
}

/// Binds a nonblocking listener and reports the address it got.
pub(crate) fn listen(bind: SocketAddr) -> Result<(TcpListener, SocketAddr), ServeError> {
    let io_err = |e: std::io::Error| ServeError::Io(e.to_string());
    let listener = TcpListener::bind(bind).map_err(io_err)?;
    listener.set_nonblocking(true).map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    Ok((listener, addr))
}

/// Refuses a hosted mailbox whose every mail the store would refuse.
pub(crate) fn check_mailboxes(mailboxes: &[String]) -> Result<(), ServeError> {
    for mb in mailboxes {
        check_mailbox_name(mb).map_err(|_| {
            ServeError::Config(format!("the store cannot hold a mailbox named {mb:?}"))
        })?;
    }
    Ok(())
}

impl LiveServer {
    /// Binds and starts the master, admin, and worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] if a socket cannot be bound, the storage
    /// root cannot be created, a limit is zero or the store cannot hold
    /// a hosted mailbox.
    pub fn start(cfg: LiveConfig) -> Result<LiveServer, ServeError> {
        if cfg.workers == 0 || cfg.worker_queue == 0 {
            return Err(ServeError::Config(
                "need at least one worker and queue slot".to_owned(),
            ));
        }
        if cfg.max_connections == 0 || cfg.max_pretrust_per_ip == 0 {
            return Err(ServeError::Config(
                "connection caps must admit at least one connection".to_owned(),
            ));
        }
        if cfg.max_outq_bytes == 0 {
            return Err(ServeError::Config(
                "outbound queue cap must admit at least one byte".to_owned(),
            ));
        }
        if cfg.session_deadline.is_zero() || cfg.write_stall_timeout.is_zero() {
            return Err(ServeError::Config(
                "the session deadline and the write-stall budget must be nonzero".to_owned(),
            ));
        }
        check_mailboxes(&cfg.mailboxes)?;
        // Every doubling of the descriptor table once threads run stalls
        // the thread that needs the slot for an RCU grace period — a
        // worker, perhaps under a shard lock. Grow it now, before this
        // server spawns any.
        rawpoll::reserve_fd_table(FD_TABLE);
        let (listener, addr) = listen(cfg.bind)?;
        let (admin_listener, admin_addr) = listen(SocketAddr::from(([127, 0, 0, 1], 0)))?;
        let registry = Arc::new(Registry::with_wall_clock());
        // Crash recovery first: fsck truncates torn tails and repairs
        // shmailbox refcounts on disk, then the partitions replay clean.
        let (store, fsck_report) =
            ShardedStore::open_with_fsck(STORE_SHARDS, || RealDir::new(&cfg.storage_root))
                .map_err(|e| ServeError::Io(e.to_string()))?;
        let store = Arc::new(store.with_metrics(&registry, "mfs"));
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(LiveStats::register(&registry));
        stats.recovered_records.add(fsck_report.recovered_records());
        stats.fsck_repairs.add(fsck_report.repairs());
        // Seed ids above everything already on disk: a restarted server
        // must never hand out a MailId a surviving record still uses.
        let first_id = store.max_mail_id().map_or(1, |id| id.0 + 1);
        let next_id = Arc::new(AtomicU64::new(first_id));
        let mailboxes: Arc<HashSet<String>> = Arc::new(cfg.mailboxes.iter().cloned().collect());
        // Line buffers cycle between the master's pre-trust loop and the
        // workers; body buffers cycle per DATA transaction.
        let line_pool = Arc::new(BufferPool::new(&registry, 64, 4096));
        let body_pool = Arc::new(BufferPool::new(&registry, 32, 16 * 1024));
        let draining = Arc::new(AtomicBool::new(false));
        let inflight = Occupancy::register(&registry).inflight;
        preregister_thread_instruments(&registry);

        // Every reactor is built here, not on its thread, so its waker
        // exists before anything that may need to interrupt it.
        let new_reactor = || OsReactor::new().map_err(|e| ServeError::Io(format!("reactor: {e}")));
        let master_reactor = new_reactor()?;
        let mut admin_reactor = new_reactor()?;
        let mut server = LiveServer {
            addr,
            admin_addr,
            stop: Arc::clone(&stop),
            draining: Arc::clone(&draining),
            inflight: Arc::clone(&inflight),
            session_wakers: vec![master_reactor.waker()],
            admin_waker: admin_reactor.waker(),
            threads: Vec::new(),
            stats: Arc::clone(&stats),
            registry: Arc::clone(&registry),
            store: Arc::clone(&store),
        };
        // From here a failure returns through `?`, which drops `server` —
        // and its `Drop` stops and joins whatever is already running.
        let mut dispatch = Dispatch {
            workers: Vec::new(),
            next: 0,
            registry: Arc::clone(&registry),
            delegated: Arc::clone(&stats.delegated),
            queue_depth: WorkerMetrics::register(&registry).queue_depth,
        };
        for w in 0..cfg.workers {
            let mut reactor = new_reactor()?;
            let (tx, rx) = sync_channel(cfg.worker_queue);
            server.session_wakers.push(reactor.waker());
            dispatch.workers.push((tx, reactor.waker()));
            let ctx = WorkerCtx {
                rx,
                store: Arc::clone(&store),
                stats: Arc::clone(&stats),
                next_id: Arc::clone(&next_id),
                mailboxes: Arc::clone(&mailboxes),
                registry: Arc::clone(&registry),
                line_pool: Arc::clone(&line_pool),
                body_pool: Arc::clone(&body_pool),
                stop: Arc::clone(&stop),
                draining: Arc::clone(&draining),
                inflight: Arc::clone(&inflight),
                read_timeout: WORKER_IDLE_TIMEOUT,
                session_deadline: cfg.session_deadline,
                data_deadline: DATA_DEADLINE,
                max_outq_bytes: cfg.max_outq_bytes,
            };
            server.spawn(format!("smtpd-{w}"), move || {
                run_posttrust(&mut reactor, ctx);
            })?;
        }

        // The DNSBL agent thread owns every lookup (cache, breaker, UDP
        // socket); the master only ever does a non-blocking `try_send`
        // into this bounded queue (§5: the master must never block).
        let dnsbl_tx = if let Some(dnsbl_udp) = cfg.dnsbl_udp {
            // Same up-front registration as `preregister_thread_instruments`,
            // but only when an agent will actually run — a DNSBL-less
            // server's report should not list agent metrics.
            AgentMetrics::register(&registry);
            let (tx, rx) = sync_channel(DNSBL_AGENT_QUEUE);
            let actx = DnsblAgentCtx {
                rx,
                stop: Arc::clone(&stop),
                blacklisted: Arc::clone(&stats.blacklisted),
                registry: Arc::clone(&registry),
                dnsbl_udp,
            };
            server.spawn("dnsbl-agent".to_owned(), move || agent_loop(actx))?;
            Some(tx)
        } else {
            None
        };

        let engine = EngineCtx {
            stop: Arc::clone(&stop),
            draining: Arc::clone(&draining),
            stats: Arc::clone(&stats),
            mailboxes,
            hostname: cfg.hostname,
            dnsbl_tx,
            pretrust_idle_timeout: cfg.pretrust_idle_timeout,
            session_deadline: cfg.session_deadline,
            max_outq_bytes: cfg.max_outq_bytes,
            write_stall_timeout: cfg.write_stall_timeout,
            max_connections: cfg.max_connections,
            max_pretrust_per_ip: cfg.max_pretrust_per_ip,
            registry: Arc::clone(&registry),
            line_pool,
            inflight,
        };
        server.spawn("master".to_owned(), move || {
            master_loop(listener, master_reactor, engine, dispatch);
        })?;

        let env = DriverEnv {
            clock: registry.clock(),
            stop,
            // The admin socket answers through a drain (that is how the
            // operator watches it converge).
            draining: Arc::new(AtomicBool::new(false)),
            limits: Limits {
                idle: ADMIN_IDLE_TIMEOUT,
                session: Duration::MAX,
                write_stall: ADMIN_IDLE_TIMEOUT,
                phase: Duration::MAX,
                max_outq_bytes: usize::MAX,
            },
            metrics: DriverMetrics::default(),
        };
        let mut admin = Admin {
            listener: admin_listener,
            registry,
            draining,
            session_wakers: server.session_wakers.clone(),
            sockopt_errors: Arc::clone(&stats.sockopt_errors),
            admin_write_timeouts: Arc::clone(&stats.admin_write_timeouts),
        };
        server.spawn("admin".to_owned(), move || {
            drive(&mut admin_reactor, &mut admin, &env);
        })?;
        Ok(server)
    }

    fn spawn(
        &mut self,
        name: String,
        body: impl FnOnce() + Send + 'static,
    ) -> Result<(), ServeError> {
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(body)
            .map_err(|e| ServeError::Io(format!("spawn {name}: {e}")))?;
        self.threads.push(handle);
        Ok(())
    }

    /// The bound SMTP address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The localhost admin socket answering `METRICS`/`STAT` commands.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin_addr
    }

    /// Live counters.
    pub fn stats(&self) -> &LiveStats {
        &self.stats
    }

    /// The server's metrics registry (counters, gauges, span histograms).
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Renders every registered metric as deterministic, sorted text.
    pub fn metrics_report(&self) -> String {
        self.registry.render()
    }

    /// Shared handle to the mail store (for inspection or a co-located
    /// POP3 server; all access methods take `&self`).
    pub fn store(&self) -> Arc<ShardedStore<RealDir>> {
        Arc::clone(&self.store)
    }

    /// Whether a drain has been requested (via [`LiveServer::drain`] or
    /// the admin `DRAIN` command).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Connections currently in flight (pre-trust, queued, or being
    /// served by a worker).
    pub fn inflight(&self) -> i64 {
        self.inflight.get()
    }

    /// Begins a graceful drain and waits up to `grace` for in-flight work
    /// to finish: the master `421`s new arrivals and evicts its pre-trust
    /// connections (they carry no acked mail), workers finish any `DATA`
    /// transfer already in progress — every acked mail reaches the store —
    /// and then `421`-close instead of starting new transactions.
    ///
    /// Returns `true` once the in-flight gauge reaches zero, `false` if
    /// the grace period expires first (stragglers are cut off by the
    /// subsequent [`LiveServer::shutdown`]).
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the caller's thread (whoever asked for the drain) sleeps and reads the wall clock \
                  while polling the in-flight gauge against a real grace period; no session runs on it"
    )]
    pub fn drain(&self, grace: Duration) -> bool {
        self.draining.store(true, Ordering::SeqCst);
        // Interrupt the reactor waits so the drain sweeps run now, not at
        // the next readiness event or timer deadline.
        for waker in &self.session_wakers {
            waker.wake();
        }
        let deadline = std::time::Instant::now() + grace;
        while self.inflight.get() > 0 {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Stops the acceptor and workers, waiting for them to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake every session loop out of its reactor wait. (The DNSBL
        // agent falls out of its `recv` when the master drops the queue.)
        for waker in self.session_wakers.iter().chain([&self.admin_waker]) {
            waker.wake();
        }
        for h in self.threads.drain(..) {
            #[expect(
                clippy::disallowed_methods,
                reason = "the caller's thread (shutdown or drop), after every session loop was told to stop and woken"
            )]
            let _ = h.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Round-robin non-blocking dispatch of trusted connections to the worker
/// queues.
struct Dispatch<C> {
    /// Each worker's queue and the waker of the reactor it parks in.
    workers: Vec<(SyncSender<Handoff<C>>, rawpoll::WakePipe)>,
    next: usize,
    registry: Arc<Registry>,
    delegated: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

impl<C> Dispatch<C> {
    /// Offers `task` to each worker once, starting after the last taker;
    /// a full queue pushes it to the next worker (natural throttle). A
    /// fully saturated pool returns the task, and the engine sheds it
    /// with `421` — a blocking send here would stall the master, and with
    /// it every pre-trust dialog and the accept path, behind the slowest
    /// worker.
    fn offer(&mut self, task: Trusted<C>) -> Option<Trusted<C>> {
        let mut item = (self.registry.now_nanos(), task);
        for probe in 0..self.workers.len() {
            let w = (self.next + probe) % self.workers.len();
            let (tx, waker) = &self.workers[w];
            match tx.try_send(item) {
                Ok(()) => {
                    self.next = (w + 1) % self.workers.len();
                    self.delegated.inc();
                    self.queue_depth.inc();
                    // One wake per hand-off, although the master could
                    // put the socket on the worker's epoll set itself and
                    // let the peer's next bytes do the waking: the wake
                    // has the worker adopt the connection while the
                    // client is still turning the `250` around. Without
                    // it `ham_small` measured worse over 10 alternating
                    // pairs (`cpu_us_per_session` 195.6 → 214.2 µs,
                    // `session_us_p50` 463.8 → 483.0 µs; ROADMAP item 1).
                    waker.wake();
                    return None;
                }
                Err(TrySendError::Full(back)) | Err(TrySendError::Disconnected(back)) => {
                    item = back;
                }
            }
        }
        Some(item.1)
    }
}

/// The master thread: hands control to the readiness-driven pre-trust
/// event loop ([`pretrust::run_pretrust`]) with the worker dispatch as
/// its trusted-connection sink. The reactor wait inside the engine is the
/// *only* blocking call reachable on this thread — there is no accept
/// polling, no per-connection read slicing, and no idle sleep.
fn master_loop(
    mut listener: TcpListener,
    mut reactor: OsReactor,
    engine: EngineCtx,
    mut dispatch: Dispatch<TcpStream>,
) {
    let mut sink = |task| dispatch.offer(task);
    pretrust::run_pretrust(&mut listener, &mut reactor, &engine, &mut sink);
}

/// Hard cap on one admin response. A `METRICS` render is a few KiB
/// today; the cap only matters if the instrument inventory ever explodes.
const ADMIN_RESPONSE_CAP: usize = 256 * 1024;

/// The admin protocol: operator commands over a localhost socket, one
/// command line per connection. `METRICS` (alias `STAT`) answers with
/// [`Registry::render`] output; `DRAIN` flips the graceful-drain flag and
/// answers `OK draining` — the caller then watches the `live.inflight`
/// gauge fall to zero before stopping the process. A client that asks and
/// then stops reading is cut off by the write-stall deadline
/// (`live.admin_write_timeouts`).
struct Admin {
    listener: TcpListener,
    registry: Arc<Registry>,
    draining: Arc<AtomicBool>,
    /// Wake the master and the workers out of their reactor waits when
    /// `DRAIN` arrives, so the drain sweep runs now instead of at the
    /// next natural readiness event.
    session_wakers: Vec<rawpoll::WakePipe>,
    sockopt_errors: Arc<Counter>,
    admin_write_timeouts: Arc<Counter>,
}

impl Protocol<TcpStream> for Admin {
    type Session = ();

    fn listener(&self) -> Option<u64> {
        Some(self.listener.poll_id())
    }

    fn admit(&mut self, now_ns: u64, _draining: bool) -> Option<Arrival<TcpStream, ()>> {
        let (conn, _) = self.listener.try_accept().ok().flatten()?;
        Some(Arrival {
            conn,
            session: (),
            lines: LineBuffer::new(),
            greeting: Vec::new(),
            accepted_ns: now_ns,
        })
    }

    fn line(&mut self, (): &mut (), line: &[u8], out: &mut Vec<u8>) -> Step {
        let line = String::from_utf8_lossy(line);
        let cmd = line.trim();
        if cmd.eq_ignore_ascii_case("METRICS") || cmd.eq_ignore_ascii_case("STAT") {
            let mut report = self.registry.render();
            if report.len() > ADMIN_RESPONSE_CAP {
                let mut cut = ADMIN_RESPONSE_CAP;
                while !report.is_char_boundary(cut) {
                    cut -= 1;
                }
                report.truncate(cut);
                report.push_str("\n[truncated]\n");
            }
            out.extend_from_slice(report.as_bytes());
        } else if cmd.eq_ignore_ascii_case("DRAIN") {
            self.draining.store(true, Ordering::SeqCst);
            for waker in &self.session_wakers {
                waker.wake();
            }
            out.extend_from_slice(b"OK draining\n");
        } else {
            out.extend_from_slice(b"ERR unknown admin command; try METRICS\n");
        }
        Step::Close
    }

    fn finish(&mut self, _gone: Gone<TcpStream, ()>, end: End) {
        match end {
            End::SlowWriter => self.admin_write_timeouts.inc(),
            End::Unwatchable => self.sockopt_errors.inc(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamaware_netaddr::Ipv4;

    #[test]
    fn unaccounted_survives_a_snapshot_torn_across_a_drain_eviction() {
        // `snapshot()` read `shed_draining` before an eviction and
        // `drain_evictions` after it.
        let snap = LiveSnapshot {
            accepted: 3,
            unfinished: 2,
            shed_draining: 1,
            drain_evictions: 2,
            ..LiveSnapshot::default()
        };
        assert_eq!(snap.unaccounted(), 2);
    }

    #[test]
    fn a_full_pool_hands_the_task_back_and_a_freed_slot_takes_the_next() {
        let registry = Arc::new(Registry::with_wall_clock());
        let (delegated, queue_depth) = (registry.counter("d"), registry.gauge("q"));
        let mut dispatch = Dispatch {
            workers: Vec::new(),
            next: 0,
            registry: Arc::clone(&registry),
            delegated: Arc::clone(&delegated),
            queue_depth: Arc::clone(&queue_depth),
        };
        // One-slot queues whose receivers are held and never drained.
        let mut queues = Vec::new();
        for _ in 0..3 {
            let (tx, rx) = sync_channel(1);
            dispatch
                .workers
                .push((tx, rawpoll::WakePipe::new().expect("wake pipe")));
            queues.push(rx);
        }
        let task = |tag: u32| Trusted {
            conn: tag,
            session: spamaware_smtp::ServerSession::new(Default::default()),
            leftover: Vec::new(),
            pending_out: Vec::new(),
            peer: Ipv4::new(192, 0, 2, 1),
            accepted_ns: 0,
        };
        let take = |w: usize| queues[w].try_recv().ok().map(|(_, t)| t.conn);

        for tag in 0..3 {
            assert!(dispatch.offer(task(tag)).is_none(), "task {tag} refused");
        }
        assert_eq!((delegated.get(), queue_depth.get()), (3, 3));
        // The whole pool is full: the task comes back, nothing is counted.
        let back = dispatch
            .offer(task(3))
            .expect("a full pool hands the task back");
        assert_eq!(back.conn, 3);
        assert_eq!((delegated.get(), queue_depth.get()), (3, 3));
        // Round robin put task w on worker w. Once worker 1 takes its task,
        // the next offer lands there, past the still-full worker 0.
        assert_eq!(take(1), Some(1));
        assert!(dispatch.offer(task(4)).is_none());
        assert_eq!((delegated.get(), queue_depth.get()), (4, 4));
        assert_eq!([take(0), take(1), take(2)], [Some(0), Some(4), Some(2)]);
    }
}
