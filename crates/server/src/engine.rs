//! The simulated mail server: both concurrency architectures driven by
//! trace workloads through closed- or open-system clients.
//!
//! One [`World`] instance models the whole testbed of paper §3: the server
//! CPU (a FIFO resource with context-switch accounting), the disk (a FIFO
//! resource fed by the storage layout's metered costs), the 30 ms-RTT
//! network, the DNSBL resolver path, and the client population. The two
//! architectures differ only in who executes each connection's server-side
//! work:
//!
//! * **Vanilla** (Fig. 6): every accepted connection gets a dedicated
//!   (recycled) smtpd process; every command runs under that process id,
//!   so consecutive CPU jobs almost always context-switch.
//! * **Hybrid fork-after-trust** (Fig. 7): the master's event loop carries
//!   every connection through `HELO`/`MAIL`/`RCPT` under one process id;
//!   only connections that produce a valid recipient are delegated
//!   (batched, round-robin, bounded worker queues) to smtpd workers.

use crate::script::{build_script, Step};
use crate::{CostModel, SimStore};
use rand::rngs::StdRng;
use rand::Rng;
use spamaware_dnsbl::{CacheScheme, CachingResolver, DnsblServer, ResolverStats};
use spamaware_mfs::{DiskProfile, Layout, OpCounts};
use spamaware_sim::{
    det_rng, run_until, FifoResource, LogHistogram, Nanos, ProcId, Readout, Scheduler, ServiceJob,
    World as SimWorld,
};
use spamaware_smtp::{Command, ServerSession, SessionConfig, TrustPoint};
use spamaware_trace::Trace;
use std::collections::{HashSet, VecDeque};

/// Which concurrency architecture the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Process-per-connection (paper Fig. 6).
    Vanilla,
    /// Fork-after-trust (paper Fig. 7).
    Hybrid,
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Architecture::Vanilla => "Vanilla",
            Architecture::Hybrid => "Hybrid",
        })
    }
}

/// DNSBL integration for a run.
#[derive(Debug)]
pub struct DnsConfig {
    /// Caching granularity.
    pub scheme: CacheScheme,
    /// Cache TTL (paper: 24 h).
    pub ttl: Nanos,
    /// The authoritative DNSBL server.
    pub server: DnsblServer,
}

/// Full server configuration for one simulated run.
#[derive(Debug)]
pub struct ServerConfig {
    /// Concurrency architecture.
    pub arch: Architecture,
    /// Vanilla: smtpd process limit (paper tunes 500 for peak throughput).
    /// Hybrid: number of smtpd worker processes.
    pub process_limit: usize,
    /// Hybrid: delegated tasks a worker's UNIX-domain socket holds (paper
    /// estimates ≈28 for a 64 KiB buffer at 7 recipients/mail).
    pub worker_queue_limit: usize,
    /// CPU/network cost model.
    pub cost: CostModel,
    /// Mailbox storage layout.
    pub layout: Layout,
    /// Disk cost profile.
    pub disk: DiskProfile,
    /// DNSBL lookups (None = disabled).
    pub dns: Option<DnsConfig>,
    /// Hybrid only: when connections are delegated to workers (the
    /// trust-point ablation; the live server has only the default).
    pub trust_point: TrustPoint,
    /// Connections an smtpd process serves before terminating itself and
    /// being re-forked (postfix `max_use`, default 100; paper §2: a
    /// process "has served a pre-configured number of requests,
    /// it terminates itself").
    pub smtpd_max_requests: u64,
}

impl ServerConfig {
    /// The paper's tuned vanilla server: 500 smtpd processes, mbox
    /// mailboxes on Ext3, no DNSBL.
    pub fn vanilla() -> ServerConfig {
        ServerConfig {
            arch: Architecture::Vanilla,
            process_limit: 500,
            worker_queue_limit: 28,
            cost: CostModel::default(),
            layout: Layout::Mbox,
            disk: DiskProfile::ext3(),
            dns: None,
            trust_point: TrustPoint::default(),
            smtpd_max_requests: 100,
        }
    }

    /// The paper's hybrid server: 700 master sockets, recycled workers.
    pub fn hybrid() -> ServerConfig {
        ServerConfig {
            arch: Architecture::Hybrid,
            process_limit: 64,
            ..ServerConfig::vanilla()
        }
    }

    /// A qmail-like process-per-connection server: qmail-smtpd is spawned
    /// fresh by tcpserver for every connection (no process recycling) and
    /// runs a leaner per-command path. Used by the `generality_qmail`
    /// bench to back the paper's §10 claim that the optimizations "are
    /// general and applicable to other popular mail servers such as
    /// qmail".
    pub fn qmail_like() -> ServerConfig {
        let cost = CostModel {
            // Fresh exec per connection: heavier setup, no recycling —
            // but a simpler smtpd with a leaner command path.
            fork: Nanos::from_micros(900),
            command_cpu: Nanos::from_micros(280),
            ..CostModel::default()
        };
        ServerConfig {
            smtpd_max_requests: 1,
            cost,
            ..ServerConfig::vanilla()
        }
    }
}

/// The client population driving the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientModel {
    /// Client program 1 (paper §3): a fixed number of concurrent
    /// connections; each client reconnects as soon as its connection ends
    /// (closed-system model).
    Closed {
        /// Concurrent client connections maintained.
        concurrency: usize,
    },
    /// Client program 2: new connections at a fixed average rate,
    /// regardless of completions (open-system model).
    Open {
        /// Mean connection arrival rate (Poisson).
        rate_per_sec: f64,
    },
}

/// Snapshot of DNSBL resolver statistics for a report.
#[derive(Debug, Clone)]
pub struct DnsReport {
    /// Lookups performed.
    pub lookups: u64,
    /// Cache hits.
    pub hits: u64,
    /// Queries issued to the DNSBL.
    pub queries_issued: u64,
    /// Lookup-latency distribution (ns).
    pub latency_ns: Readout,
}

impl DnsReport {
    fn from_stats(s: ResolverStats) -> DnsReport {
        DnsReport {
            lookups: s.lookups,
            hits: s.hits,
            queries_issued: s.queries_issued,
            latency_ns: s.latency_ns,
        }
    }

    /// Cache hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Fraction of lookups that issued a DNS query.
    pub fn query_fraction(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.queries_issued as f64 / self.lookups as f64
        }
    }
}

/// Results of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Architecture that ran.
    pub arch: Architecture,
    /// Storage layout that ran.
    pub layout: Layout,
    /// Wall-clock (virtual) duration.
    pub duration: Nanos,
    /// Connections fully completed.
    pub connections: u64,
    /// Completed connections that delivered mail.
    pub delivered_connections: u64,
    /// Completed bounce connections.
    pub bounces: u64,
    /// Completed unfinished connections.
    pub unfinished: u64,
    /// Mails accepted (transactions).
    pub mails: u64,
    /// Mailbox deliveries (mails × recipients).
    pub deliveries: u64,
    /// Deliveries the store rejected with an error (0 for the in-memory
    /// backends; counted instead of panicking).
    pub store_failures: u64,
    /// CPU context switches.
    pub context_switches: u64,
    /// Processes forked (the pool growing).
    pub forks: u64,
    /// CPU busy time.
    pub cpu_busy: Nanos,
    /// CPU consumed by connections that delivered mail.
    pub cpu_delivering: Nanos,
    /// CPU consumed by bounce connections — the waste the fork-after-trust
    /// architecture eliminates (paper §4.1 "can waste significant server
    /// resources in case of bounces").
    pub cpu_bounce: Nanos,
    /// CPU consumed by unfinished connections.
    pub cpu_unfinished: Nanos,
    /// Disk busy time.
    pub disk_busy: Nanos,
    /// Backend operation counts.
    pub disk_ops: OpCounts,
    /// DNSBL statistics, when enabled.
    pub dns: Option<DnsReport>,
    /// Session duration distribution (ns), completed connections.
    pub session_ns: Readout,
}

impl RunReport {
    /// Good mails accepted per second (the paper's goodput, Fig. 8).
    pub fn goodput(&self) -> f64 {
        self.mails as f64 / self.duration.as_secs_f64()
    }

    /// Mailbox deliveries per second (the paper's "mails written/sec",
    /// Figs. 10/11).
    pub fn delivery_throughput(&self) -> f64 {
        self.deliveries as f64 / self.duration.as_secs_f64()
    }

    /// Completed connections per second (Fig. 14's throughput).
    pub fn connection_throughput(&self) -> f64 {
        self.connections as f64 / self.duration.as_secs_f64()
    }
}

/// Runs `trace` against a server `cfg` with the given client model for
/// `duration` of virtual time (the paper uses 5-minute runs).
///
/// The trace is treated as a pool of connection specs consumed cyclically,
/// so any horizon can be simulated from any trace length.
///
/// # Panics
///
/// Panics if the trace is empty or the configuration is degenerate
/// (a zero process limit).
pub fn run(trace: &Trace, cfg: ServerConfig, client: ClientModel, duration: Nanos) -> RunReport {
    assert!(!trace.connections.is_empty(), "trace has no connections");
    assert!(cfg.process_limit > 0, "need at least one process");
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let mut world = World::new(trace, cfg, client, duration);
    world.bootstrap(&mut sched);
    run_until(&mut sched, &mut world, duration);
    world.into_report(duration)
}

const MASTER: ProcId = ProcId(0);

/// Hybrid: the master's socket-list capacity (paper: 700).
const SOCKET_LIMIT: usize = 700;

type ConnId = usize;

#[derive(Debug)]
enum Ev {
    /// A client initiates a connection (spec drawn cyclically).
    Arrive,
    /// Accept/setup CPU finished for the connection.
    AcceptDone(ConnId),
    /// The DNSBL answer arrived.
    DnsAnswer(ConnId),
    /// CPU spent processing the DNS answer finished.
    DnsCpuDone(ConnId),
    /// A command (or body) arrived at the server.
    AtServer(ConnId, Step),
    /// Command-processing CPU finished for this command.
    CmdCpuDone(ConnId, Command),
    /// Body-processing CPU finished for a body of this many bytes.
    BodyCpuDone(ConnId, u64),
    /// Disk write finished for the mail to this many recipients: it is
    /// stored.
    DiskDone(ConnId, u64),
    /// Master finished the delegation vector-send.
    DelegCpuDone(ConnId),
    /// The server's reply reached the client.
    ReplyAtClient(ConnId),
    /// The connection is fully closed.
    Closed(ConnId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Backlogged,
    Setup,
    Dialog,
    Done,
}

struct Conn {
    session: ServerSession,
    script: VecDeque<Step>,
    pid: ProcId,
    phase: Phase,
    delegated: bool,
    worker_active: bool,
    worker: Option<usize>,
    buffered: Option<Step>,
    started: Nanos,
    dns_was_miss: bool,
    needs_worker_setup: bool,
    cpu_used: Nanos,
}

struct WorkerState {
    pid: ProcId,
    current: Option<ConnId>,
    queue: VecDeque<ConnId>,
}

struct World<'a> {
    trace: &'a Trace,
    arch: Architecture,
    cost: CostModel,
    /// The hosted mailbox names `RCPT TO` is checked against.
    hosted: HashSet<String>,
    cpu: FifoResource<Ev>,
    disk_load: Nanos,
    store: SimStore,
    resolver: Option<CachingResolver>,
    dns_server: Option<DnsblServer>,
    rng: StdRng,
    conns: Vec<Conn>,
    next_spec: usize,
    backlog: VecDeque<ConnId>,
    // Vanilla state.
    process_limit: usize,
    procs_in_use: usize,
    free_procs: Vec<ProcId>,
    next_proc: u32,
    forks: u64,
    // Hybrid state.
    smtpd_max_requests: u64,
    proc_served: std::collections::HashMap<ProcId, u64>,
    master_sockets: usize,
    workers: Vec<WorkerState>,
    worker_queue_limit: usize,
    pending_delegation: VecDeque<ConnId>,
    rr_worker: usize,
    // Client.
    client: ClientModel,
    trust_point: TrustPoint,
    horizon: Nanos,
    // Metrics.
    connections: u64,
    delivered_connections: u64,
    bounces: u64,
    unfinished: u64,
    mails: u64,
    deliveries: u64,
    store_failures: u64,
    cpu_delivering: Nanos,
    cpu_bounce: Nanos,
    cpu_unfinished: Nanos,
    session_ns: LogHistogram,
    layout: Layout,
    /// Trace-spec index of each connection (for client IP lookups).
    spec_of: Vec<usize>,
}

impl<'a> World<'a> {
    fn new(trace: &'a Trace, cfg: ServerConfig, client: ClientModel, horizon: Nanos) -> World<'a> {
        let workers = match cfg.arch {
            Architecture::Vanilla => Vec::new(),
            Architecture::Hybrid => (0..cfg.process_limit)
                .map(|i| WorkerState {
                    pid: ProcId(1 + i as u32),
                    current: None,
                    queue: VecDeque::new(),
                })
                .collect(),
        };
        let (resolver, dns_server) = match cfg.dns {
            Some(d) => (Some(CachingResolver::new(d.scheme, d.ttl)), Some(d.server)),
            None => (None, None),
        };
        World {
            trace,
            arch: cfg.arch,
            cost: cfg.cost,
            hosted: HashSet::new(),
            cpu: FifoResource::new(cfg.cost.context_switch),
            disk_load: Nanos::ZERO,
            store: SimStore::new(cfg.layout, cfg.disk),
            resolver,
            dns_server,
            rng: det_rng(0xD15C0),
            conns: Vec::new(),
            next_spec: 0,
            backlog: VecDeque::new(),
            process_limit: cfg.process_limit,
            procs_in_use: 0,
            free_procs: Vec::new(),
            next_proc: 1_000,
            forks: 0,
            smtpd_max_requests: cfg.smtpd_max_requests,
            proc_served: std::collections::HashMap::new(),
            master_sockets: 0,
            workers,
            worker_queue_limit: cfg.worker_queue_limit,
            pending_delegation: VecDeque::new(),
            rr_worker: 0,
            client,
            trust_point: cfg.trust_point,
            horizon,
            connections: 0,
            delivered_connections: 0,
            bounces: 0,
            unfinished: 0,
            mails: 0,
            deliveries: 0,
            store_failures: 0,
            cpu_delivering: Nanos::ZERO,
            cpu_bounce: Nanos::ZERO,
            cpu_unfinished: Nanos::ZERO,
            session_ns: LogHistogram::new(),
            layout: cfg.layout,
            spec_of: Vec::new(),
        }
    }

    fn bootstrap(&mut self, sched: &mut Scheduler<Ev>) {
        // Steady state: every hosted mailbox already exists on disk.
        let names: Vec<String> = (0..self.trace.mailbox_count)
            .map(|i| format!("user{i}"))
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        if let Err(e) = self.store.prewarm(&refs) {
            debug_assert!(false, "prewarm on in-memory store cannot fail: {e}");
        }
        self.hosted = names.into_iter().collect();
        match self.client {
            ClientModel::Closed { concurrency } => {
                for i in 0..concurrency {
                    sched.schedule_at(Nanos::from_micros(i as u64 * 200), Ev::Arrive);
                }
            }
            ClientModel::Open { rate_per_sec } => {
                assert!(rate_per_sec > 0.0, "open model needs a positive rate");
                sched.schedule_at(Nanos::ZERO, Ev::Arrive);
            }
        }
    }

    fn into_report(self, duration: Nanos) -> RunReport {
        // CPU conservation: every nanosecond attributed to a connection
        // category was first submitted to the shared CPU, whose busy time
        // additionally carries context-switch penalties — so the
        // categorised total can never exceed measured busy time.
        debug_assert!(
            self.cpu_delivering + self.cpu_bounce + self.cpu_unfinished <= self.cpu.stats().busy,
            "categorised CPU time exceeds measured CPU busy time"
        );
        RunReport {
            arch: self.arch,
            layout: self.layout,
            duration,
            connections: self.connections,
            delivered_connections: self.delivered_connections,
            bounces: self.bounces,
            unfinished: self.unfinished,
            mails: self.mails,
            deliveries: self.deliveries,
            store_failures: self.store_failures,
            context_switches: self.cpu.stats().context_switches,
            forks: self.forks,
            cpu_busy: self.cpu.stats().busy,
            cpu_delivering: self.cpu_delivering,
            cpu_bounce: self.cpu_bounce,
            cpu_unfinished: self.cpu_unfinished,
            disk_busy: self.disk_load,
            disk_ops: self.store.op_counts(),
            dns: self
                .resolver
                .as_ref()
                .map(|r| DnsReport::from_stats(r.stats())),
            session_ns: Readout::from(&self.session_ns),
        }
    }

    /// Spawns a new connection from the next trace spec.
    fn new_conn(&mut self, sched: &mut Scheduler<Ev>) {
        let spec = &self.trace.connections[self.next_spec % self.trace.connections.len()];
        self.next_spec += 1;
        let id = self.conns.len();
        self.conns.push(Conn {
            session: ServerSession::new(SessionConfig::default()),
            script: build_script(spec),
            pid: MASTER,
            phase: Phase::Backlogged,
            delegated: false,
            worker_active: false,
            worker: None,
            buffered: None,
            started: sched.now(),
            dns_was_miss: false,
            needs_worker_setup: false,
            cpu_used: Nanos::ZERO,
        });
        // Remember which spec this conn uses for DNS lookups.
        self.spec_of
            .push((self.next_spec - 1) % self.trace.connections.len());
        self.try_accept(sched, id);
    }

    fn try_accept(&mut self, sched: &mut Scheduler<Ev>, id: ConnId) {
        match self.arch {
            Architecture::Vanilla => {
                if self.procs_in_use < self.process_limit {
                    self.procs_in_use += 1;
                    let (pid, fork_cost) = match self.free_procs.pop() {
                        Some(p) => (p, Nanos::ZERO),
                        None => {
                            self.forks += 1;
                            let p = ProcId(self.next_proc);
                            self.next_proc += 1;
                            (p, self.cost.fork)
                        }
                    };
                    self.conns[id].pid = pid;
                    self.conns[id].phase = Phase::Setup;
                    let service = self.cost.accept_cpu + fork_cost + self.cost.session_setup_cpu;
                    self.conns[id].cpu_used += service;
                    self.cpu
                        .submit(sched, ServiceJob::new(pid, service, Ev::AcceptDone(id)));
                } else {
                    self.backlog.push_back(id);
                }
            }
            Architecture::Hybrid => {
                if self.master_sockets < SOCKET_LIMIT {
                    self.master_sockets += 1;
                    self.conns[id].pid = MASTER;
                    self.conns[id].phase = Phase::Setup;
                    let service = self.cost.accept_cpu + self.cost.event_loop_cpu;
                    self.conns[id].cpu_used += service;
                    self.cpu
                        .submit(sched, ServiceJob::new(MASTER, service, Ev::AcceptDone(id)));
                } else {
                    self.backlog.push_back(id);
                }
            }
        }
    }

    /// The process currently executing server-side work for a connection.
    fn exec_pid(&self, id: ConnId) -> ProcId {
        match self.arch {
            Architecture::Vanilla => self.conns[id].pid,
            Architecture::Hybrid => match self.conns[id].worker {
                Some(w) if self.conns[id].worker_active => self.workers[w].pid,
                _ => MASTER,
            },
        }
    }

    /// Per-command CPU for the process executing this connection.
    fn cmd_cost(&self, id: ConnId) -> Nanos {
        match self.arch {
            Architecture::Vanilla => self.cost.command_cpu,
            Architecture::Hybrid => {
                if self.conns[id].worker_active {
                    self.cost.command_cpu
                } else {
                    self.cost.event_loop_cpu
                }
            }
        }
    }

    fn client_ip(&self, id: ConnId) -> spamaware_netaddr::Ipv4 {
        self.trace.connections[self.spec_of[id]].client_ip
    }

    fn send_reply(&mut self, sched: &mut Scheduler<Ev>, id: ConnId) {
        sched.schedule_in(self.cost.half_rtt(), Ev::ReplyAtClient(id));
    }

    /// Client received a reply (or the greeting): emit the next step.
    fn client_next(&mut self, sched: &mut Scheduler<Ev>, id: ConnId) {
        let Some(step) = self.conns[id].script.pop_front() else {
            // Script exhausted without QUIT (defensive): drop connection.
            sched.schedule_in(self.cost.half_rtt(), Ev::Closed(id));
            return;
        };
        let delay = match &step {
            Step::Cmd(_) => self.cost.half_rtt(),
            Step::Body(n) => self.cost.half_rtt() + self.cost.transfer_time(*n),
        };
        sched.schedule_in(delay, Ev::AtServer(id, step));
    }

    fn process_step(&mut self, sched: &mut Scheduler<Ev>, id: ConnId, step: Step) {
        // A delegated-but-not-yet-active connection's traffic waits in the
        // socket buffer until its worker picks the task up.
        if self.conns[id].delegated && !self.conns[id].worker_active {
            debug_assert!(self.conns[id].buffered.is_none(), "one in-flight step");
            self.conns[id].buffered = Some(step);
            return;
        }
        let pid = self.exec_pid(id);
        let setup = if self.conns[id].needs_worker_setup {
            self.conns[id].needs_worker_setup = false;
            self.cost.session_setup_cpu
        } else {
            Nanos::ZERO
        };
        let (service, done) = match step {
            Step::Cmd(cmd @ Command::RcptTo(_))
                if !matches!(self.arch, Architecture::Hybrid) || self.conns[id].worker_active =>
            {
                (self.cost.rcpt_cpu, Ev::CmdCpuDone(id, cmd))
            }
            Step::Cmd(cmd) => (self.cmd_cost(id), Ev::CmdCpuDone(id, cmd)),
            Step::Body(n) => (
                self.cost.body_cpu(n) + self.cost.delivery_cpu,
                Ev::BodyCpuDone(id, n),
            ),
        };
        self.conns[id].cpu_used += setup + service;
        self.cpu
            .submit(sched, ServiceJob::new(pid, setup + service, done));
    }

    fn handle_command(&mut self, sched: &mut Scheduler<Ev>, id: ConnId, cmd: Command) {
        let is_quit = matches!(cmd, Command::Quit);
        self.conns[id].session.handle_hosted(cmd, &self.hosted);
        self.delegate_if_trusted(sched, id);
        if is_quit {
            // 221 travels to the client; the connection closes when it
            // lands.
            sched.schedule_in(self.cost.half_rtt(), Ev::Closed(id));
        } else {
            self.send_reply(sched, id);
        }
    }

    fn handle_body_done(&mut self, sched: &mut Scheduler<Ev>, id: ConnId, n: u64) {
        let Ok(env) = self.conns[id].session.end_data_sized(n) else {
            // Oversized message refused (552): nothing reaches the store.
            self.send_reply(sched, id);
            return;
        };
        let names: Vec<&str> = env.recipients.iter().map(|a| a.local_part()).collect();
        let Ok(cost) = self.store.deliver(&names, n) else {
            // A refused store is a 451 and no mail (the in-memory
            // backends cannot actually fail); the session goes on.
            self.store_failures += 1;
            self.send_reply(sched, id);
            return;
        };
        // Journaled small writes are CPU-bound through the buffer cache:
        // the delivering process burns CPU for the storage cost, and the
        // disk resource tracks the same work for utilization reporting.
        self.disk_load += cost;
        let pid = self.exec_pid(id);
        self.conns[id].cpu_used += cost;
        let stored = Ev::DiskDone(id, names.len() as u64);
        self.cpu.submit(sched, ServiceJob::new(pid, cost, stored));
    }

    fn start_dns(&mut self, sched: &mut Scheduler<Ev>, id: ConnId) {
        let ip = self.client_ip(id);
        let now = sched.now();
        let (Some(resolver), Some(server)) = (self.resolver.as_mut(), self.dns_server.as_ref())
        else {
            // DNS not configured: fall through to the greeting.
            self.greet(sched, id);
            return;
        };
        let outcome = resolver.lookup(ip, now, server, &mut self.rng);
        self.conns[id].dns_was_miss = !outcome.cache_hit;
        sched.schedule_in(outcome.latency, Ev::DnsAnswer(id));
    }

    fn greet(&mut self, sched: &mut Scheduler<Ev>, id: ConnId) {
        self.conns[id].phase = Phase::Dialog;
        self.delegate_if_trusted(sched, id);
        // The 220 greeting travels to the client, which answers with the
        // first scripted command.
        sched.schedule_in(self.cost.half_rtt(), Ev::ReplyAtClient(id));
    }

    /// Fork-after-trust: the hybrid master hands a connection to a worker
    /// the first time its dialog has earned trust at the configured point
    /// (the paper's design: the first valid recipient).
    fn delegate_if_trusted(&mut self, sched: &mut Scheduler<Ev>, id: ConnId) {
        let conn = &mut self.conns[id];
        if self.arch == Architecture::Hybrid
            && !conn.delegated
            && conn.session.trusted(self.trust_point)
        {
            conn.delegated = true;
            conn.cpu_used += self.cost.delegation_cpu;
            self.cpu.submit(
                sched,
                ServiceJob::new(MASTER, self.cost.delegation_cpu, Ev::DelegCpuDone(id)),
            );
        }
    }

    fn delegate(&mut self, sched: &mut Scheduler<Ev>, id: ConnId) {
        // Find a worker with queue space, round-robin from the last used.
        let n = self.workers.len();
        for probe in 0..n {
            let w = (self.rr_worker + probe) % n;
            let worker = &mut self.workers[w];
            if worker.current.is_none() {
                worker.current = Some(id);
                self.rr_worker = (w + 1) % n;
                self.master_sockets -= 1;
                self.conns[id].worker = Some(w);
                self.activate_on_worker(sched, id);
                self.admit_from_backlog(sched);
                self.debug_check_worker_invariants();
                return;
            }
            if worker.queue.len() < self.worker_queue_limit {
                worker.queue.push_back(id);
                self.rr_worker = (w + 1) % n;
                self.master_sockets -= 1;
                self.conns[id].worker = Some(w);
                self.admit_from_backlog(sched);
                self.debug_check_worker_invariants();
                return;
            }
        }
        // Every worker socket is full: the master keeps the connection —
        // the finite socket buffers act as a natural throttle (§5.3).
        self.pending_delegation.push_back(id);
        self.debug_check_worker_invariants();
    }

    /// Debug-build invariant check on hybrid dispatch: every worker queue
    /// respects the configured socket-buffer bound, and each delegated
    /// connection is held in exactly one place (a worker's active slot,
    /// one worker queue, or the master's pending list) — a connection
    /// counted twice would be served twice and corrupt the CPU accounting.
    /// Compiles to a no-op in release builds.
    fn debug_check_worker_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut seen = std::collections::HashSet::new();
        for w in &self.workers {
            debug_assert!(
                w.queue.len() <= self.worker_queue_limit,
                "worker {:?} queue length {} exceeds limit {}",
                w.pid,
                w.queue.len(),
                self.worker_queue_limit
            );
            for id in w.current.iter().chain(w.queue.iter()) {
                debug_assert!(seen.insert(*id), "connection {id} held twice by workers");
            }
        }
        for id in &self.pending_delegation {
            debug_assert!(
                seen.insert(*id),
                "connection {id} both pending and on a worker"
            );
        }
    }

    fn activate_on_worker(&mut self, sched: &mut Scheduler<Ev>, id: ConnId) {
        self.conns[id].worker_active = true;
        // The worker brings up full smtpd session state for the delegated
        // connection; the cost lands on its first job for this connection.
        self.conns[id].needs_worker_setup = true;
        if let Some(step) = self.conns[id].buffered.take() {
            self.process_step(sched, id, step);
        }
    }

    fn worker_finished(&mut self, sched: &mut Scheduler<Ev>, w: usize) {
        // Prefer connections stranded in the master (throttled) over the
        // worker's own queue? No: queue order is FIFO through the socket.
        let next = self.workers[w].queue.pop_front();
        self.workers[w].current = next;
        if let Some(nid) = next {
            self.activate_on_worker(sched, nid);
        }
        // Queue space opened: drain one master-throttled connection.
        if let Some(pid) = self.pending_delegation.pop_front() {
            self.delegate(sched, pid);
        }
        self.debug_check_worker_invariants();
    }

    fn admit_from_backlog(&mut self, sched: &mut Scheduler<Ev>) {
        if let Some(next) = self.backlog.pop_front() {
            self.try_accept(sched, next);
        }
    }

    fn close_conn(&mut self, sched: &mut Scheduler<Ev>, id: ConnId) {
        if self.conns[id].phase == Phase::Done {
            return;
        }
        self.conns[id].phase = Phase::Done;
        self.connections += 1;
        // Every DES connection ends by QUIT or by its script running out:
        // the client ended the dialogue.
        let (count, cpu) = self.conns[id].session.outcome(true).pick(
            (&mut self.delivered_connections, &mut self.cpu_delivering),
            (&mut self.bounces, &mut self.cpu_bounce),
            (&mut self.unfinished, &mut self.cpu_unfinished),
        );
        *count += 1;
        *cpu += self.conns[id].cpu_used;
        let elapsed = sched.now() - self.conns[id].started;
        self.session_ns.record(elapsed.as_nanos());
        // Release execution resources.
        match self.arch {
            Architecture::Vanilla => {
                let pid = self.conns[id].pid;
                let served = self.proc_served.entry(pid).or_insert(0);
                *served += 1;
                if *served >= self.smtpd_max_requests {
                    // The smtpd retires after max_use requests; the next
                    // accept forks a fresh process (paper §2).
                    self.proc_served.remove(&pid);
                } else {
                    self.free_procs.push(pid);
                }
                self.procs_in_use -= 1;
                self.admit_from_backlog(sched);
            }
            Architecture::Hybrid => {
                if let Some(w) = self.conns[id].worker {
                    if self.conns[id].worker_active {
                        self.worker_finished(sched, w);
                    }
                } else {
                    // Never delegated: lived and died in the master.
                    self.master_sockets -= 1;
                    self.admit_from_backlog(sched);
                }
            }
        }
        // Closed-system client: reconnect immediately.
        if let ClientModel::Closed { .. } = self.client {
            sched.schedule_in(Nanos::from_micros(1), Ev::Arrive);
        }
        // Free per-connection memory for long runs.
        self.conns[id].script.clear();
        self.conns[id].buffered = None;
    }
}

impl SimWorld for World<'_> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        match ev {
            Ev::Arrive => {
                if let ClientModel::Open { rate_per_sec } = self.client {
                    // Draw the next Poisson arrival before serving this one.
                    let gap = -(1.0 - self.rng.gen::<f64>()).ln() / rate_per_sec;
                    let at = sched.now() + Nanos::from_secs_f64(gap);
                    if at <= self.horizon {
                        sched.schedule_at(at, Ev::Arrive);
                    }
                }
                self.new_conn(sched);
            }
            Ev::AcceptDone(id) => {
                self.cpu.on_complete(sched);
                if self.resolver.is_some() {
                    self.start_dns(sched, id);
                } else {
                    self.greet(sched, id);
                }
            }
            Ev::DnsAnswer(id) => {
                if self.conns[id].dns_was_miss {
                    // Processing the answer costs CPU on the executing
                    // process; cache hits skip the resolver round-trip.
                    let pid = self.exec_pid(id);
                    self.conns[id].cpu_used += self.cost.dns_query_cpu;
                    self.cpu.submit(
                        sched,
                        ServiceJob::new(pid, self.cost.dns_query_cpu, Ev::DnsCpuDone(id)),
                    );
                } else {
                    self.greet(sched, id);
                }
            }
            Ev::DnsCpuDone(id) => {
                self.cpu.on_complete(sched);
                self.greet(sched, id);
            }
            Ev::AtServer(id, step) => self.process_step(sched, id, step),
            Ev::CmdCpuDone(id, cmd) => {
                self.cpu.on_complete(sched);
                self.handle_command(sched, id, cmd);
            }
            Ev::BodyCpuDone(id, n) => {
                self.cpu.on_complete(sched);
                self.handle_body_done(sched, id, n);
            }
            Ev::DiskDone(id, rcpts) => {
                self.cpu.on_complete(sched);
                // A mail is accepted, and counts as delivered, only once its
                // storage work has drained; counting at submit time credits
                // layouts for a backlog they never finish within the
                // horizon.
                self.conns[id].session.accept();
                self.mails += 1;
                self.deliveries += rcpts;
                self.send_reply(sched, id);
            }
            Ev::DelegCpuDone(id) => {
                self.cpu.on_complete(sched);
                self.delegate(sched, id);
            }
            Ev::ReplyAtClient(id) => self.client_next(sched, id),
            Ev::Closed(id) => self.close_conn(sched, id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamaware_trace::bounce_sweep_trace;

    #[test]
    fn presets_have_expected_shapes() {
        let v = ServerConfig::vanilla();
        assert_eq!(v.arch, Architecture::Vanilla);
        assert_eq!(v.process_limit, 500);
        let h = ServerConfig::hybrid();
        assert_eq!(h.arch, Architecture::Hybrid);
        assert_eq!(h.worker_queue_limit, 28);
        assert_eq!(h.trust_point, TrustPoint::AfterValidRcpt);
        let q = ServerConfig::qmail_like();
        assert_eq!(q.smtpd_max_requests, 1, "qmail never recycles");
    }

    #[test]
    fn run_report_rate_helpers() {
        let trace = bounce_sweep_trace(1, 500, 0.0, 50);
        let rep = run(
            &trace,
            ServerConfig::vanilla(),
            ClientModel::Closed { concurrency: 10 },
            Nanos::from_secs(5),
        );
        assert!((rep.goodput() - rep.mails as f64 / 5.0).abs() < 1e-9);
        assert!(rep.delivery_throughput() >= rep.goodput());
    }

    #[test]
    #[should_panic(expected = "trace has no connections")]
    fn empty_trace_rejected() {
        let trace = spamaware_trace::Trace {
            connections: vec![],
            mailbox_count: 1,
            span: Nanos::ZERO,
        };
        run(
            &trace,
            ServerConfig::vanilla(),
            ClientModel::Closed { concurrency: 1 },
            Nanos::from_secs(1),
        );
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn open_model_rejects_zero_rate() {
        let trace = bounce_sweep_trace(1, 10, 0.0, 50);
        run(
            &trace,
            ServerConfig::vanilla(),
            ClientModel::Open { rate_per_sec: 0.0 },
            Nanos::from_secs(1),
        );
    }

    #[test]
    fn dns_report_ratios() {
        let r = DnsReport {
            lookups: 100,
            hits: 80,
            queries_issued: 20,
            latency_ns: Readout::default(),
        };
        assert!((r.hit_ratio() - 0.8).abs() < 1e-12);
        assert!((r.query_fraction() - 0.2).abs() < 1e-12);
    }
}
