//! One benchmark run: a few segments, each of which sets up a fresh
//! server on an empty spool, warms it up, measures a window, drains and
//! verifies.
//!
//! The load is a closed loop: `C = clamp(nproc, 2, 4)` generator threads,
//! one connection each, each waiting for every reply before its next
//! command and opening a fresh connection per session. The server is
//! pinned to the first half of the host's CPUs and the generator to the
//! rest, so the two never trade places on a core. End-to-end numbers come
//! from untraced windows, with estimators a stalled vCPU does not move,
//! and are brought to a nominal host (see [`crate::reference`]). A traced run
//! measures a shorter untraced window and then a traced one on the same
//! server, so the cost of tracing is the difference between two windows
//! of one process.
//!
//! A run is cut into segments because the store never shrinks: every
//! multi-recipient body of a server's life goes into one `shmailbox`
//! file, and at 60–70 MB/s a single 24 s window left a 1.8 GB file and
//! spool behind. A server that a file-size or disk limit kills cannot be
//! measured, so no server lives longer than about five seconds of load
//! and its spool is removed before the next one boots.

use crate::client::{self, Buffers, Span, SpanKind, Tracer};
use crate::harness::{self, CpuSplit, Drained, Metrics, ScratchDir, ServerProc};
use crate::reference::{self, Host, NOMINAL};
use crate::script::{self, Bodies, Script, Sizing, Workload};
use crate::stats::{interpolate, into_slices, median, percentile, quantile};
use crate::verify::{self, Evidence};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Fresh servers an end-to-end run is spread over.
pub const SEGMENTS: usize = 5;

/// Fresh servers a traced run is spread over.
pub const TRACED_SEGMENTS: usize = 2;

/// Slices each window of a segment is cut into.
pub const SLICES_PER_WINDOW: usize = 2;

/// Slices of an end-to-end run.
pub const SLICES: usize = SEGMENTS * SLICES_PER_WINDOW;

/// The server's memory is read at least this often while load runs.
const RSS_STEP: Duration = Duration::from_millis(250);

/// A generator thread gives up after this many failed sessions: the
/// server is gone and the run has failed anyway.
const MAX_FAILURES: u64 = 200;

/// One named number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_owned(),
            value,
        }
    }
}

/// Everything that shapes a run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every script and body.
    pub seed: u64,
    /// Script and spool sizes.
    pub sizing: Sizing,
    /// Fresh servers the run is spread over, one after the other.
    pub segments: usize,
    /// Set-ups timed before each segment: the segment's own and, before
    /// it, the others, whose servers are drained at once.
    pub setups: usize,
    /// Load on each server before its first window, not measured.
    pub warmup: Duration,
    /// The untraced window of each segment.
    pub window: Duration,
    /// A traced window after it; `None` on an end-to-end run.
    pub traced_window: Option<Duration>,
    /// How long the null server is measured before each segment and after
    /// the last.
    pub reference: Duration,
    /// The `bench_server` binary.
    pub server_exe: PathBuf,
    /// Where spools and trace files go.
    pub out_dir: PathBuf,
}

impl Plan {
    /// The plan of `--seconds <seconds> --trace <traced>`. An end-to-end
    /// run measures for all of `seconds`, a fifth of it on each of five
    /// servers after 1 s of warm-up. A traced run splits `seconds` three
    /// ways: untraced windows, traced windows (both halved over two
    /// servers), and the layer probes its caller runs.
    pub fn contract(
        workload: Workload,
        seed: u64,
        seconds: u64,
        traced: bool,
        server_exe: PathBuf,
        out_dir: PathBuf,
    ) -> Plan {
        let total = Duration::from_secs(seconds);
        let segments = if traced { TRACED_SEGMENTS } else { SEGMENTS };
        let per_segment = |share: f64| total.mul_f64(share) / segments as u32;
        Plan {
            workload,
            seed,
            sizing: Sizing::full(),
            segments,
            setups: if traced { 1 } else { 3 },
            warmup: Duration::from_millis(if traced { 500 } else { 1000 }),
            window: per_segment(if traced { 0.15 } else { 1.0 }),
            traced_window: traced.then(|| per_segment(0.3)),
            reference: Duration::from_millis(500),
            server_exe,
            out_dir,
        }
    }
}

/// What a run found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Sessions attempted, of either protocol, over the whole run.
    pub attempted: u64,
    /// Sessions that failed plus verification checks that failed.
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer `client.*`,
    /// `live.*`, `pop3.*` and `trace.*` metrics of a traced one.
    pub metrics: Vec<Metric>,
    /// Printed beside the metrics, not part of the result: the speed
    /// metrics as the clock read them, before they were brought to the
    /// nominal host.
    pub context: Vec<Metric>,
    /// Why `failed` is not zero, first few reasons.
    pub notes: Vec<String>,
}

impl Report {
    /// No operation failed and the spool verified.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// A booted server with its script, ready for load.
struct Prepared {
    script: Script,
    bodies: Bodies,
    server: ServerProc,
    spool: ScratchDir,
}

/// Everything before warm-up: script generation, spool pre-seed, server
/// boot (fsck and replay) to the first `220`.
fn set_up(plan: &Plan, cpus: &CpuSplit) -> io::Result<Prepared> {
    let script = Script::generate(plan.workload, plan.seed, plan.sizing);
    let bodies = Bodies::generate(plan.seed);
    let spool = ScratchDir::new(&plan.out_dir, "spool")?;
    verify::preseed(spool.path(), &script, &bodies)?;
    let server = cpus.spawn_on_server_cpus(|| {
        ServerProc::spawn(&plan.server_exe, spool.path(), script.mailboxes)
    })?;
    client::smtp_greeting_probe(server.smtp)?;
    Ok(Prepared {
        script,
        bodies,
        server,
        spool,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Deliver,
    Bounce,
    Pop3,
}

#[derive(Debug, Clone, Copy)]
struct SessionRec {
    end_ns: u64,
    dur_ns: u64,
    kind: Kind,
}

/// What one generator thread saw.
#[derive(Default)]
struct ThreadLog {
    sessions: Vec<SessionRec>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    acked: Vec<(u64, u64)>,
    unacked: Vec<u64>,
    deleted: Vec<(u32, u64)>,
    retrs: Vec<(u64, u64)>,
    spans: Vec<Span>,
    /// Wall, on-CPU and run-queue-wait nanoseconds of the thread's life.
    wall_ns: u64,
    run_ns: u64,
    runq_wait_ns: u64,
}

impl ThreadLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 4 {
            self.notes.push(what);
        }
        // A dead server must not turn the loop into a busy spin.
        std::thread::sleep(Duration::from_millis(10));
    }
}

struct Shared<'a> {
    script: &'a Script,
    bodies: &'a Bodies,
    smtp: std::net::SocketAddr,
    pop3: std::net::SocketAddr,
    /// Zero of the run's clock, the same for every segment.
    base: Instant,
    /// Which segment of the run this is.
    segment: u64,
    /// Replay position of the next SMTP session. It carries on from
    /// segment to segment, so a key names one session of the run.
    next_key: &'a AtomicU64,
    /// Generator threads.
    threads: u64,
    stop: AtomicBool,
    tracing: AtomicBool,
}

/// First POP3 session id, clear of every SMTP replay position.
const POP3_SESSION_BASE: u64 = 1 << 56;

fn generator(shared: &Shared<'_>, thread: u64) -> ThreadLog {
    let mut log = ThreadLog::default();
    log.sessions.reserve(1 << 16);
    let mut spans = Vec::new();
    let mut buf = Buffers::default();
    let started = Instant::now();
    let (run0, wait0) = harness::thread_sched_ns();
    // On `pop3_mixed` every thread reads one mailbox after each
    // `SMTP_PER_POP3` deliveries, so the mix of the two protocols is the
    // script's, not the scheduler's.
    let turn_len = script::SMTP_PER_POP3 + 1;
    for turn in 0u64.. {
        if shared.stop.load(Ordering::Relaxed) || log.failed >= MAX_FAILURES {
            break;
        }
        let reads_pop3 = !shared.script.pop3_plan.is_empty() && turn % turn_len == turn_len - 1;
        let mut tracer = Tracer {
            base: shared.base,
            spans: shared.tracing.load(Ordering::Relaxed).then_some(&mut spans),
        };
        let start_ns = tracer.now();
        log.attempted += 1;
        if reads_pop3 {
            // POP3 gives a reader its mailbox to itself, so concurrent
            // readers must not meet: thread `t` of `C` only visits
            // mailboxes numbered `t` modulo `C`.
            let n = turn / turn_len;
            let plan = &shared.script.pop3_plan;
            let drawn = u64::from(plan[(n % plan.len() as u64) as usize]);
            let mut mailbox = drawn - drawn % shared.threads + thread;
            if mailbox >= u64::from(shared.script.mailboxes) {
                mailbox -= shared.threads;
            }
            let mailbox = mailbox as u32;
            let session = POP3_SESSION_BASE + (shared.segment << 48) + (thread << 32) + n;
            match client::pop3_session(
                shared.pop3,
                session,
                mailbox,
                shared.bodies,
                &mut buf,
                &mut tracer,
            ) {
                Ok(outcome) => {
                    let end_ns = tracer.now();
                    log.sessions.push(SessionRec {
                        end_ns,
                        dur_ns: end_ns - start_ns,
                        kind: Kind::Pop3,
                    });
                    log.deleted
                        .extend(outcome.deleted.into_iter().map(|key| (mailbox, key)));
                    log.retrs.extend(outcome.retrs);
                }
                Err(e) => log.fail(format!("pop3 session {n} on user{mailbox}: {e}")),
            }
        } else {
            let key = shared.next_key.fetch_add(1, Ordering::Relaxed);
            let spec = shared.script.spec(key);
            match client::smtp_session(shared.smtp, key, spec, shared.bodies, &mut buf, &mut tracer)
            {
                Ok(delivered) => {
                    let end_ns = tracer.now();
                    log.sessions.push(SessionRec {
                        end_ns,
                        dur_ns: end_ns - start_ns,
                        kind: if spec.delivers() {
                            Kind::Deliver
                        } else {
                            Kind::Bounce
                        },
                    });
                    if let Some(id) = delivered {
                        log.acked.push((key, id));
                    }
                }
                Err(f) => {
                    if f.body_sent {
                        log.unacked.push(key);
                    }
                    log.fail(format!("smtp session {key}: {}", f.error));
                }
            }
        }
    }
    let (run1, wait1) = harness::thread_sched_ns();
    log.wall_ns = started.elapsed().as_nanos() as u64;
    log.run_ns = run1 - run0;
    log.runq_wait_ns = wait1 - wait0;
    log.spans = spans;
    log
}

/// What the main thread reads at a slice boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Instant on the run's clock.
    at_ns: u64,
    /// Server `utime + stime` so far.
    cpu_us: u64,
}

/// A measured window: the marks at its slice boundaries, and the marks
/// at every wake of the main thread in between ([`RSS_STEP`] apart).
#[derive(Debug, Clone)]
struct Window {
    marks: Vec<Mark>,
    ticks: Vec<Mark>,
}

impl Window {
    fn start_ns(&self) -> u64 {
        self.marks[0].at_ns
    }

    fn end_ns(&self) -> u64 {
        self.marks[self.marks.len() - 1].at_ns
    }

    fn secs(&self) -> f64 {
        (self.end_ns() - self.start_ns()) as f64 / 1e9
    }

    fn holds(&self, at_ns: u64) -> bool {
        at_ns >= self.start_ns() && at_ns < self.end_ns()
    }

    /// Seconds each slice lasted (sleeps overshoot, so they differ).
    fn slice_secs(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|m| (m[1].at_ns - m[0].at_ns) as f64 / 1e9)
            .collect()
    }

    /// Durations of the sessions of `kinds` that ended in each slice.
    fn slices(&self, logs: &[ThreadLog], kinds: &[Kind]) -> Vec<Vec<u64>> {
        let bounds: Vec<u64> = self.marks.iter().map(|m| m.at_ns).collect();
        let sessions = logs
            .iter()
            .flat_map(|l| &l.sessions)
            .filter(|s| kinds.contains(&s.kind))
            .map(|s| (s.end_ns, s.dur_ns));
        into_slices(&bounds, sessions)
    }

    /// SMTP sessions completed per second, per slice.
    fn smtp_rates(&self, logs: &[ThreadLog]) -> Vec<f64> {
        self.slices(logs, &[Kind::Deliver, Kind::Bounce])
            .iter()
            .zip(self.slice_secs())
            .map(|(slice, secs)| slice.len() as f64 / secs)
            .collect()
    }

    /// SMTP sessions completed per second in each
    /// [`reference::RATE_BIN`] of the window.
    fn bin_rates(&self, logs: &[ThreadLog]) -> Vec<f64> {
        let ends = logs
            .iter()
            .flat_map(|l| &l.sessions)
            .filter(|s| s.kind != Kind::Pop3 && self.holds(s.end_ns))
            .map(|s| Duration::from_nanos(s.end_ns - self.start_ns()));
        reference::bin_rates(ends, Duration::from_nanos(self.end_ns() - self.start_ns()))
    }

    /// Server CPU microseconds per completed session of either protocol,
    /// over each half second (two ticks) of the window: `/proc` counts
    /// CPU in 10 ms, so a shorter bin would be all rounding.
    fn cpu_per_session(&self, logs: &[ThreadLog]) -> Vec<f64> {
        let ticks: Vec<Mark> = self.ticks.iter().copied().step_by(2).collect();
        let bounds: Vec<u64> = ticks.iter().map(|m| m.at_ns).collect();
        let sessions = logs
            .iter()
            .flat_map(|l| &l.sessions)
            .map(|s| (s.end_ns, s.dur_ns));
        into_slices(&bounds, sessions)
            .iter()
            .zip(ticks.windows(2))
            .filter(|(done, _)| !done.is_empty())
            .map(|(done, m)| (m[1].cpu_us - m[0].cpu_us) as f64 / done.len() as f64)
            .collect()
    }
}

/// The main thread's view of one server under load: it sleeps through
/// the windows, waking to read the server's `/proc` accounting.
struct Watch<'a> {
    shared: &'a Shared<'a>,
    server: &'a ServerProc,
    /// Replay position the segment began at.
    key0: u64,
    /// `(SMTP sessions this server was sent, its VmHWM in MiB)`, read every
    /// [`RSS_STEP`] from boot on.
    rss_curve: Vec<(f64, f64)>,
    /// A mark at every wake since the current window began.
    ticks: Vec<Mark>,
}

impl Watch<'_> {
    fn read_rss(&mut self) -> io::Result<()> {
        let begun = self.shared.next_key.load(Ordering::Relaxed) - self.key0;
        self.rss_curve
            .push((begun as f64, self.server.rss_peak_mb()?));
        Ok(())
    }

    fn sleep_until(&mut self, deadline: Instant) -> io::Result<()> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(RSS_STEP));
            self.read_rss()?;
            self.ticks.push(self.mark()?);
            if left <= RSS_STEP {
                return Ok(());
            }
        }
    }

    fn mark(&self) -> io::Result<Mark> {
        Ok(Mark {
            at_ns: self.shared.base.elapsed().as_nanos() as u64,
            cpu_us: self.server.cpu_us()?,
        })
    }

    /// Sleeps through a window of `length`, waking at every slice
    /// boundary to take a [`Mark`].
    fn measure_window(&mut self, length: Duration) -> io::Result<Window> {
        let mut marks = vec![self.mark()?];
        self.ticks = marks.clone();
        let start = Instant::now();
        for slice in 1..=SLICES_PER_WINDOW as u32 {
            self.sleep_until(start + length * slice / SLICES_PER_WINDOW as u32)?;
            marks.extend(self.ticks.last());
        }
        Ok(Window {
            marks,
            ticks: std::mem::take(&mut self.ticks),
        })
    }
}

/// What one server's life gave.
struct Segment {
    /// Seconds its set-up took.
    setup_secs: f64,
    window: Window,
    /// The traced window and the `METRICS` reports around it.
    traced: Option<(Window, Metrics, Metrics)>,
    logs: Vec<ThreadLog>,
    rss_curve: Vec<(f64, f64)>,
    drained: Drained,
    /// Bytes the spool grew by under load.
    spool_growth: u64,
    /// Σ body bytes × valid recipients of the mail acked.
    delivered_bytes: u64,
}

/// Runs `plan` and reports. An `Err` means the run could not be carried
/// out at all (no server, no spool); a run that completed with failed
/// operations is an `Ok` report whose `failed` says so.
pub fn run(plan: &Plan) -> io::Result<Report> {
    let cpus = CpuSplit::of_host();
    let report = run_pinned(plan, &cpus);
    cpus.release();
    report
}

/// One segment: set-up (timed), warm-up, the windows, drain, verify.
/// Failed operations and failed checks go into `report`.
fn run_segment(
    plan: &Plan,
    cpus: &CpuSplit,
    segment: u64,
    base: Instant,
    next_key: &AtomicU64,
    report: &mut Report,
) -> io::Result<Segment> {
    let t = Instant::now();
    let Prepared {
        script,
        bodies,
        server,
        spool,
    } = set_up(plan, cpus)?;
    let setup_secs = t.elapsed().as_secs_f64();
    let spool_bytes_before = harness::dir_bytes(spool.path());

    let shared = Shared {
        script: &script,
        bodies: &bodies,
        smtp: server.smtp,
        pop3: server.pop3,
        base,
        segment,
        next_key,
        threads: harness::connections() as u64,
        stop: AtomicBool::new(false),
        tracing: AtomicBool::new(false),
    };
    let mut watch = Watch {
        shared: &shared,
        server: &server,
        key0: next_key.load(Ordering::Relaxed),
        rss_curve: Vec::new(),
        ticks: Vec::new(),
    };
    watch.read_rss()?;
    let mut traced: Option<(Window, Metrics, Metrics)> = None;
    let (window, logs) = std::thread::scope(|scope| -> io::Result<(Window, Vec<ThreadLog>)> {
        let handles: Vec<_> = (0..shared.threads)
            .map(|thread| {
                let shared = &shared;
                scope.spawn(move || generator(shared, thread))
            })
            .collect();
        let measured = (|| -> io::Result<Window> {
            watch.sleep_until(Instant::now() + plan.warmup)?;
            let window = watch.measure_window(plan.window)?;
            if let Some(length) = plan.traced_window {
                shared.tracing.store(true, Ordering::Relaxed);
                // Sessions begun untraced finish before the window opens.
                std::thread::sleep(Duration::from_millis(100));
                let before = server.metrics()?;
                let w = watch.measure_window(length)?;
                let after = server.metrics()?;
                traced = Some((w, before, after));
            }
            Ok(window)
        })();
        shared.stop.store(true, Ordering::Relaxed);
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        Ok((measured?, logs))
    })?;
    let rss_curve = watch.rss_curve;

    // Every sender has its last reply, but the server may still be
    // closing the last connections: its counters are final once nothing
    // is in flight.
    let settle = Instant::now();
    let finals = loop {
        let m = server.metrics()?;
        if m.value("live.inflight") == 0 || settle.elapsed() > Duration::from_secs(2) {
            break m;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let drained = server.drain()?;
    let spool_bytes_after = harness::dir_bytes(spool.path());

    let mut acked = Vec::new();
    let mut unacked = Vec::new();
    let mut deleted = Vec::new();
    for log in &logs {
        report.attempted += log.attempted;
        report.failed += log.failed;
        report.notes.extend(log.notes.iter().cloned());
        acked.extend_from_slice(&log.acked);
        unacked.extend_from_slice(&log.unacked);
        deleted.extend_from_slice(&log.deleted);
    }
    let evidence = Evidence {
        script: &script,
        bodies: &bodies,
        acked: &acked,
        deleted: &deleted,
        unacked: &unacked,
    };
    let verdict = verify::verify_spool(spool.path(), &evidence)?;
    report.failed += verdict.problems;
    report.notes.extend(verdict.messages);
    // The spool goes before the next segment's server boots.
    drop(spool);

    let count = |kind: Kind| -> i64 {
        logs.iter()
            .flat_map(|l| &l.sessions)
            .filter(|s| s.kind == kind)
            .count() as i64
    };
    let mut check = |what: &str, got: i64, want: i64| {
        if got != want {
            report.failed += 1;
            report
                .notes
                .push(format!("{what}: server says {got}, senders say {want}"));
        }
    };
    for shed in ["connections", "per_ip", "worker_busy"] {
        check(
            &format!("live.shed_{shed}"),
            finals.value(&format!("live.shed_{shed}")),
            0,
        );
    }
    if logs.iter().all(|l| l.failed == 0) {
        // A bounce must never cost a worker: delegations are exactly the
        // delivering sessions, and the master alone closed the bounces.
        check(
            "live.delegated",
            finals.value("live.delegated"),
            count(Kind::Deliver),
        );
        check(
            "live.bounces",
            finals.value("live.bounces"),
            count(Kind::Bounce),
        );
        check(
            "live.mails_stored",
            finals.value("live.mails_stored"),
            acked.len() as i64,
        );
        check(
            "pop3 sessions",
            drained.pop3_sessions as i64,
            count(Kind::Pop3),
        );
        check(
            "pop3 deletes",
            drained.pop3_deleted as i64,
            deleted.len() as i64,
        );
    }

    let delivered_bytes = acked
        .iter()
        .map(|&(key, _)| {
            let spec = script.spec(key);
            (bodies.body_len(spec.size) * spec.rcpts.len()) as u64
        })
        .sum();
    Ok(Segment {
        setup_secs,
        window,
        traced,
        logs,
        rss_curve,
        drained,
        spool_growth: spool_bytes_after - spool_bytes_before,
        delivered_bytes,
    })
}

fn run_pinned(plan: &Plan, cpus: &CpuSplit) -> io::Result<Report> {
    let mut report = Report::default();
    let base = Instant::now();
    let next_key = AtomicU64::new(0);
    let mut setup_secs = Vec::new();
    let mut segments = Vec::new();
    // The host's speed is read between the segments, never beside one.
    let mut reference = vec![reference::read(cpus, plan.reference)?];
    for segment in 0..plan.segments.max(1) as u64 {
        // Set-up is timed before every segment, so that it is timed over
        // the same half minute as the null server it is scaled by. Each
        // extra server is drained at once.
        for _ in 1..plan.setups {
            let t = Instant::now();
            let Prepared { server, spool, .. } = set_up(plan, cpus)?;
            setup_secs.push(t.elapsed().as_secs_f64());
            server.drain()?;
            drop(spool);
        }
        segments.push(run_segment(
            plan,
            cpus,
            segment,
            base,
            &next_key,
            &mut report,
        )?);
        setup_secs.extend(segments.last().map(|s: &Segment| s.setup_secs));
        reference.push(reference::read(cpus, plan.reference)?);
    }
    // A rate is divided by the host's speed and a time multiplied, so a
    // number means the same in a slow minute as in a fast one.
    let host = Host::of(&reference);

    let us = |ns: u64| ns as f64 / 1e3;
    // One value per slice or bin of the run, whichever segment it is in.
    let per_slice =
        |of: &dyn Fn(&Segment) -> Vec<f64>| -> Vec<f64> { segments.iter().flat_map(of).collect() };
    let untraced_rates = per_slice(&|s| s.window.smtp_rates(&s.logs));
    if plan.traced_window.is_none() {
        let bin_rates = per_slice(&|s| s.window.bin_rates(&s.logs));
        let delivering: Vec<u64> = segments
            .iter()
            .flat_map(|s| s.window.slices(&s.logs, &[Kind::Deliver]))
            .flatten()
            .collect();
        let cpu_per_session = per_slice(&|s| s.window.cpu_per_session(&s.logs));
        // Memory grows with every mail indexed, so it is read at a fixed
        // amount of work, not a fixed time: a faster server must not look
        // fatter for having stored more.
        let rss: Vec<f64> = segments
            .iter()
            .map(|s| interpolate(&s.rss_curve, plan.workload.rss_mark() as f64))
            .collect();
        let growth: u64 = segments.iter().map(|s| s.spool_growth).sum();
        let delivered: u64 = segments.iter().map(|s| s.delivered_bytes).sum();
        // The same estimators as the null server's, each scaled by its
        // like.
        let (rate, p50, cpu, setup) = (
            reference::sustained_rate(&bin_rates),
            us(percentile(&delivering, 50)),
            reference::undisturbed_cpu(&cpu_per_session),
            // Set-ups of one run fall into two clusters a third apart
            // (12 800 small appends either meet the filesystem's
            // writeback or do not) and the first after a segment runs on
            // cold caches: the fastest fifth is what set-up costs when
            // left alone, and falls into the same cluster run after run.
            quantile(&setup_secs, 0.2),
        );
        report.context = vec![
            Metric::new("host.ref_sessions_s", "1/s", host.sessions_s),
            Metric::new("host.ref_session_us_p50", "us", host.session_us_p50),
            Metric::new("host.ref_cpu_us_per_session", "us", host.cpu_us_per_session),
            Metric::new("raw.sessions_s", "1/s", rate),
            Metric::new("raw.session_us_p50", "us", p50),
            Metric::new("raw.cpu_us_per_session", "us", cpu),
            Metric::new("raw.setup_s", "s", setup),
        ];
        report.metrics = vec![
            Metric::new(
                "sessions_s",
                "1/s",
                rate * NOMINAL.sessions_s / host.sessions_s,
            ),
            Metric::new(
                "session_us_p50",
                "us",
                p50 * NOMINAL.session_us_p50 / host.session_us_p50,
            ),
            Metric::new(
                "cpu_us_per_session",
                "us",
                cpu * NOMINAL.cpu_us_per_session / host.cpu_us_per_session,
            ),
            Metric::new("rss_peak_mb", "MiB", median(&rss)),
            Metric::new(
                "spool_bytes_per_delivered_byte",
                "B/B",
                growth as f64 / delivered.max(1) as f64,
            ),
            Metric::new(
                "setup_s",
                "s",
                setup * NOMINAL.cpu_us_per_session / host.cpu_us_per_session,
            ),
        ];
        return Ok(report);
    }

    let traced_windows: Vec<(&Segment, &Window)> = segments
        .iter()
        .filter_map(|s| Some((s, &s.traced.as_ref()?.0)))
        .collect();
    let traced_secs: f64 = traced_windows.iter().map(|(_, w)| w.secs()).sum();
    let in_window = |kind: Kind| {
        traced_windows
            .iter()
            .flat_map(|(s, w)| w.slices(&s.logs, &[kind]))
            .map(|slice| slice.len())
            .sum::<usize>() as f64
    };
    let traced_rates: Vec<f64> = traced_windows
        .iter()
        .flat_map(|(s, w)| w.smtp_rates(&s.logs))
        .collect();
    let all_logs: Vec<&ThreadLog> = segments.iter().flat_map(|s| &s.logs).collect();
    let m = &mut report.metrics;
    span_metrics(&all_logs, m);
    m.push(Metric::new(
        "client.mails_s",
        "1/s",
        in_window(Kind::Deliver) / traced_secs,
    ));
    m.push(Metric::new(
        "client.slice_min_s",
        "1/s",
        traced_rates.iter().copied().fold(f64::INFINITY, f64::min),
    ));
    m.push(Metric::new(
        "client.slice_max_s",
        "1/s",
        traced_rates.iter().copied().fold(0.0, f64::max),
    ));
    // The tail of a delivering session, per slice: the typical slice, and
    // the worst one — the periodic spikes (writeback, a preempted master)
    // that slice medians are there to ignore.
    let slice_p99: Vec<f64> = traced_windows
        .iter()
        .flat_map(|(s, w)| w.slices(&s.logs, &[Kind::Deliver]))
        .map(|d| us(percentile(&d, 99)))
        .collect();
    m.push(Metric::new(
        "client.session_us_p99",
        "us",
        median(&slice_p99),
    ));
    m.push(Metric::new(
        "client.slice_p99_max_us",
        "us",
        slice_p99.iter().copied().fold(0.0, f64::max),
    ));
    let untraced_rate = median(&untraced_rates);
    m.push(Metric::new(
        "trace.overhead_share",
        "share",
        if untraced_rate > 0.0 {
            1.0 - median(&traced_rates) / untraced_rate
        } else {
            0.0
        },
    ));
    let share_of_life = |f: fn(&ThreadLog) -> u64| {
        all_logs
            .iter()
            .map(|l| f(l) as f64 / l.wall_ns.max(1) as f64)
            .fold(0.0, f64::max)
    };
    m.push(Metric::new(
        "client.runq_wait_share",
        "share",
        share_of_life(|l| l.runq_wait_ns),
    ));
    m.push(Metric::new(
        "client.idle_share",
        "share",
        1.0 - share_of_life(|l| l.run_ns + l.runq_wait_ns),
    ));
    m.push(Metric::new(
        "client.failed_ops",
        "count",
        report.failed as f64,
    ));
    m.push(Metric::new("host.ref_sessions_s", "1/s", host.sessions_s));
    m.push(Metric::new(
        "host.ref_session_us_p50",
        "us",
        host.session_us_p50,
    ));
    m.push(Metric::new(
        "host.ref_cpu_us_per_session",
        "us",
        host.cpu_us_per_session,
    ));
    let retrs: Vec<u64> = traced_windows
        .iter()
        .flat_map(|(s, w)| {
            s.logs
                .iter()
                .flat_map(|l| &l.retrs)
                .filter(move |(end, _)| w.holds(*end))
                .map(|&(_, dur)| dur)
        })
        .collect();
    m.push(Metric::new(
        "pop3.sessions_s",
        "1/s",
        in_window(Kind::Pop3) / traced_secs,
    ));
    m.push(Metric::new(
        "pop3.retr_us_p50",
        "us",
        us(percentile(&retrs, 50)),
    ));
    m.push(Metric::new(
        "pop3.retr_us_p99",
        "us",
        us(percentile(&retrs, 99)),
    ));
    let drained = |f: fn(&Drained) -> u64| segments.iter().map(|s| f(&s.drained)).sum::<u64>();
    m.push(Metric::new(
        "pop3.sessions",
        "count",
        drained(|d| d.pop3_sessions) as f64,
    ));
    m.push(Metric::new(
        "pop3.retrs",
        "count",
        drained(|d| d.pop3_retrieved) as f64,
    ));
    let reports: Vec<(&Metrics, &Metrics)> = segments
        .iter()
        .filter_map(|s| s.traced.as_ref())
        .map(|(_, before, after)| (before, after))
        .collect();
    live_metrics(&reports, m);
    write_trace(&plan.out_dir, plan.workload, &all_logs)?;
    Ok(report)
}

/// `client.<span>_us_p50` and `client.<span>_share` for every child span,
/// plus `client.span_coverage`: the share of session time the children
/// account for, which the caller holds to at least 0.95.
fn span_metrics(logs: &[&ThreadLog], out: &mut Vec<Metric>) {
    let spans = || logs.iter().flat_map(|l| &l.spans);
    let total_of = |kind: SpanKind| -> u64 {
        spans()
            .filter(|s| s.kind == kind)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    };
    let session_ns = (total_of(SpanKind::Session) + total_of(SpanKind::Pop3Session)).max(1) as f64;
    let mut covered = 0u64;
    for kind in SpanKind::CHILDREN {
        let durations: Vec<u64> = spans()
            .filter(|s| s.kind == kind)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        let total: u64 = durations.iter().sum();
        covered += total;
        let stem = format!("client.{}", kind.name());
        out.push(Metric::new(
            format!("{stem}_us_p50"),
            "us",
            percentile(&durations, 50) as f64 / 1e3,
        ));
        out.push(Metric::new(
            format!("{stem}_share"),
            "share",
            total as f64 / session_ns,
        ));
    }
    out.push(Metric::new(
        "client.span_coverage",
        "share",
        covered as f64 / session_ns,
    ));
}

/// The `live.*` lines: what the server's own counters say each
/// connection, mail or store operation cost between the two `METRICS`
/// reads around each traced window, the windows taken together. Means are
/// sum ÷ count of the histogram deltas, never bucket edges.
fn live_metrics(reports: &[(&Metrics, &Metrics)], out: &mut Vec<Metric>) {
    let delta = |name: &str| -> f64 {
        reports
            .iter()
            .map(|(before, after)| after.delta(before, name))
            .sum()
    };
    let mean = |name: &str| -> f64 {
        let (count, sum) = reports
            .iter()
            .map(|(before, after)| after.hist_since(before, name))
            .fold((0, 0), |(c, s), (dc, ds)| (c + dc, s + ds));
        if count > 0 {
            sum as f64 / count as f64
        } else {
            0.0
        }
    };
    let conns = delta("live.accepted").max(1.0);
    let per_conn = |name: &str| delta(name) / conns;
    out.push(Metric::new(
        "live.pretrust_ns_per_conn",
        "ns",
        mean("master.pretrust_ns"),
    ));
    out.push(Metric::new(
        "live.queue_wait_ns_per_conn",
        "ns",
        mean("worker.queue_wait_ns"),
    ));
    out.push(Metric::new(
        "live.data_ns_per_mail",
        "ns",
        mean("worker.data_ns"),
    ));
    out.push(Metric::new(
        "live.storage_ns_per_mail",
        "ns",
        mean("worker.storage_ns"),
    ));
    out.push(Metric::new(
        "live.wakeups_per_conn",
        "count",
        per_conn("master.wakeups"),
    ));
    out.push(Metric::new(
        "live.io_events_per_conn",
        "count",
        per_conn("master.io_events"),
    ));
    out.push(Metric::new(
        "live.timers_per_conn",
        "count",
        per_conn("master.timers_fired"),
    ));
    let (miss, reuse) = (delta("live.pool_miss"), delta("live.pool_reuse"));
    out.push(Metric::new(
        "live.pool_miss_share",
        "share",
        miss / (miss + reuse).max(1.0),
    ));
    let shed: f64 = ["connections", "per_ip", "worker_busy", "draining"]
        .iter()
        .map(|s| per_conn(&format!("live.shed_{s}")))
        .sum();
    out.push(Metric::new("live.shed_share", "share", shed));
    out.push(Metric::new(
        "live.shard_contention_ns_per_op",
        "ns",
        mean("mfs.shard_contention_ns"),
    ));
}

/// Writes every span of the traced window as one JSON object per line:
/// session id, span name, start, end, and the parent span.
fn write_trace(out_dir: &Path, workload: Workload, logs: &[&ThreadLog]) -> io::Result<()> {
    let path = out_dir.join(format!("trace-{}.jsonl", workload.name()));
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    for span in logs.iter().flat_map(|l| &l.spans) {
        let parent = match span.kind {
            SpanKind::Session | SpanKind::Pop3Session => "null".to_owned(),
            SpanKind::Pop3Auth
            | SpanKind::Pop3StatList
            | SpanKind::Pop3Retr
            | SpanKind::Pop3Dele => {
                format!("\"{}\"", SpanKind::Pop3Session.name())
            }
            _ => format!("\"{}\"", SpanKind::Session.name()),
        };
        writeln!(
            file,
            "{{\"session\":{},\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            span.session,
            span.kind.name(),
            span.start_ns,
            span.end_ns,
        )?;
    }
    file.flush()
}
