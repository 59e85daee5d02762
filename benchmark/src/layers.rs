//! Per-layer probes: direct, single-threaded, timed calls into each
//! crate's public functions, so a layer's own cost has a line of its own
//! next to the end-to-end numbers it should move.
//!
//! Every timing is the median of [`REPS`] repetitions of a fixed
//! iteration count; counts (`*.allocs_*`, `mfs.backend_ops_*`,
//! `dnsbl.query_fraction_*`) come from one deterministic pass and repeat
//! exactly. Nothing here talks to the server process.

use crate::alloc_count::allocations;
use crate::harness::ScratchDir;
use crate::run::Metric;
use crate::script::{Bodies, Script, LARGE_MAIL, LARGE_RCPTS, SMALL_MAIL};
use crate::stats::median;
use crate::verify::{self, store_error};
use spamaware_core::pretrust::{run_pretrust, EngineCtx};
use spamaware_core::reactor::sim::{SimEvent, SimReactor};
use spamaware_core::reactor::wheel::TimerWheel;
use spamaware_core::{BufferPool, LineBuffer, LiveStats};
use spamaware_dnsbl::wire::{Answer, Message, Rcode, RecordType};
use spamaware_dnsbl::{
    BlacklistDb, CacheScheme, CachingResolver, DnsblServer, LatencyModel, WireAnswer,
};
use spamaware_metrics::{LogHistogram, ManualClock, Registry};
use spamaware_mfs::{
    fsck, DataRef, DiskProfile, HardlinkStore, MailId, MailStore, MaildirStore, MboxStore, MemFs,
    Metered, MfsStore, RealDir,
};
use spamaware_netaddr::{QueryName, QueryScheme};
use spamaware_sim::{det_rng, Nanos};
use spamaware_smtp::{Command, DataVerdict, MailAddr, Reply, ServerSession, SessionConfig};
use spamaware_trace::SinkholeConfig;
use std::collections::HashSet;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions behind every timing.
pub const REPS: usize = 5;

/// Median over [`REPS`] calls of `rep`, which sets up what it needs and
/// returns only the time of the part being measured, in nanoseconds per
/// `per` units of work.
fn median_ns(per: f64, mut rep: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| rep().as_nanos() as f64 / per).collect();
    median(&samples)
}

/// [`median_ns`] for work that can fail; the first error ends the probe.
fn try_median_ns(per: f64, mut rep: impl FnMut() -> io::Result<Duration>) -> io::Result<f64> {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        samples.push(rep()?.as_nanos() as f64 / per);
    }
    Ok(median(&samples))
}

fn time(work: impl FnOnce()) -> Duration {
    let t = Instant::now();
    work();
    t.elapsed()
}

/// The probes that depend on the workload: `smtp.*` and `linebuf.*`
/// price exactly the commands and bodies `script` sends.
pub fn probe_workload(script: &Script, bodies: &Bodies) -> Vec<Metric> {
    let mut out = Vec::new();
    smtp_probes(script, bodies, &mut out);
    linebuf_pool_probes(script, bodies, &mut out);
    out
}

/// The probes that do not: engine, store, DNSBL and instruments.
pub fn probe_shared(bodies: &Bodies, out_dir: &Path) -> io::Result<Vec<Metric>> {
    let mut out = Vec::new();
    engine_probes(&mut out);
    mfs_probes(bodies, out_dir, &mut out)?;
    dnsbl_probes(&mut out);
    metrics_probes(&mut out);
    Ok(out)
}

/// Sessions of the script the SMTP probes replay.
const SMTP_SESSIONS: u64 = 2_000;

/// The body the workload's first delivering session sends (a small mail
/// where none delivers), as CRLF-stripped lines.
fn workload_body(script: &Script, bodies: &Bodies) -> Vec<u8> {
    let (key, size) = (0..script.sessions.len() as u64)
        .find(|&k| script.spec(k).delivers())
        .map_or((0, SMALL_MAIL), |k| {
            (k, script.spec(k).size.max(SMALL_MAIL))
        });
    let mut body = Vec::new();
    bodies.write_body(key, size, &mut body);
    body
}

fn smtp_probes(script: &Script, bodies: &Bodies, out: &mut Vec<Metric>) {
    let lines: Vec<Vec<String>> = (0..SMTP_SESSIONS)
        .map(|k| script.command_lines(k))
        .collect();
    let commands = lines.iter().map(Vec::len).sum::<usize>() as f64;
    let exists = |a: &MailAddr| a.local_part().starts_with("user");

    out.push(Metric::new(
        "smtp.parse_ns_per_cmd",
        "ns",
        median_ns(commands, || {
            time(|| {
                for line in lines.iter().flatten() {
                    let _ = black_box(Command::parse(black_box(line)));
                }
            })
        }),
    ));

    // One whole dialog per session through the state machine; a `DATA`
    // is closed with a declared size so only command handling is timed.
    let dialog = |session_lines: &[Command], size: u32| {
        let mut session = ServerSession::new(SessionConfig::default());
        black_box(session.greeting());
        for cmd in session_lines {
            let is_data = matches!(cmd, Command::Data);
            let reply = session.handle(cmd.clone(), &exists);
            if is_data && reply.code() == 354 {
                black_box(session.finish_data_sized("1", u64::from(size)));
            }
            black_box(reply);
        }
    };
    let parsed: Vec<(Vec<Command>, u32)> = lines
        .iter()
        .enumerate()
        .map(|(k, l)| {
            let cmds = l
                .iter()
                .filter_map(|line| Command::parse(line).ok())
                .collect();
            (cmds, script.spec(k as u64).size)
        })
        .collect();
    out.push(Metric::new(
        "smtp.handle_ns_per_cmd",
        "ns",
        median_ns(commands, || {
            time(|| {
                for (cmds, size) in &parsed {
                    dialog(cmds, *size);
                }
            })
        }),
    ));

    let body = workload_body(script, bodies);
    let body_lines: Vec<&[u8]> = body
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l))
        .collect();
    let open_data = || {
        let mut session = ServerSession::new(SessionConfig::default());
        session.capture_bodies(true);
        for line in [
            "HELO c",
            "MAIL FROM:<a@b.example>",
            "RCPT TO:<user1@dept.example>",
            "DATA",
        ] {
            if let Ok(cmd) = Command::parse(line) {
                session.handle(cmd, &exists);
            }
        }
        session.provide_body_buffer(Vec::with_capacity(body.len() + 64));
        session
    };
    const DATA_ROUNDS: usize = 200;
    out.push(Metric::new(
        "smtp.data_line_ns_per_kib",
        "ns",
        median_ns((DATA_ROUNDS * body.len()) as f64 / 1024.0, || {
            let mut sessions: Vec<ServerSession> = (0..DATA_ROUNDS).map(|_| open_data()).collect();
            time(|| {
                for session in &mut sessions {
                    for line in &body_lines {
                        black_box(session.data_line(line));
                    }
                    debug_assert_eq!(session.data_line(b"."), DataVerdict::Complete);
                }
            })
        }),
    ));

    let replies = [
        Reply::greeting("mx.spamaware.test"),
        Reply::hello("mx.spamaware.test"),
        Reply::ok(),
        Reply::ok(),
        Reply::start_data(),
        Reply::queued("123456"),
        Reply::bye(),
        Reply::user_unknown(),
    ];
    const REPLY_ROUNDS: usize = 20_000;
    out.push(Metric::new(
        "smtp.reply_wire_ns",
        "ns",
        median_ns((REPLY_ROUNDS * replies.len()) as f64, || {
            let mut wire = Vec::with_capacity(256);
            time(|| {
                for _ in 0..REPLY_ROUNDS {
                    wire.clear();
                    for reply in &replies {
                        reply.write_wire(&mut wire);
                    }
                    black_box(&wire);
                }
            })
        }),
    ));

    // Allocations of whole sessions as the worker drives them: parse each
    // line, handle it, feed the body line by line, render every reply.
    const ALLOC_SESSIONS: usize = 256;
    let mut wire = Vec::with_capacity(1024);
    let before = allocations();
    for (k, session_lines) in lines.iter().take(ALLOC_SESSIONS).enumerate() {
        let mut session = ServerSession::new(SessionConfig::default());
        session.capture_bodies(true);
        wire.clear();
        session.greeting().write_wire(&mut wire);
        for line in session_lines {
            let Ok(cmd) = Command::parse(line) else {
                continue;
            };
            let reply = session.handle(cmd, &exists);
            reply.write_wire(&mut wire);
            if reply.code() == 354 {
                let mut mail = Vec::new();
                bodies.write_body(k as u64, script.spec(k as u64).size, &mut mail);
                for l in mail.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                    session.data_line(l.strip_suffix(b"\r").unwrap_or(l));
                }
                session.finish_data("1").write_wire(&mut wire);
                black_box(session.take_last_delivered());
            }
        }
    }
    let allocs = allocations() - before;
    out.push(Metric::new(
        "smtp.allocs_per_session",
        "count",
        allocs as f64 / ALLOC_SESSIONS as f64,
    ));
}

fn linebuf_pool_probes(script: &Script, bodies: &Bodies, out: &mut Vec<Metric>) {
    let mut body = workload_body(script, bodies);
    body.extend_from_slice(b".\r\n");
    let lines = body.iter().filter(|&&b| b == b'\n').count();
    // The worker reads at most 4 KiB at a time and drains whole lines
    // after every read.
    let feed = |lb: &mut LineBuffer| {
        for chunk in body.chunks(4096) {
            lb.push(chunk);
            while let Ok(Some(line)) = lb.pop_line() {
                black_box(line);
            }
        }
    };
    const ROUNDS: usize = 100;
    out.push(Metric::new(
        "linebuf.split_ns_per_kib",
        "ns",
        median_ns((ROUNDS * body.len()) as f64 / 1024.0, || {
            let mut lb = LineBuffer::from_remaining(Vec::with_capacity(8192));
            time(|| {
                for _ in 0..ROUNDS {
                    feed(&mut lb);
                }
            })
        }),
    ));
    let mut lb = LineBuffer::from_remaining(Vec::with_capacity(8192));
    let before = allocations();
    feed(&mut lb);
    out.push(Metric::new(
        "linebuf.allocs_per_line",
        "count",
        (allocations() - before) as f64 / lines as f64,
    ));

    let registry = Registry::with_wall_clock();
    let pool = BufferPool::new(&registry, 32, 16 * 1024);
    pool.put(Vec::with_capacity(16 * 1024));
    const POOL_ROUNDS: usize = 200_000;
    out.push(Metric::new(
        "pool.take_put_ns",
        "ns",
        median_ns(POOL_ROUNDS as f64, || {
            time(|| {
                for _ in 0..POOL_ROUNDS {
                    let buf = pool.take_vec();
                    pool.put(black_box(buf));
                }
            })
        }),
    ));
}

/// Connections each simulated-engine repetition replays.
const SIM_CONNS: u64 = 2_000;

/// Replays `SIM_CONNS` scripted connections, each sending `burst` in one
/// segment, through the production pre-trust loop on `SimReactor` and
/// `ManualClock`: no kernel, no sockets, the engine's own work only.
fn sim_engine_ns_per_conn(burst: &[u8]) -> f64 {
    median_ns(SIM_CONNS as f64, || {
        let clock = ManualClock::new();
        let registry = Arc::new(Registry::new(Arc::new(clock.clone())));
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let mut events = Vec::with_capacity(2 * SIM_CONNS as usize + 1);
        for conn in 1..=SIM_CONNS {
            let at = conn * 1_000_000;
            let peer = SocketAddr::from((
                [10, (conn >> 16) as u8, (conn >> 8) as u8, conn as u8],
                2525,
            ));
            events.push((at, SimEvent::Connect { conn, peer }));
            events.push((
                at,
                SimEvent::Data {
                    conn,
                    bytes: burst.to_vec(),
                },
            ));
        }
        events.push(((SIM_CONNS + 1) * 1_000_000, SimEvent::Stop));
        let mut reactor = SimReactor::new(&clock, &stop, &draining, events);
        let inflight = registry.gauge("live.inflight");
        let ctx = EngineCtx {
            stop,
            draining,
            stats: Arc::new(LiveStats::register(&registry)),
            mailboxes: Arc::new(HashSet::from(["user1".to_owned()])),
            hostname: Arc::from("sim.test"),
            dnsbl_tx: None,
            pretrust_idle_timeout: Duration::from_secs(30),
            session_deadline: Duration::from_secs(300),
            max_outq_bytes: 64 * 1024,
            write_stall_timeout: Duration::from_secs(10),
            max_connections: 512,
            max_pretrust_per_ip: 32,
            registry: Arc::clone(&registry),
            line_pool: Arc::new(BufferPool::new(&registry, 64, 4096)),
            inflight: Arc::clone(&inflight),
        };
        let mut acceptor = reactor.acceptor();
        // The sink stands in for a worker that finishes at once.
        let mut sink = |trusted| {
            inflight.dec();
            drop(trusted);
            None
        };
        time(|| run_pretrust(&mut acceptor, &mut reactor, &ctx, &mut sink))
    })
}

fn engine_probes(out: &mut Vec<Metric>) {
    out.push(Metric::new(
        "pretrust.sim_ns_per_bounce",
        "ns",
        sim_engine_ns_per_conn(
            b"HELO c.example\r\nMAIL FROM:<x@c.example>\r\nRCPT TO:<ghost@dept.example>\r\nQUIT\r\n",
        ),
    ));
    out.push(Metric::new(
        "pretrust.sim_ns_per_trusted",
        "ns",
        sim_engine_ns_per_conn(
            b"HELO c.example\r\nMAIL FROM:<x@c.example>\r\nRCPT TO:<user1@dept.example>\r\n",
        ),
    ));

    const TIMERS: u64 = 100_000;
    const MS: u64 = 1_000_000;
    out.push(Metric::new(
        "wheel.arm_cancel_ns",
        "ns",
        median_ns(TIMERS as f64, || {
            let mut wheel = TimerWheel::new(0);
            time(|| {
                for id in 0..TIMERS {
                    wheel.schedule(id, (30_000 + id % 1_000) * MS);
                    wheel.cancel(id);
                }
            })
        }),
    ));
    out.push(Metric::new(
        "wheel.advance_ns_per_timer",
        "ns",
        median_ns(TIMERS as f64, || {
            let mut wheel = TimerWheel::new(0);
            for id in 0..TIMERS {
                wheel.schedule(id, (1 + id % 10_000) * MS);
            }
            let mut fired = Vec::with_capacity(TIMERS as usize);
            let took = time(|| {
                for step in 1..=100 {
                    wheel.advance(step * 101 * MS, &mut fired);
                }
            });
            debug_assert_eq!(fired.len() as u64, TIMERS);
            took
        }),
    ));
}

fn mailbox_names(n: u32) -> Vec<String> {
    (0..n).map(|i| format!("user{i}")).collect()
}

fn mfs_probes(bodies: &Bodies, out_dir: &Path, out: &mut Vec<Metric>) -> io::Result<()> {
    let names = mailbox_names(400);
    let mut small = Vec::new();
    bodies.write_body(1, SMALL_MAIL, &mut small);
    let mut large = Vec::new();
    bodies.write_body(2, LARGE_MAIL, &mut large);
    let rcpts7 = |i: usize| -> Vec<&str> {
        (0..LARGE_RCPTS as usize)
            .map(|r| names[(i * 7 + r) % names.len()].as_str())
            .collect()
    };

    const SMALL_N: usize = 1_000;
    let deliver1 = try_median_ns(SMALL_N as f64, || {
        let dir = ScratchDir::new(out_dir, "d1")?;
        let store = verify::open(dir.path())?;
        let mut t = Instant::now();
        for i in 0..names.len() + SMALL_N {
            if i == names.len() {
                // Every mailbox file exists now: steady state from here.
                t = Instant::now();
            }
            let rcpt = [names[i % names.len()].as_str()];
            store
                .deliver(MailId(i as u64 + 1), &rcpt, DataRef::Bytes(&small))
                .map_err(store_error)?;
        }
        Ok(t.elapsed())
    })?;
    out.push(Metric::new("mfs.deliver1_ns", "ns", deliver1));

    // `rcpts7` walks all 400 mailboxes in 58 deliveries; after that every
    // recipient's files exist and a delivery costs what it costs a
    // running server.
    const WARM_N: usize = 58;
    const LARGE_N: usize = 200;
    let deliver7 = try_median_ns(LARGE_N as f64, || {
        let dir = ScratchDir::new(out_dir, "d7")?;
        let store = verify::open(dir.path())?;
        let mut t = Instant::now();
        for i in 0..WARM_N + LARGE_N {
            if i == WARM_N {
                t = Instant::now();
            }
            store
                .deliver(MailId(i as u64 + 1), &rcpts7(i), DataRef::Bytes(&large))
                .map_err(store_error)?;
        }
        Ok(t.elapsed())
    })?;
    out.push(Metric::new("mfs.deliver7_ns", "ns", deliver7));

    // The Fig. 10 baselines on the same disk, same mail, same recipients.
    const BASELINE_N: usize = 50;
    type Make = fn(RealDir) -> Box<dyn MailStore>;
    let baselines: [(&str, Make); 3] = [
        ("maildir.deliver7_ns", |b| Box::new(MaildirStore::new(b))),
        ("hardlink.deliver7_ns", |b| Box::new(HardlinkStore::new(b))),
        ("mbox.deliver7_ns", |b| Box::new(MboxStore::new(b))),
    ];
    for (name, make) in baselines {
        let value = try_median_ns(BASELINE_N as f64, || {
            let dir = ScratchDir::new(out_dir, "base")?;
            let mut store = make(RealDir::new(dir.path()).map_err(store_error)?);
            let mut t = Instant::now();
            for i in 0..WARM_N + BASELINE_N {
                if i == WARM_N {
                    t = Instant::now();
                }
                store
                    .deliver(MailId(i as u64 + 1), &rcpts7(i), DataRef::Bytes(&large))
                    .map_err(store_error)?;
            }
            Ok(t.elapsed())
        })?;
        out.push(Metric::new(name, "ns", value));
    }

    // One spool of 16 mailboxes x 250 small mails serves the read,
    // delete, replay and fsck probes.
    const BOXES: usize = 16;
    const PER_BOX: usize = 250;
    const RECORDS: usize = BOXES * PER_BOX;
    let dir = ScratchDir::new(out_dir, "read")?;
    {
        let store = verify::open(dir.path())?;
        for i in 0..RECORDS {
            let rcpt = [names[i % BOXES].as_str()];
            store
                .deliver(MailId(i as u64 + 1), &rcpt, DataRef::Bytes(&small))
                .map_err(store_error)?;
        }
    }
    let replay = try_median_ns(RECORDS as f64, || {
        let t = Instant::now();
        let store = verify::open(dir.path())?;
        let took = t.elapsed();
        drop(store);
        Ok(took)
    })?;
    out.push(Metric::new("mfs.open_replay_ns_per_record", "ns", replay));
    let fsck_ns = try_median_ns(RECORDS as f64, || {
        let backend = RealDir::new(dir.path()).map_err(store_error)?;
        let t = Instant::now();
        let (_, report) = fsck(backend).map_err(store_error)?;
        let took = t.elapsed();
        if report.is_clean() {
            Ok(took)
        } else {
            Err(io::Error::other("fsck repaired a clean spool"))
        }
    })?;
    out.push(Metric::new("mfs.fsck_ns_per_record", "ns", fsck_ns));

    let store = verify::open(dir.path())?;
    let read_mailbox = try_median_ns(RECORDS as f64, || {
        let t = Instant::now();
        for name in &names[..BOXES] {
            let mails = store.read_mailbox(name).map_err(store_error)?;
            if mails.len() != PER_BOX {
                return Err(io::Error::other(format!(
                    "{name} holds {} mails",
                    mails.len()
                )));
            }
            black_box(mails);
        }
        Ok(t.elapsed())
    })?;
    out.push(Metric::new(
        "mfs.read_mailbox_ns_per_mail",
        "ns",
        read_mailbox,
    ));
    let read_mail = try_median_ns(RECORDS as f64, || {
        let t = Instant::now();
        for i in 0..RECORDS {
            black_box(
                store
                    .read_mail(&names[i % BOXES], MailId(i as u64 + 1))
                    .map_err(store_error)?,
            );
        }
        Ok(t.elapsed())
    })?;
    out.push(Metric::new("mfs.read_mail_ns", "ns", read_mail));
    // Each repetition deletes its own fifth of the spool.
    let mut next_delete = 0usize;
    let delete = try_median_ns((RECORDS / REPS) as f64, || {
        let range = next_delete..next_delete + RECORDS / REPS;
        next_delete = range.end;
        let t = Instant::now();
        for i in range {
            store
                .delete(&names[i % BOXES], MailId(i as u64 + 1))
                .map_err(store_error)?;
        }
        Ok(t.elapsed())
    })?;
    out.push(Metric::new("mfs.delete_ns", "ns", delete));
    drop(store);

    // Exact backend operation counts of one steady-state delivery (the
    // recipients' files already exist), on a metered in-memory backend.
    let ops = |rcpts: &[&str], body: &[u8]| -> io::Result<(f64, f64)> {
        let mut store = MfsStore::new(Metered::new(MemFs::new(), DiskProfile::free()));
        store
            .nwrite(MailId(1), rcpts, DataRef::Bytes(body))
            .map_err(store_error)?;
        store.backend_mut().reset_accounting();
        store
            .nwrite(MailId(2), rcpts, DataRef::Bytes(body))
            .map_err(store_error)?;
        let c = store.backend().counts();
        let total = c.creates + c.appends + c.reads + c.links + c.deletes;
        Ok((total as f64, c.bytes_written as f64))
    };
    let (ops1, _) = ops(&[names[0].as_str()], &small)?;
    let (ops7, bytes7) = ops(&rcpts7(0), &large)?;
    out.push(Metric::new("mfs.backend_ops_per_deliver1", "count", ops1));
    out.push(Metric::new("mfs.backend_ops_per_deliver7", "count", ops7));
    out.push(Metric::new(
        "mfs.bytes_written_per_body_byte7",
        "B/B",
        bytes7 / (large.len() * LARGE_RCPTS as usize) as f64,
    ));
    Ok(())
}

fn dnsbl_probes(out: &mut Vec<Metric>) {
    let sinkhole = SinkholeConfig::scaled(0.1).generate();
    let db: BlacklistDb = sinkhole.blacklisted.iter().copied().collect();
    let server = DnsblServer::new("bl.example", db, LatencyModel::new(40.0, 0.8, 0.05));
    let day = Nanos::from_secs(86_400);
    let lookups: Vec<_> = sinkhole
        .trace
        .connections
        .iter()
        .map(|c| (c.arrival, c.client_ip))
        .collect();

    // Fig. 15 as counts: the share of lookups that had to query, per
    // caching scheme, replaying the trace in arrival order.
    for (name, scheme) in [
        ("dnsbl.query_fraction_prefix", CacheScheme::PerPrefix),
        ("dnsbl.query_fraction_ip", CacheScheme::PerIp),
    ] {
        let mut resolver = CachingResolver::new(scheme, day);
        let mut rng = det_rng(15);
        for &(at, ip) in &lookups {
            resolver.lookup(ip, at, &server, &mut rng);
        }
        out.push(Metric::new(
            name,
            "share",
            resolver.stats().query_fraction(),
        ));
    }

    // One address per distinct /25: the first pass misses every time,
    // the second hits every time.
    let mut seen = HashSet::new();
    let distinct: Vec<_> = lookups
        .iter()
        .map(|&(_, ip)| ip)
        .filter(|ip| seen.insert(ip.prefix25()))
        .collect();
    let mut miss = Vec::new();
    let mut hit = Vec::new();
    for _ in 0..REPS {
        let mut resolver = CachingResolver::new(CacheScheme::PerPrefix, day);
        let mut rng = det_rng(16);
        for (pass, samples) in [&mut miss, &mut hit].into_iter().enumerate() {
            let took = time(|| {
                for &ip in &distinct {
                    black_box(resolver.lookup(
                        ip,
                        Nanos::from_secs(pass as u64),
                        &server,
                        &mut rng,
                    ));
                }
            });
            samples.push(took.as_nanos() as f64 / distinct.len() as f64);
        }
    }
    out.push(Metric::new("dnsbl.lookup_miss_ns", "ns", median(&miss)));
    out.push(Metric::new("dnsbl.lookup_hit_ns", "ns", median(&hit)));

    // One DNSBLv6 exchange without the socket: encode the query, decode
    // it as the server would, answer, encode, decode as the client would.
    out.push(Metric::new(
        "dnsbl.wire_roundtrip_ns",
        "ns",
        median_ns(distinct.len() as f64, || {
            time(|| {
                for (n, &ip) in distinct.iter().enumerate() {
                    let name = QueryName::encode(ip, QueryScheme::PrefixV6, server.zone());
                    let wire = Message::query(n as u16, name.as_str(), RecordType::Aaaa).encode();
                    let Ok(query) = Message::decode(&wire) else {
                        continue;
                    };
                    let answers =
                        match server.answer_wire(&query.questions[0].name, QueryScheme::PrefixV6) {
                            WireAnswer::Bitmap(bytes) => vec![Answer {
                                name: query.questions[0].name.clone(),
                                rtype: RecordType::Aaaa,
                                ttl: 86_400,
                                rdata: bytes.to_vec(),
                            }],
                            _ => Vec::new(),
                        };
                    let reply = query.respond(Rcode::NoError, answers).encode();
                    black_box(Message::decode(&reply).ok());
                }
            })
        }),
    ));
}

fn metrics_probes(out: &mut Vec<Metric>) {
    const ROUNDS: u64 = 1_000_000;
    out.push(Metric::new(
        "metrics.hist_record_ns",
        "ns",
        median_ns(ROUNDS as f64, || {
            let hist = LogHistogram::new();
            time(|| {
                for v in 0..ROUNDS {
                    hist.record(black_box(v * 37));
                }
            })
        }),
    ));
    let registry = Registry::with_wall_clock();
    let span = registry.span("probe_ns");
    out.push(Metric::new(
        "metrics.span_ns",
        "ns",
        median_ns((ROUNDS / 4) as f64, || {
            time(|| {
                for _ in 0..ROUNDS / 4 {
                    drop(black_box(span.start()));
                }
            })
        }),
    ));
}
