//! The host's speed right now, measured with a null server.
//!
//! The guest this benchmark runs on changes speed by a third for minutes
//! at a time (another tenant on the sibling hyperthread, the host moving
//! a vCPU), and every speed metric of the real server follows. The null
//! server is what the load model costs with no program under test in it:
//! echo threads on the server's CPUs, lockstep client threads on the
//! generator's, one loopback connection per session, the command
//! ping-pong of a small SMTP session and a 4 KiB body. What it does just
//! before and just after a segment says how fast the host was while the
//! segment ran, in the three ways a run is measured and with the same
//! estimators: sessions per second, the median session, and the echo
//! threads' CPU time per session.

use crate::harness::{self, CpuSplit};
use crate::stats::{percentile, quantile};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Command round trips of a reference session, before and after its body.
const ROUND_TRIPS: usize = 5;
/// Bytes of a command and of a reply.
const LINE: usize = 32;
/// Bytes of the body.
const BODY: usize = 4096;

fn read_exactly(stream: &mut TcpStream, n: usize, buf: &mut [u8]) -> io::Result<()> {
    stream.read_exact(&mut buf[..n])
}

/// A rate is measured over bins this long.
pub const RATE_BIN: Duration = Duration::from_millis(100);

/// The rate a closed loop sustains while the host lets it run: the upper
/// quartile of the rates of [`RATE_BIN`]-long bins. A vCPU the host takes
/// away for 50 ms empties a bin or two; on this guest that happens to a
/// tenth of the bins in a quiet hour and to half of them in a bad one,
/// and a mean or a median over longer slices moves with that share
/// (43 % run to run where this moved 5 %).
pub fn sustained_rate(bin_rates: &[f64]) -> f64 {
    quantile(bin_rates, 0.75)
}

/// CPU time per session while nothing is stolen: the lower quartile over
/// half-second bins (readings, for the null server). Time the host takes
/// from a running vCPU is charged to whoever ran.
pub fn undisturbed_cpu(cpu_per_session: &[f64]) -> f64 {
    quantile(cpu_per_session, 0.25)
}

/// Sessions per second in each [`RATE_BIN`] of a window `length` long,
/// from the instants (since its start) at which sessions ended.
pub fn bin_rates(ends: impl Iterator<Item = Duration>, length: Duration) -> Vec<f64> {
    let bin = RATE_BIN.as_nanos();
    let mut counts = vec![0u32; (length.as_nanos() / bin) as usize];
    for end in ends {
        if let Some(count) = counts.get_mut((end.as_nanos() / bin) as usize) {
            *count += 1;
        }
    }
    let secs = RATE_BIN.as_secs_f64();
    counts.into_iter().map(|c| f64::from(c) / secs).collect()
}

/// What the null server did in one reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Sessions per second in each [`RATE_BIN`].
    pub bin_rates: Vec<f64>,
    /// Every session, connect to last reply, in nanoseconds.
    pub session_ns: Vec<u64>,
    /// On-CPU time of the echo threads per session, in microseconds.
    pub cpu_us_per_session: f64,
}

/// A host's speed: what the null server does on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    /// Sustained sessions per second.
    pub sessions_s: f64,
    /// Median session in microseconds.
    pub session_us_p50: f64,
    /// Undisturbed CPU time per session in microseconds.
    pub cpu_us_per_session: f64,
}

/// The nominal host every metric that is a time is brought to: about what
/// the authoring host does in an ordinary hour. A rate is scaled by the
/// null server's rate, a median session by its median session, CPU time
/// (and set-up, which is CPU time) by its CPU time.
pub const NOMINAL: Host = Host {
    sessions_s: 4000.0,
    session_us_p50: 450.0,
    cpu_us_per_session: 150.0,
};

impl Host {
    /// The host as `readings` found it, all taken together.
    pub fn of(readings: &[Reading]) -> Host {
        let bins: Vec<f64> = readings.iter().flat_map(|r| r.bin_rates.clone()).collect();
        let sessions: Vec<u64> = readings.iter().flat_map(|r| r.session_ns.clone()).collect();
        let cpu: Vec<f64> = readings.iter().map(|r| r.cpu_us_per_session).collect();
        Host {
            sessions_s: sustained_rate(&bins),
            session_us_p50: percentile(&sessions, 50) as f64 / 1e3,
            cpu_us_per_session: undisturbed_cpu(&cpu),
        }
    }
}

/// Serves reference sessions until `stop`, one connection at a time, and
/// returns the nanoseconds the thread spent on a CPU.
fn echo(listener: &TcpListener, stop: &AtomicBool) -> u64 {
    let mut buf = vec![0u8; BODY];
    let reply = [b'r'; LINE];
    let (run0, _) = harness::thread_sched_ns();
    while let Ok((mut stream, _)) = listener.accept() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let mut serve = || -> io::Result<()> {
            stream.set_nodelay(true)?;
            stream.write_all(&reply)?;
            for _ in 0..ROUND_TRIPS {
                read_exactly(&mut stream, LINE, &mut buf)?;
                stream.write_all(&reply)?;
            }
            read_exactly(&mut stream, BODY, &mut buf)?;
            stream.write_all(&reply)?;
            read_exactly(&mut stream, LINE, &mut buf)?;
            stream.write_all(&reply)
        };
        // A client cut off by the deadline is not an error of the host.
        let _ = serve();
    }
    harness::thread_sched_ns().0 - run0
}

/// One reference session, as the client sees it.
fn session(addr: std::net::SocketAddr, buf: &mut [u8]) -> io::Result<()> {
    let line = [b'c'; LINE];
    let body = [b'b'; BODY];
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(crate::client::READ_TIMEOUT))?;
    read_exactly(&mut stream, LINE, buf)?;
    for _ in 0..ROUND_TRIPS {
        stream.write_all(&line)?;
        read_exactly(&mut stream, LINE, buf)?;
    }
    stream.write_all(&body)?;
    read_exactly(&mut stream, LINE, buf)?;
    stream.write_all(&line)?;
    read_exactly(&mut stream, LINE, buf)
}

/// Runs the null server for `length`, with the CPU split and the
/// connection count of a real run.
pub fn read(cpus: &CpuSplit, length: Duration) -> io::Result<Reading> {
    let threads = harness::connections();
    let listeners = (0..threads)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)))
        .collect::<io::Result<Vec<_>>>()?;
    let addrs = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<io::Result<Vec<_>>>()?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Threads keep the CPUs of the thread that spawns them.
        let servers: Vec<_> = cpus.spawn_on_server_cpus(|| {
            listeners
                .iter()
                .map(|listener| {
                    let stop = &stop;
                    scope.spawn(move || echo(listener, stop))
                })
                .collect()
        });
        let started = Instant::now();
        let clients: Vec<_> = addrs
            .iter()
            .map(|&addr| {
                // Each session as (when it ended, how long it took).
                scope.spawn(move || -> io::Result<Vec<(Duration, u64)>> {
                    let mut buf = [0u8; LINE];
                    let mut sessions = Vec::new();
                    while started.elapsed() < length {
                        let t = Instant::now();
                        session(addr, &mut buf)?;
                        sessions.push((started.elapsed(), t.elapsed().as_nanos() as u64));
                    }
                    Ok(sessions)
                })
            })
            .collect();
        let sessions: io::Result<Vec<Vec<(Duration, u64)>>> = clients
            .into_iter()
            .map(|c| c.join().expect("reference client panicked"))
            .collect();
        // Each echo thread sits in `accept`: one more connection lets it
        // see the stop flag.
        stop.store(true, Ordering::Relaxed);
        for &addr in &addrs {
            let _ = TcpStream::connect(addr);
        }
        let cpu_ns: u64 = servers
            .into_iter()
            .map(|s| s.join().expect("reference server panicked"))
            .sum();
        let sessions = sessions?.concat();
        Ok(Reading {
            bin_rates: bin_rates(sessions.iter().map(|&(end, _)| end), length),
            session_ns: sessions.iter().map(|&(_, ns)| ns).collect(),
            cpu_us_per_session: cpu_ns as f64 / 1e3 / sessions.len().max(1) as f64,
        })
    })
}
