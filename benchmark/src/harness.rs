//! The `bench_server` child and everything read about it from outside:
//! its admin `METRICS` report, its `/proc/<pid>` accounting, and the host
//! fingerprint a result is only comparable under.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::client::READ_TIMEOUT;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI).
const TICKS_PER_SEC: u64 = 100;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

/// A running `bench_server`. Dropping it kills and reaps the child, so a
/// panic or an early return never leaves a server holding its ports.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// SMTP address.
    pub smtp: SocketAddr,
    /// POP3 address.
    pub pop3: SocketAddr,
    /// Admin address.
    pub admin: SocketAddr,
}

/// What the server printed when it exited after a drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drained {
    /// POP3 sessions served over the process's life.
    pub pop3_sessions: u64,
    /// Mails retrieved over POP3.
    pub pop3_retrieved: u64,
    /// Mails expunged over POP3.
    pub pop3_deleted: u64,
}

impl ServerProc {
    /// Starts `exe` over `spool` hosting `user0..user<mailboxes-1>` and
    /// waits for its `LISTENING` line.
    pub fn spawn(exe: &Path, spool: &Path, mailboxes: u32) -> io::Result<ServerProc> {
        let mut child = Command::new(exe)
            .arg(spool)
            .arg(mailboxes.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().ok_or_else(|| bad("no stdout"))?);
        let mut line = String::new();
        let listening = stdout.read_line(&mut line).and_then(|_| {
            let mut addrs = line
                .strip_prefix("LISTENING ")
                .unwrap_or("")
                .split_whitespace()
                .map(str::parse::<SocketAddr>);
            match (addrs.next(), addrs.next(), addrs.next()) {
                (Some(Ok(smtp)), Some(Ok(pop3)), Some(Ok(admin))) => Ok((smtp, pop3, admin)),
                _ => Err(bad(format!("bench_server said {line:?}"))),
            }
        });
        match listening {
            Ok((smtp, pop3, admin)) => Ok(ServerProc {
                child,
                stdin,
                stdout,
                smtp,
                pop3,
                admin,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn admin_command(&self, cmd: &str) -> io::Result<String> {
        let mut stream = TcpStream::connect(self.admin)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.write_all(cmd.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut text = String::new();
        stream.read_to_string(&mut text)?;
        Ok(text)
    }

    /// The admin socket's `METRICS` report, parsed.
    pub fn metrics(&self) -> io::Result<Metrics> {
        Ok(Metrics::parse(&self.admin_command("METRICS")?))
    }

    /// The error of a `/proc/<pid>` read that found no live process: a
    /// server that exits under load was killed (a signal, a file-size or
    /// memory limit), and the run cannot be carried out.
    fn gone(&self, what: &str) -> io::Error {
        bad(format!(
            "bench_server (pid {}) is gone, no {what}: killed by a signal or a resource limit?",
            self.child.id()
        ))
    }

    /// `utime + stime` of the whole process so far, in microseconds.
    pub fn cpu_us(&self) -> io::Result<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|_| self.gone("stat"))?;
        // The command name may hold spaces; fields count from its ")".
        let rest = stat.rsplit_once(')').ok_or_else(|| bad("stat"))?.1;
        let field = |n: usize| {
            rest.split_whitespace()
                .nth(n)
                .and_then(|f| f.parse::<u64>().ok())
        };
        match (field(11), field(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) * 1_000_000 / TICKS_PER_SEC),
            _ => Err(bad("stat fields")),
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn rss_peak_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|_| self.gone("status"))?;
        // A zombie keeps its status file but has no memory lines.
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| self.gone("VmHWM"))
    }

    /// Sends the admin `DRAIN`, closes the child's stdin so it finishes
    /// in-flight work and exits, and reaps it.
    pub fn drain(mut self) -> io::Result<Drained> {
        let answer = self.admin_command("DRAIN")?;
        if !answer.starts_with("OK") {
            return Err(bad(format!("DRAIN answered {answer:?}")));
        }
        drop(self.stdin.take());
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let deadline = Instant::now() + Duration::from_secs(15);
        let status = loop {
            match self.child.try_wait()? {
                Some(status) => break status,
                None if Instant::now() > deadline => return Err(bad("bench_server did not exit")),
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let field = |name: &str| {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix(name)?.strip_prefix('=')?.parse::<u64>().ok())
        };
        match (
            status.success() && line.starts_with("DRAINED clean=1"),
            field("pop3_sessions"),
            field("pop3_retrieved"),
            field("pop3_deleted"),
        ) {
            (true, Some(pop3_sessions), Some(pop3_retrieved), Some(pop3_deleted)) => Ok(Drained {
                pop3_sessions,
                pop3_retrieved,
                pop3_deleted,
            }),
            _ => Err(bad(format!("bench_server exited {status} saying {line:?}"))),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            return;
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One parsed `METRICS` report: counters and gauges by name, histograms
/// as `(count, sum)`. Bucket-edge quantiles are dropped on purpose — a
/// log2 edge says nothing a per-layer line should repeat.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Counter and gauge values.
    pub values: BTreeMap<String, i64>,
    /// Histogram `(count, sum)`.
    pub hists: BTreeMap<String, (u64, u64)>,
}

impl Metrics {
    /// Parses `Registry::render` output; unknown lines are skipped.
    pub fn parse(text: &str) -> Metrics {
        let mut m = Metrics::default();
        for line in text.lines() {
            let mut words = line.split_whitespace();
            match (words.next(), words.next()) {
                (Some("counter" | "gauge"), Some(name)) => {
                    if let Some(v) = words.next().and_then(|v| v.parse().ok()) {
                        m.values.insert(name.to_owned(), v);
                    }
                }
                (Some("histogram"), Some(name)) => {
                    let field = |key: &str| {
                        line.split_whitespace()
                            .find_map(|w| w.strip_prefix(key)?.parse::<u64>().ok())
                    };
                    if let (Some(count), Some(sum)) = (field("count="), field("sum=")) {
                        m.hists.insert(name.to_owned(), (count, sum));
                    }
                }
                _ => {}
            }
        }
        m
    }

    /// A counter or gauge; 0 when absent.
    pub fn value(&self, name: &str) -> i64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// How much counter `name` grew since `earlier`.
    pub fn delta(&self, earlier: &Metrics, name: &str) -> f64 {
        (self.value(name) - earlier.value(name)) as f64
    }

    /// `(count, sum)` of the samples histogram `name` took since
    /// `earlier`.
    pub fn hist_since(&self, earlier: &Metrics, name: &str) -> (u64, u64) {
        let (c1, s1) = self.hists.get(name).copied().unwrap_or((0, 0));
        let (c0, s0) = earlier.hists.get(name).copied().unwrap_or((0, 0));
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }
}

/// What must match before two results may be compared.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// Filesystem type the spool sits on.
    pub spool_fs: String,
    /// CPUs reserved for the server (0: nothing pinned).
    pub server_cpus: usize,
    /// Generator threads, one connection each.
    pub connections: usize,
    /// Seconds measured per run.
    pub window_s: u64,
    /// Fresh servers those seconds are spread over.
    pub segments: usize,
    /// Slices they are cut into.
    pub slices: usize,
}

impl Fingerprint {
    /// Fingerprints this host for a spool under `out_dir`.
    pub fn of_host(out_dir: &Path, window_s: u64) -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
            spool_fs: fs_type(out_dir),
            server_cpus: CpuSplit::of_host().server_cpus(),
            connections: connections(),
            window_s,
            segments: crate::run::SEGMENTS,
            slices: crate::run::SLICES,
        }
    }
}

/// CPU affinity through the two libc calls `std` does not wrap.
mod affinity {
    /// Words in a mask: room for 1024 CPUs, the size of glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// CPUs the calling thread may run on, ascending; empty if the kernel
    /// would not say.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread; the call writes at most
        // that many bytes and keeps no pointer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread (and every thread or process it later
    /// creates) to `cpus`; `false` if the kernel refused.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed, only
        // read by the call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// How the host's CPUs are split between the server and the generator.
/// A generator that shares cores with the server it measures moves every
/// number with each scheduler placement, so with two or more CPUs the
/// server gets the first half (rounded up) to itself and the generator
/// the rest. With one CPU, or where the kernel refuses, nothing is
/// pinned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuSplit {
    all: Vec<usize>,
    server: Vec<usize>,
    generator: Vec<usize>,
}

impl CpuSplit {
    /// Splits the CPUs the calling thread may use.
    pub fn of_host() -> CpuSplit {
        let all = affinity::allowed();
        let (server, generator) = if all.len() >= 2 {
            let (s, g) = all.split_at(all.len().div_ceil(2));
            (s.to_vec(), g.to_vec())
        } else {
            (Vec::new(), Vec::new())
        };
        CpuSplit {
            all,
            server,
            generator,
        }
    }

    /// CPUs reserved for the server; 0 when nothing is pinned.
    pub fn server_cpus(&self) -> usize {
        self.server.len()
    }

    /// Runs `spawn` with the calling thread on the server's CPUs, so the
    /// child inherits them, then moves the caller to the generator's.
    pub fn spawn_on_server_cpus<T>(&self, spawn: impl FnOnce() -> T) -> T {
        if self.server.is_empty() || !affinity::pin(&self.server) {
            return spawn();
        }
        let spawned = spawn();
        affinity::pin(&self.generator);
        spawned
    }

    /// Gives the calling thread every CPU back.
    pub fn release(&self) {
        if !self.all.is_empty() {
            affinity::pin(&self.all);
        }
    }
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Generator threads: `clamp(nproc, 2, 4)`. One connection ping-pong is
/// less steady than two, and more threads than cores starve the server
/// they measure.
pub fn connections() -> usize {
    nproc().clamp(2, 4)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| PathBuf::from("/"));
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut w = l.split_whitespace();
            let (_, mount, fs) = (w.next()?, w.next()?, w.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// The commit checked out at `root`, read from `.git` without running
/// git; "unknown" in a checkout that is not a repository.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    if hash.len() >= 12 {
        hash[..12].to_owned()
    } else {
        "unknown".to_owned()
    }
}

/// A directory under the benchmark's output directory that is removed
/// when dropped, whatever path the run took: spools and the layer probes'
/// scratch stores.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<out_dir>/scratch-<pid>-<tag>-<n>`, `n` counting up per
    /// process, after removing the scratch directories of processes that
    /// no longer exist: a run killed from outside cannot run its drops,
    /// and a spool is up to 2 GB.
    pub fn new(out_dir: &Path, tag: &str) -> io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(out_dir)?;
        for entry in std::fs::read_dir(out_dir)?.flatten() {
            let name = entry.file_name();
            let owner = name
                .to_str()
                .and_then(|n| n.strip_prefix("scratch-"))
                .and_then(|n| n.split('-').next());
            if owner.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir.join(format!("scratch-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Run-queue wait and on-CPU time of the calling thread so far, in
/// nanoseconds (`/proc/thread-self/schedstat`); zeros where the kernel
/// does not keep them.
pub fn thread_sched_ns() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    let run = fields.next().unwrap_or(0);
    let wait = fields.next().unwrap_or(0);
    (run, wait)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_report_parses_and_differences() {
        let before = Metrics::parse(
            "counter live.accepted 10\ngauge live.inflight 2\n\
             histogram master.pretrust_ns count=10 sum=1000 p50=127 p95=255 p99=255 max=200\n",
        );
        let after = Metrics::parse(
            "counter live.accepted 30\ngauge live.inflight -1\nnoise\n\
             histogram master.pretrust_ns count=30 sum=7000 p50=127 p95=255 p99=255 max=900\n",
        );
        assert_eq!(after.delta(&before, "live.accepted"), 20.0);
        assert_eq!(after.value("live.inflight"), -1);
        assert_eq!(after.value("absent"), 0);
        assert_eq!(after.hist_since(&before, "master.pretrust_ns"), (20, 6000));
        assert_eq!(after.hist_since(&after, "master.pretrust_ns"), (0, 0));
    }

    #[test]
    fn host_probes_answer() {
        assert!(nproc() >= 1);
        assert!((2..=4).contains(&connections()));
        assert_ne!(fs_type(Path::new("/")), "");
        assert_eq!(commit(Path::new("/nonexistent")), "unknown");
    }
}
