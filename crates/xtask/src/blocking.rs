//! Blocking-reachability lint.
//!
//! The paper's §5 fork-after-trust architecture lives on two promises:
//! no session loop — the master's above all — ever blocks on a peer, and
//! no thread blocks while it holds a store partition lock. This pass
//! makes both checkable:
//!
//! 1. **Blocking leaves** are classified by token: `thread::sleep`, UDP
//!    `send_to`/`recv_from`, socket timeout configuration, channel
//!    `recv`/`recv_timeout`, no-argument `.join()`, readiness waits
//!    (`.wait(`), stream writes (`.write_all(`, `Write::write(`), and file
//!    I/O (`File::open`, `fs::*`, `sync_all`, …).
//! 2. **`blocking` (session engine)**: every thread that talks to a peer
//!    runs the connection driver ([`DRIVER_FILE`]), so the §5 promise is
//!    rooted there. From three roots — `master_loop`, every function of
//!    the driver, and the master's protocol ([`MASTER_PROTOCOL`]) — no
//!    blocking leaf may be reachable along call edges, with two pinned
//!    exceptions that must each match exactly one line: the driver's
//!    reactor wait ([`SANCTIONED_WAITS`]) and its single raw socket write
//!    ([`SANCTIONED_WRITES`]), which is only ever issued against a
//!    nonblocking fd and returns `WouldBlock` instead of stalling. Edges
//!    through a `spawn(…)` call site are cut (a spawned closure blocks its
//!    own thread), and so are the driver's calls into its `Protocol` — the
//!    call graph resolves `.line(…)` to every method of that name, and
//!    what a worker's protocol does (the store append) is that thread's
//!    business, not the driver's. The master's protocol is rooted on its
//!    own instead, and may reach nothing blocking at all.
//! 3. **`blocking` (under lock)**: sleep / network / channel / join
//!    leaves may not execute while any discovered lock class is held
//!    (from [`crate::locks`]'s held-line map). File I/O under a store
//!    lock is allowed — the append *is* the critical section.
//! 4. **`lock-io-loop`**: file-*read* I/O (direct or through callees)
//!    inside a loop, where a partition lock was already held when the
//!    loop began — the "POP3 scan holds the stripe for O(mailbox) disk
//!    reads" latency bug. Per-iteration acquire/release is fine; holding
//!    one lock across the whole scan is not.
//!
//! Waivers: `lint:allow(blocking)` / `lint:allow(lock-io-loop)`, budgeted
//! per crate in `crates/xtask/concurrency-waivers.budget`.

use crate::callgraph::{CallSite, FnId, Workspace};
use crate::findings::Finding;
use crate::locks::LockAnalysis;
use std::collections::{BTreeMap, BTreeSet};

/// Crates in blocking-lint scope. `sim` and `bench` drive simulated or
/// measurement workloads where sleeping is the point; `xtask` is the
/// analyzer itself.
pub const BLOCKING_SCOPE: &[&str] = &["core", "server", "smtp", "mfs", "dnsbl", "metrics"];

/// Files pinned into scope explicitly, so the guarantee survives even if
/// the crate-level scope above is ever narrowed (same pattern as
/// `DETERMINISM_FILES`): the DNSBL circuit breaker and the sharded store
/// are the two places a blocking call under a hold becomes a §5 collapse.
pub const BLOCKING_FILES: &[&str] = &["crates/dnsbl/src/breaker.rs", "crates/mfs/src/sharded.rs"];

/// The session engine: the one file allowed to park a thread and to
/// write to a socket.
pub const DRIVER_FILE: &str = "crates/core/src/driver.rs";

/// The receiver of the driver's calls into the `Protocol` it is generic
/// over (its only handle on one is the `proto` field); edges of call
/// sites spelled `proto.<method>(` are cut — those sites alone, not
/// whatever else shares their line.
pub const PROTOCOL_CALL: &str = "proto.";

/// The master's protocol, as `(file suffix, impl self type)`: rooted on
/// its own, it may reach no blocking leaf.
pub const MASTER_PROTOCOL: (&str, &str) = ("crates/core/src/pretrust.rs", "PreTrust");

/// Readiness waits a session loop is *allowed* to park in, as
/// `(file suffix, line substring)` pairs. A driver thread must block in
/// exactly one place — the reactor's `epoll_wait` — and these entries pin
/// that place: the driver's single `reactor.wait(…)` call and the
/// `Poller::wait` leaf it dispatches to. A `.wait(` anywhere else on the
/// path is a regression to ad-hoc blocking.
pub const SANCTIONED_WAITS: &[(&str, &str)] = &[
    ("crates/core/src/reactor/os.rs", ".wait("),
    (DRIVER_FILE, "reactor.wait("),
];

/// Socket-write sites a session loop is *allowed* to reach, as
/// `(file suffix, line substring)` pairs. The driver funnels every
/// outbound byte through its bounded `OutBuf`, whose flush bottoms out in
/// exactly one raw write against a nonblocking fd — `WouldBlock` comes
/// back as data, not as a stall. Any other write token on the path (a
/// stray `write_all`, a second raw write site) bypasses the backpressure
/// state machine and must fail the pass.
pub const SANCTIONED_WRITES: &[(&str, &str)] = &[(DRIVER_FILE, "Write::write(self, buf)")];

/// What a blocking leaf does, which decides where it is forbidden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `thread::sleep` — unconditionally blocking.
    Sleep,
    /// Network syscalls and blocking-read socket configuration.
    Net,
    /// Channel `recv`/`recv_timeout` — blocks on another thread.
    Channel,
    /// `.join()` — blocks on a whole thread's lifetime.
    Join,
    /// Readiness waits (`.wait(`) — blocking, but sanctioned at the
    /// [`SANCTIONED_WAITS`] sites where parking is the design.
    Wait,
    /// Stream writes (`.write_all(`, `Write::write(`) — blocking on a
    /// full socket buffer; sanctioned only at the [`SANCTIONED_WRITES`]
    /// nonblocking raw-write site of the session engine. Allowed under a
    /// store lock (the mfs append *is* the critical section).
    SockWrite,
    /// File reads (allowed under a store lock, but not in a held loop).
    FileRead,
    /// File writes / metadata (the store's critical sections).
    FileWrite,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Sleep => "thread::sleep",
            Kind::Net => "network I/O",
            Kind::Channel => "channel recv",
            Kind::Join => "thread join",
            Kind::Wait => "readiness wait",
            Kind::SockWrite => "stream write",
            Kind::FileRead => "file read",
            Kind::FileWrite => "file write",
        }
    }

    /// Kinds that must not run while a lock is held. File I/O is exempt:
    /// appending under the partition lock is the store's design.
    fn forbidden_under_lock(self) -> bool {
        matches!(
            self,
            Kind::Sleep | Kind::Net | Kind::Channel | Kind::Join | Kind::Wait
        )
    }
}

const NET_TOKENS: &[&str] = &[
    ".send_to(",
    ".recv_from(",
    ".set_read_timeout(",
    ".set_write_timeout(",
];
const CHANNEL_TOKENS: &[&str] = &[".recv()", ".recv_timeout("];
const WAIT_TOKENS: &[&str] = &[".wait("];
/// `Write::write_all(` is covered by neither of the others (UFCS has no
/// leading dot; `Write::write(` requires the paren right after `write`),
/// so all three spellings are listed.
const WRITE_TOKENS: &[&str] = &[".write_all(", "Write::write_all(", "Write::write("];
const FILE_READ_TOKENS: &[&str] = &[
    "File::open(",
    "fs::read",
    ".read_exact(",
    ".read_to_end(",
    ".read_dir(",
];
const FILE_WRITE_TOKENS: &[&str] = &[
    "File::create(",
    "OpenOptions::new(",
    "fs::write",
    "fs::rename",
    "fs::remove",
    "fs::create_dir",
    ".sync_all(",
    ".sync_data(",
];

/// Blocking tokens on one line of code text, with byte offsets.
fn classify_line(code: &str) -> Vec<(usize, Kind, &'static str)> {
    let mut out = Vec::new();
    let mut push_all = |tokens: &[&'static str], kind: Kind| {
        for &tok in tokens {
            let mut from = 0;
            while let Some(rel) = code[from..].find(tok) {
                let at = from + rel;
                from = at + tok.len();
                out.push((at, kind, tok));
            }
        }
    };
    push_all(NET_TOKENS, Kind::Net);
    push_all(CHANNEL_TOKENS, Kind::Channel);
    push_all(WAIT_TOKENS, Kind::Wait);
    push_all(WRITE_TOKENS, Kind::SockWrite);
    push_all(FILE_READ_TOKENS, Kind::FileRead);
    push_all(FILE_WRITE_TOKENS, Kind::FileWrite);
    // `sleep(` with a non-ident char before it (`thread::sleep(`, bare
    // `sleep(`, `.sleep(`).
    let mut from = 0;
    while let Some(rel) = code[from..].find("sleep(") {
        let at = from + rel;
        from = at + 6;
        let ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if ok {
            out.push((at, Kind::Sleep, "sleep("));
        }
    }
    // No-argument `.join()` — a thread join. (`slice.join(sep)` takes an
    // argument and never matches.)
    let mut from = 0;
    while let Some(rel) = code[from..].find(".join()") {
        let at = from + rel;
        from = at + 7;
        out.push((at, Kind::Join, ".join()"));
    }
    out.sort_by_key(|&(at, _, _)| at);
    out
}

/// Result of the pass.
pub struct BlockingAnalysis {
    /// `blocking` and `lock-io-loop` violations.
    pub findings: Vec<Finding>,
    /// Waivers consumed, keyed `<rule>/<crate>`.
    pub waivers_used: BTreeMap<String, usize>,
}

/// Runs the pass. Needs the lock analysis for held-line information.
pub fn check(ws: &Workspace, locks: &LockAnalysis) -> BlockingAnalysis {
    let mut findings = Vec::new();
    let mut waivers_used: BTreeMap<String, usize> = BTreeMap::new();

    let in_scope = |file_idx: usize| -> bool {
        BLOCKING_SCOPE.iter().any(|c| *c == ws.crates[file_idx])
            || BLOCKING_FILES
                .iter()
                .any(|f| ws.files[file_idx].path.ends_with(f))
    };

    let mut waive = |file_idx: usize, line: usize, rule: &'static str| -> bool {
        if ws.files[file_idx].waived(line, rule) {
            let key = format!("{rule}/{}", ws.crates[file_idx]);
            *waivers_used.entry(key).or_insert(0) += 1;
            true
        } else {
            false
        }
    };

    // --- Rule 1: nothing blocking reachable from the session engine. ---
    let roots: Vec<FnId> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            let path = &ws.files[f.file].path;
            !f.is_test
                && (f.name == "master_loop"
                    || path.ends_with(DRIVER_FILE)
                    || (path.ends_with(MASTER_PROTOCOL.0)
                        && f.owner.as_deref() == Some(MASTER_PROTOCOL.1)))
        })
        .map(|(id, _)| id)
        .collect();
    let came_from = reachable_no_spawn(ws, &roots);
    let mut engine_set: BTreeSet<FnId> = roots.iter().copied().collect();
    engine_set.extend(came_from.keys().copied());
    let sanctioned = |pins: &[(&str, &str)], path: &str, code: &str| {
        pins.iter()
            .any(|&(suffix, pat)| path.ends_with(suffix) && code.contains(pat))
    };
    for &f in &engine_set {
        let info = &ws.fns[f];
        if !in_scope(info.file) {
            continue;
        }
        let file = &ws.files[info.file];
        for li in info.body_start..=info.end.min(file.lines.len().saturating_sub(1)) {
            if file.in_test[li] {
                continue;
            }
            let code = &file.lines[li].code;
            for (_, kind, tok) in classify_line(code) {
                // The one sanctioned park and the one sanctioned write,
                // at their pinned sites only.
                if (kind == Kind::Wait && sanctioned(SANCTIONED_WAITS, &file.path, code))
                    || (kind == Kind::SockWrite && sanctioned(SANCTIONED_WRITES, &file.path, code))
                {
                    continue;
                }
                if waive(info.file, li, "blocking") {
                    continue;
                }
                findings.push(Finding::new(
                    &file.path,
                    li + 1,
                    "blocking",
                    format!(
                        "`{tok}` ({}) reachable from the session engine \
                         via {} — §5 requires a non-blocking master",
                        kind.label(),
                        ws.chain_to(&came_from, f),
                    ),
                ));
            }
        }
    }
    // "Exactly one": a pin that matches a second non-test line of its
    // file would sanction a site nobody reviewed.
    for &(suffix, pat) in SANCTIONED_WAITS.iter().chain(SANCTIONED_WRITES) {
        for file in ws.files.iter().filter(|f| f.path.ends_with(suffix)) {
            let sites = (0..file.lines.len())
                .filter(|&li| !file.in_test[li] && file.lines[li].code.contains(pat))
                .count();
            if sites > 1 {
                findings.push(Finding::new(
                    &file.path,
                    1,
                    "blocking",
                    format!(
                        "sanctioned site `{pat}` matches {sites} lines; it must stay the only one"
                    ),
                ));
            }
        }
    }

    // --- Rule 2: no sleep/net/channel/join while a lock is held. ---
    for (&f, lines) in &locks.held_lines {
        let info = &ws.fns[f];
        if info.is_test || !in_scope(info.file) {
            continue;
        }
        let file = &ws.files[info.file];
        for (&li, held) in lines {
            let Some(line) = file.lines.get(li) else {
                continue;
            };
            for (_, kind, tok) in classify_line(&line.code) {
                if !kind.forbidden_under_lock() {
                    continue;
                }
                if waive(info.file, li, "blocking") {
                    continue;
                }
                let held_names: Vec<&str> = held
                    .iter()
                    .map(|&c| locks.classes[c].name.as_str())
                    .collect();
                findings.push(Finding::new(
                    &file.path,
                    li + 1,
                    "blocking",
                    format!(
                        "`{tok}` ({}) while holding lock `{}` in `{}` — \
                         blocking under a hold stalls every waiter",
                        kind.label(),
                        held_names.join("`, `"),
                        info.name,
                    ),
                ));
            }
        }
    }

    // --- Rule 3: file-read I/O in a loop entered with a partition held. ---
    let does_read = transitive_read_io(ws);
    for f in 0..ws.fns.len() {
        let info = &ws.fns[f];
        if info.is_test || !in_scope(info.file) {
            continue;
        }
        let file = &ws.files[info.file];
        let Some(held_lines) = locks.held_lines.get(&f) else {
            continue;
        };
        let loops = loop_spans(ws, f);
        for li in info.body_start..=info.end.min(file.lines.len().saturating_sub(1)) {
            // Innermost loop containing this line, if any.
            let Some(&(header, _)) = loops
                .iter()
                .filter(|&&(h, e)| h < li && li <= e)
                .max_by_key(|&&(h, _)| h)
            else {
                continue;
            };
            // Partition classes already held when the loop began: held at
            // the loop header (covers entry-held and outer-scope guards,
            // but not per-iteration acquire/release inside the body).
            let held_at_header: BTreeSet<usize> = held_lines
                .get(&header)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&c| locks.classes[c].partition)
                .collect();
            if held_at_header.is_empty() {
                continue;
            }
            let line = &file.lines[li];
            let direct = classify_line(&line.code)
                .iter()
                .any(|&(_, k, _)| k == Kind::FileRead);
            let via_call = ws.calls[f]
                .iter()
                .filter(|s| s.line == li)
                .any(|s| ws.callees(s).iter().any(|&c| does_read[c]));
            if !(direct || via_call) {
                continue;
            }
            if waive(info.file, li, "lock-io-loop") {
                continue;
            }
            let names: Vec<&str> = held_at_header
                .iter()
                .map(|&c| locks.classes[c].name.as_str())
                .collect();
            findings.push(Finding::new(
                &file.path,
                li + 1,
                "lock-io-loop",
                format!(
                    "file read inside a loop entered while holding `{}` in \
                     `{}` — the scan holds the partition for O(n) disk reads",
                    names.join("`, `"),
                    info.name,
                ),
            ));
        }
    }

    BlockingAnalysis {
        findings,
        waivers_used,
    }
}

/// BFS over call edges from `roots`, cutting edges whose call site sits on
/// a `spawn(…)` line (the spawned closure runs on another thread) and the
/// driver's calls into its protocol (see the module docs).
fn reachable_no_spawn(ws: &Workspace, roots: &[FnId]) -> BTreeMap<FnId, CallSite> {
    let mut came_from = BTreeMap::new();
    let mut seen: BTreeSet<FnId> = roots.iter().copied().collect();
    let mut queue: Vec<FnId> = roots.to_vec();
    while let Some(f) = queue.pop() {
        let file = &ws.files[ws.fns[f].file];
        let in_driver = file.path.ends_with(DRIVER_FILE);
        for site in &ws.calls[f] {
            let cut = file.lines.get(site.line).is_some_and(|l| {
                let receiver = l.code.get(..site.byte).unwrap_or("");
                l.code.contains("spawn(") || (in_driver && receiver.ends_with(PROTOCOL_CALL))
            });
            if cut {
                continue;
            }
            for callee in ws.callees(site) {
                if seen.insert(callee) {
                    came_from.insert(callee, site.clone());
                    queue.push(callee);
                }
            }
        }
    }
    came_from
}

/// Per function: does it (transitively) perform file-read I/O? Fixpoint
/// over call edges, seeded by [`FILE_READ_TOKENS`]. Spawn-site edges are
/// cut here too — a read in a spawned thread is not a read in the caller.
fn transitive_read_io(ws: &Workspace) -> Vec<bool> {
    let mut does = vec![false; ws.fns.len()];
    for (f, info) in ws.fns.iter().enumerate() {
        let file = &ws.files[info.file];
        for li in info.body_start..=info.end.min(file.lines.len().saturating_sub(1)) {
            if classify_line(&file.lines[li].code)
                .iter()
                .any(|&(_, k, _)| k == Kind::FileRead)
            {
                does[f] = true;
                break;
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for f in 0..ws.fns.len() {
            if does[f] {
                continue;
            }
            let file = &ws.files[ws.fns[f].file];
            let hit = ws.calls[f].iter().any(|site| {
                let on_spawn_line = file
                    .lines
                    .get(site.line)
                    .is_some_and(|l| l.code.contains("spawn("));
                !on_spawn_line && ws.callees(site).iter().any(|&c| does[c])
            });
            if hit {
                does[f] = true;
                changed = true;
            }
        }
    }
    does
}

/// Loop spans `(header-line, end-line)` inside one function, by brace
/// tracking from `for`/`while`/`loop` tokens.
fn loop_spans(ws: &Workspace, f: FnId) -> Vec<(usize, usize)> {
    let info = &ws.fns[f];
    let file = &ws.files[info.file];
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    // Open loops: (header line, out index, depth before the loop `{`).
    let mut stack: Vec<(usize, i64)> = Vec::new();
    let mut pending: Option<usize> = None;
    for li in info.body_start..=info.end.min(file.lines.len().saturating_sub(1)) {
        let code = &file.lines[li].code;
        if ["for", "while", "loop"]
            .iter()
            .any(|kw| crate::scan::find_token(code, kw).is_some())
        {
            pending = Some(li);
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if let Some(header) = pending.take() {
                        out.push((header, li));
                        stack.push((out.len() - 1, depth));
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    while stack.last().is_some_and(|&(_, d)| d == depth) {
                        let (idx, _) = stack.pop().unwrap_or_default();
                        out[idx].1 = li;
                    }
                }
                _ => {}
            }
        }
    }
    let last = info.end.min(file.lines.len().saturating_sub(1));
    while let Some((idx, _)) = stack.pop() {
        out[idx].1 = last;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks;

    fn analyze(src: &str) -> (Workspace, BlockingAnalysis) {
        let ws = Workspace::from_sources(&[("crates/core/src/lib.rs", src)]);
        let lock = locks::check(&ws);
        let blocking = check(&ws, &lock);
        (ws, blocking)
    }

    #[test]
    fn classification_covers_all_kinds() {
        let kinds: Vec<Kind> = classify_line(
            "sock.send_to(b, a); rx.recv(); h.join(); thread::sleep(d); File::open(p);",
        )
        .iter()
        .map(|&(_, k, _)| k)
        .collect();
        assert_eq!(
            kinds,
            [
                Kind::Net,
                Kind::Channel,
                Kind::Join,
                Kind::Sleep,
                Kind::FileRead
            ]
        );
        // `slice.join(", ")` takes an argument: not a thread join.
        assert!(classify_line("v.join(\", \")").is_empty());
    }

    #[test]
    fn planted_blocking_reachable_from_master_is_found() {
        let src = "\
fn master_loop() {
    handle();
}
fn handle() {
    lookup();
}
fn lookup() {
    sock.recv_from(&mut buf);
}
";
        let (_, a) = analyze(src);
        assert!(
            a.findings.iter().any(|f| f.rule == "blocking"
                && f.message.contains("recv_from")
                && f.message.contains("master_loop → handle → lookup")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn spawned_thread_does_not_taint_the_master() {
        let src = "\
fn master_loop() {
    thread::spawn(move || worker());
}
fn worker() {
    rx.recv();
}
";
        let (_, a) = analyze(src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn sleep_under_a_lock_is_found() {
        let src = "\
struct S {
    shared: Mutex<MfsStore<B>>,
}
impl S {
    fn bad(&self) {
        let g = self.shared.lock();
        std::thread::sleep(d);
        g.done();
    }
}
";
        let (_, a) = analyze(src);
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "blocking" && f.message.contains("sleep")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn file_append_under_a_lock_is_allowed() {
        let src = "\
struct S {
    shared: Mutex<MfsStore<B>>,
}
impl S {
    fn good(&self) {
        let g = self.shared.lock();
        fs::write(path, data);
        g.done();
    }
}
";
        let (_, a) = analyze(src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn read_loop_under_partition_hold_is_found() {
        let src = "\
struct S {
    shards: Vec<Mutex<MfsStore<B>>>,
}
impl S {
    fn scan(&self) {
        for shard in &self.shards {
            let g = shard.lock();
            for e in g.entries() {
                let body = fs::read_at(path, e.offset);
                use_it(body);
            }
            drop(g);
        }
    }
}
fn use_it(b: u8) {}
";
        let (_, a) = analyze(src);
        assert!(
            a.findings.iter().any(|f| f.rule == "lock-io-loop"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn per_iteration_acquisition_is_not_a_held_loop() {
        let src = "\
struct S {
    shards: Vec<Mutex<MfsStore<B>>>,
}
impl S {
    fn scan(&self) {
        for shard in &self.shards {
            let n = shard.lock().quick_len();
            use_it(n);
        }
    }
}
fn use_it(b: u8) {}
";
        let (_, a) = analyze(src);
        assert!(
            a.findings.iter().all(|f| f.rule != "lock-io-loop"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn unsanctioned_wait_reachable_from_master_is_found() {
        let src = "\
fn master_loop() {
    helper();
}
fn helper() {
    cond.wait(guard);
}
";
        let (_, a) = analyze(src);
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "blocking" && f.message.contains("readiness wait")),
            "{:?}",
            a.findings
        );
    }

    /// Analyzes a one-file workspace that *is* the session-engine file.
    fn analyze_driver(src: &str) -> BlockingAnalysis {
        let ws = Workspace::from_sources(&[(DRIVER_FILE, src)]);
        check(&ws, &locks::check(&ws))
    }

    #[test]
    fn sanctioned_reactor_wait_in_the_driver_is_clean() {
        // Same shape as the real engine: the loop parks in
        // `reactor.wait(…)` inside driver.rs — the pinned site.
        let a = analyze_driver(
            "\
fn master_loop() {
    run_pretrust();
}
fn run_pretrust() {
    reactor.wait(timeout_ns, &mut ready);
}
",
        );
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn a_second_wait_site_in_the_driver_is_found() {
        // The pin sanctions the token, the count rule keeps it singular.
        let a = analyze_driver(
            "\
fn run() {
    reactor.wait(timeout_ns, &mut ready);
    self.reactor.wait(Some(0), &mut ready);
}
",
        );
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "blocking" && f.message.contains("matches 2 lines")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn driver_functions_are_roots_without_a_master_loop() {
        let a = analyze_driver("fn pump() {\n    thread::sleep(d);\n}\n");
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "blocking" && f.message.contains("sleep")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn protocol_calls_are_cut_but_the_master_protocol_is_rooted() {
        // The driver's `.line(…)` resolves to both impls; the edge is cut,
        // so the worker protocol's store write is its own business — but
        // the master's protocol is a root and may not sleep.
        let driver = "fn pump() {\n    self.proto.line();\n}\n";
        let worker = "\
impl Protocol for PostTrust {
    fn line(&mut self) {
        fs::write(path, data);
    }
}
";
        let master_ok = "impl Protocol for PreTrust {\n    fn line(&mut self) {}\n}\n";
        let master_bad =
            "impl Protocol for PreTrust {\n    fn line(&mut self) {\n        thread::sleep(d);\n    }\n}\n";
        let run = |master: &str| {
            let ws = Workspace::from_sources(&[
                (DRIVER_FILE, driver),
                ("crates/core/src/posttrust.rs", worker),
                (MASTER_PROTOCOL.0, master),
            ]);
            check(&ws, &locks::check(&ws)).findings
        };
        assert!(run(master_ok).is_empty(), "{:?}", run(master_ok));
        let found = run(master_bad);
        assert!(
            found.len() == 1 && found[0].message.contains("sleep"),
            "{found:?}"
        );
        // The cut is the `proto.` call site, not its line: a neighbour's
        // edge out of the driver stands.
        let ws = Workspace::from_sources(&[
            (
                DRIVER_FILE,
                "fn pump() {\n    self.proto.line(); nap();\n}\n",
            ),
            ("crates/core/src/posttrust.rs", worker),
            (
                "crates/core/src/pool.rs",
                "pub fn nap() {\n    thread::sleep(d);\n}\n",
            ),
        ]);
        let found = check(&ws, &locks::check(&ws)).findings;
        assert!(
            found.len() == 1 && found[0].message.contains("sleep"),
            "{found:?}"
        );
    }

    #[test]
    fn write_all_reachable_from_master_is_found() {
        let src = "\
fn master_loop() {
    greet();
}
fn greet(stream: &mut TcpStream) {
    stream.write_all(b\"220 ready\\r\\n\");
}
";
        let (_, a) = analyze(src);
        assert!(
            a.findings.iter().any(|f| f.rule == "blocking"
                && f.message.contains("write_all")
                && f.message.contains("stream write")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn sanctioned_outbuf_raw_write_in_the_driver_is_clean() {
        // Same shape as the real engine: the OutBuf flush bottoms out in
        // one raw nonblocking write inside driver.rs — the pinned site.
        let a = analyze_driver(
            "\
fn master_loop() {
    flush();
}
fn flush(&mut self) {
    Write::write(self, buf);
}
",
        );
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn ufcs_write_all_in_the_driver_is_found() {
        // Even in driver.rs, only the pinned raw-write line is allowed; a
        // UFCS `write_all` spelling must not slip through.
        let a = analyze_driver("fn flush() {\n    Write::write_all(stream, bytes);\n}\n");
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "blocking" && f.message.contains("write_all")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn stream_write_under_a_store_lock_is_allowed() {
        // The mfs append under the partition lock is the critical
        // section; only the master path bans write tokens.
        let src = "\
struct S {
    shared: Mutex<MfsStore<B>>,
}
impl S {
    fn append(&self) {
        let g = self.shared.lock();
        g.file.write_all(record);
        g.done();
    }
}
";
        let (_, a) = analyze(src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn wait_under_a_lock_is_found() {
        let src = "\
struct S {
    shared: Mutex<MfsStore<B>>,
}
impl S {
    fn bad(&self) {
        let g = self.shared.lock();
        reactor.wait(t, &mut out);
        g.done();
    }
}
";
        let (_, a) = analyze(src);
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "blocking" && f.message.contains("readiness wait")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn waived_line_counts_against_the_budget() {
        let src = "\
fn master_loop() {
    // lint:allow(blocking) — poll backoff, see ROADMAP item 1 (epoll).
    thread::sleep(d);
}
";
        let (_, a) = analyze(src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.waivers_used.get("blocking/core"), Some(&1));
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let ws = Workspace::from_sources(&[(
            "crates/bench/src/lib.rs",
            "fn master_loop() {\n    thread::sleep(d);\n}\n",
        )]);
        let lock = locks::check(&ws);
        let a = check(&ws, &lock);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }
}
