//! End-to-end tests of the live fork-after-trust SMTP server over real
//! TCP sockets.

use spamaware_core::{LiveConfig, LiveServer, ServeError};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &LiveServer) -> Client {
        Client::connect_addr(server.local_addr())
    }

    fn connect_addr(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut greeting = String::new();
        reader.read_line(&mut greeting).expect("greeting");
        assert!(greeting.starts_with("220"), "greeting {greeting:?}");
        Client { stream, reader }
    }

    fn cmd(&mut self, line: &str) -> String {
        self.stream
            .write_all(format!("{line}\r\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        reply
    }

    fn raw(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\r\n").as_bytes())
            .expect("write");
    }
}

fn server(tag: &str, mailboxes: &[&str]) -> (LiveServer, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!(
        "spamaware-it-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let cfg = LiveConfig::localhost(&root, mailboxes.iter().map(|s| s.to_string()).collect());
    (LiveServer::start(cfg).expect("start"), root)
}

fn wait_for_mails(server: &LiveServer, n: u64) {
    for _ in 0..200 {
        if server.stats().snapshot().mails_stored >= n {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {n} stored mails");
}

#[test]
fn delivers_single_recipient_mail() {
    let (srv, root) = server("single", &["alice"]);
    let mut c = Client::connect(&srv);
    assert!(c.cmd("HELO client.example").starts_with("250"));
    assert!(c.cmd("MAIL FROM:<x@remote.example>").starts_with("250"));
    assert!(c.cmd("RCPT TO:<alice@dept.example>").starts_with("250"));
    assert!(c.cmd("DATA").starts_with("354"));
    c.raw("Subject: hi");
    c.raw("");
    c.raw("body line");
    assert!(c.cmd(".").starts_with("250"));
    assert!(c.cmd("QUIT").starts_with("221"));
    wait_for_mails(&srv, 1);
    let store = srv.store();
    let mails = store.read_mailbox("alice").expect("read");
    assert_eq!(mails.len(), 1);
    let body = String::from_utf8_lossy(&mails[0].body).into_owned();
    assert!(body.contains("body line"), "{body:?}");
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn multi_recipient_spam_stored_once() {
    let (srv, root) = server("multi", &["a", "b", "c"]);
    let mut c = Client::connect(&srv);
    c.cmd("HELO bot.example");
    c.cmd("MAIL FROM:<spam@bot.example>");
    for mb in ["a", "b", "c"] {
        assert!(c
            .cmd(&format!("RCPT TO:<{mb}@dept.example>"))
            .starts_with("250"));
    }
    assert!(c.cmd("DATA").starts_with("354"));
    c.raw("spam body");
    assert!(c.cmd(".").starts_with("250"));
    c.cmd("QUIT");
    wait_for_mails(&srv, 1);
    let store = srv.store();
    for mb in ["a", "b", "c"] {
        assert_eq!(store.read_mailbox(mb).expect("read").len(), 1, "{mb}");
    }
    let stats = store.stats();
    assert_eq!(stats.shared_mails, 1, "one shared copy");
    assert_eq!(stats.own_records, 0);
    drop(store);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn bounce_connection_never_reaches_workers() {
    let (srv, root) = server("bounce", &["alice"]);
    let mut c = Client::connect(&srv);
    c.cmd("HELO harvester.example");
    c.cmd("MAIL FROM:<>");
    assert!(c.cmd("RCPT TO:<admin@dept.example>").starts_with("550"));
    assert!(c.cmd("RCPT TO:<root@dept.example>").starts_with("550"));
    assert!(c.cmd("QUIT").starts_with("221"));
    // Master dispatched it: bounces counted, nothing delegated.
    for _ in 0..100 {
        if srv.stats().snapshot().bounces == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let snap = srv.stats().snapshot();
    assert_eq!(snap.bounces, 1);
    assert_eq!(snap.delegated, 0);
    assert_eq!(snap.mails_stored, 0);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn unfinished_connection_counted() {
    let (srv, root) = server("unfinished", &["alice"]);
    let mut c = Client::connect(&srv);
    c.cmd("HELO shy.example");
    c.cmd("QUIT");
    for _ in 0..100 {
        if srv.stats().snapshot().unfinished == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(srv.stats().snapshot().unfinished, 1);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn concurrent_clients_all_delivered() {
    let (srv, root) = server("concurrent", &["inbox"]);
    let addr = srv.local_addr();
    let n = 8;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect_addr(addr);
                c.cmd("HELO c.example");
                c.cmd(&format!("MAIL FROM:<c{i}@remote.example>"));
                assert!(c.cmd("RCPT TO:<inbox@dept.example>").starts_with("250"));
                assert!(c.cmd("DATA").starts_with("354"));
                c.raw(&format!("mail number {i}"));
                assert!(c.cmd(".").starts_with("250"));
                c.cmd("QUIT");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    wait_for_mails(&srv, n as u64);
    let store = srv.store();
    let mails = store.read_mailbox("inbox").expect("read");
    assert_eq!(mails.len(), n);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// A `ham_small`-shaped burst (one 4 KiB mail per session) must read back
/// from a running server as a distribution, not one number three times:
/// the parent's log2 buckets printed p50 = p95 = p99 = 4194303.
#[test]
fn metrics_show_distinct_ordered_pretrust_percentiles() {
    let (srv, root) = server("percentiles", &["inbox"]);
    let addr = srv.local_addr();
    let (clients, sessions) = (4, 50);
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..sessions {
                    let mut c = Client::connect_addr(addr);
                    c.cmd("HELO c.example");
                    c.cmd("MAIL FROM:<c@remote.example>");
                    assert!(c.cmd("RCPT TO:<inbox@dept.example>").starts_with("250"));
                    assert!(c.cmd("DATA").starts_with("354"));
                    for _ in 0..64 {
                        c.raw(&"x".repeat(62));
                    }
                    assert!(c.cmd(".").starts_with("250"));
                    c.cmd("QUIT");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    wait_for_mails(&srv, clients * sessions);

    let report = srv.metrics_report();
    let line = report
        .lines()
        .find(|l| l.starts_with("histogram master.pretrust_ns "))
        .unwrap_or_else(|| panic!("no pretrust line in {report}"));
    let field = |key: &str| -> u64 {
        let value = line.split(' ').find_map(|f| f.strip_prefix(key));
        value.and_then(|v| v.parse().ok()).expect(key)
    };
    assert_eq!(field("count="), clients * sessions, "{line}");
    let (p50, p99, max) = (field("p50="), field("p99="), field("max="));
    assert!(p50 < p99 && p99 <= max, "{line}");
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn mail_survives_server_restart() {
    let (srv, root) = server("restart", &["alice"]);
    let mut c = Client::connect(&srv);
    c.cmd("HELO c.example");
    c.cmd("MAIL FROM:<x@remote.example>");
    c.cmd("RCPT TO:<alice@dept.example>");
    c.cmd("DATA");
    c.raw("persistent");
    c.cmd(".");
    c.cmd("QUIT");
    wait_for_mails(&srv, 1);
    srv.shutdown();

    // A new server over the same storage root recovers the mailbox.
    let cfg = LiveConfig::localhost(&root, vec!["alice".into()]);
    let srv2 = LiveServer::start(cfg).expect("restart");
    let store = srv2.store();
    let mails = store.read_mailbox("alice").expect("read");
    assert_eq!(mails.len(), 1);
    srv2.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn oversized_line_is_rejected() {
    let (srv, root) = server("overflow", &["alice"]);
    let mut c = Client::connect(&srv);
    let huge = "X".repeat(5000);
    // The server may close (even RST, with flood bytes still unread)
    // as soon as it detects the overflow, so these writes can
    // legitimately fail mid-flood.
    let _ = c.stream.write_all(huge.as_bytes());
    let _ = c.stream.write_all(b"\r\n");
    let mut reply = String::new();
    // Server answers 500 and closes, or just closes; both are acceptable
    // overflow handling. It must not crash.
    let _ = c.reader.read_line(&mut reply);
    drop(c);
    let mut c2 = Client::connect(&srv);
    assert!(c2.cmd("HELO still.alive").starts_with("250"));
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn message_past_the_size_limit_draws_552_at_the_dot_and_the_session_goes_on() {
    let (srv, root) = server("toolarge", &["alice"]);
    let mut c = Client::connect(&srv);
    c.cmd("HELO client.example");
    c.cmd("MAIL FROM:<x@remote.example>");
    assert!(c.cmd("RCPT TO:<alice@dept.example>").starts_with("250"));
    assert!(c.cmd("DATA").starts_with("354"));
    // 12 MiB of body against the default 10 MiB limit.
    let mib =
        "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcd\r\n".repeat(16 * 1024);
    for _ in 0..12 {
        c.stream.write_all(mib.as_bytes()).expect("body");
    }
    assert!(c.cmd(".").starts_with("552"));
    // Refused, not fatal: the next transaction on the connection lands.
    assert!(c.cmd("MAIL FROM:<x@remote.example>").starts_with("250"));
    assert!(c.cmd("RCPT TO:<alice@dept.example>").starts_with("250"));
    assert!(c.cmd("DATA").starts_with("354"));
    c.raw("fits");
    assert!(c.cmd(".").starts_with("250"));
    assert!(c.cmd("QUIT").starts_with("221"));
    wait_for_mails(&srv, 1);
    let mails = srv.store().read_mailbox("alice").expect("read");
    assert_eq!(mails.len(), 1);
    assert_eq!(mails[0].body, b"fits\r\n");
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// Descriptors of this process that point into `dir`.
fn fds_under(dir: &std::path::Path) -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|e| std::fs::read_link(e.expect("entry").path()).ok())
        .filter(|target| target.starts_with(dir))
        .count()
}

#[test]
fn more_hot_mailboxes_than_handles_stay_within_the_fd_budget() {
    // 640 mailboxes written round after round: more key files than the
    // store's 9 handle tables hold (DESIGN.md §11).
    let names: Vec<String> = (0..640).map(|i| format!("user{i}")).collect();
    let (srv, root) = server(
        "fdbudget",
        &names.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let budget = 9 * spamaware_mfs::RealDir::MAX_OPEN;
    let mut sent = 0;
    for round in 0..2 {
        for group in names.chunks(8) {
            let mut c = Client::connect(&srv);
            c.cmd("HELO bot.example");
            c.cmd("MAIL FROM:<spam@bot.example>");
            for mb in group {
                assert!(c
                    .cmd(&format!("RCPT TO:<{mb}@dept.example>"))
                    .starts_with("250"));
            }
            assert!(c.cmd("DATA").starts_with("354"));
            c.raw(&format!("round {round}"));
            assert!(c.cmd(".").starts_with("250"));
            c.cmd("QUIT");
            sent += 1;
            assert!(
                fds_under(&root) <= budget,
                "{} > {budget}",
                fds_under(&root)
            );
        }
    }
    wait_for_mails(&srv, sent);
    assert!(fds_under(&root) > budget / 2, "the tables are in use");
    let store = srv.store();
    for mb in [&names[0], &names[333], &names[639]] {
        let mails = store.read_mailbox(mb).expect("read");
        let bodies: Vec<&[u8]> = mails.iter().map(|m| &m.body[..]).collect();
        assert_eq!(bodies, [&b"round 0\r\n"[..], b"round 1\r\n"], "{mb}");
    }
    drop(store);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// `FDSize` of this process's descriptor table, from `/proc/self/status`.
fn fd_table_size() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("FDSize:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("FDSize line")
}

/// A started server has grown its descriptor table to the fd budget
/// before any of its threads ran, so no later doubling stalls one of them
/// (DESIGN.md §11 *Boot*). Runs in a child of itself: the other tests of
/// this binary grow the table on their own.
#[test]
fn a_started_server_has_reserved_its_descriptor_table() {
    const CHILD: &str = "SPAMAWARE_FD_TABLE_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "--test-threads=1",
                "a_started_server_has_reserved_its_descriptor_table",
            ])
            .env(CHILD, "1")
            .output()
            .expect("run the child");
        let said = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success(), "{said}");
        assert!(said.contains("1 passed"), "the child ran no test: {said}");
        return;
    }
    let before = fd_table_size();
    assert!(before < 1024, "a fresh process has FDSize {before}");
    let (srv, root) = server("fdtable", &["inbox"]);
    assert!(fd_table_size() >= 1024, "FDSize {}", fd_table_size());
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_zeroed_limit_is_refused_and_leaves_no_thread_behind() {
    let threads = || {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    };
    type Zero = fn(&mut LiveConfig);
    let cases: [(&str, Zero); 8] = [
        ("workers", |c| c.workers = 0),
        ("worker_queue", |c| c.worker_queue = 0),
        ("max_connections", |c| c.max_connections = 0),
        ("max_pretrust_per_ip", |c| c.max_pretrust_per_ip = 0),
        ("max_outq_bytes", |c| c.max_outq_bytes = 0),
        ("session_deadline", |c| c.session_deadline = Duration::ZERO),
        ("data_deadline", |c| c.data_deadline = Duration::ZERO),
        ("write_stall_timeout", |c| {
            c.write_stall_timeout = Duration::ZERO
        }),
    ];
    let root = std::env::temp_dir().join(format!("spamaware-it-refused-{}", std::process::id()));
    for (field, zero) in cases {
        // The other tests of this binary start and stop servers meanwhile,
        // so one pair of readings can grow through no fault of the refused
        // start; a thread it left behind would make every pair grow.
        let left_nothing = (0..20).any(|_| {
            let mut cfg = LiveConfig::localhost(&root, vec!["inbox".into()]);
            zero(&mut cfg);
            let before = threads();
            let refused = LiveServer::start(cfg).err();
            assert!(
                matches!(refused, Some(ServeError::Config(_))),
                "{field} = 0: {refused:?}"
            );
            threads() <= before
        });
        assert!(left_nothing, "{field} = 0 left a thread behind");
    }
    assert!(!root.exists(), "a refused start touched the spool");
}

#[test]
fn idle_pretrust_connection_is_dropped() {
    let root = std::env::temp_dir().join(format!(
        "spamaware-idle-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let mut cfg = LiveConfig::localhost(&root, vec!["alice".into()]);
    cfg.pretrust_idle_timeout = Duration::from_millis(150);
    let srv = LiveServer::start(cfg).expect("start");

    // Connect, read the greeting, then go silent.
    let mut c = Client::connect(&srv);
    std::thread::sleep(Duration::from_millis(500));
    // The master dropped us: further reads see EOF.
    let mut line = String::new();
    let n = c.reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(n, 0, "connection should be closed, got {line:?}");
    assert_eq!(
        srv.stats().snapshot().unfinished,
        1,
        "counted as unfinished"
    );
    // The server still serves new clients.
    let mut c2 = Client::connect(&srv);
    assert!(c2.cmd("HELO fresh.example").starts_with("250"));
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn idle_eviction_boundary_activity_resets_the_clock() {
    let root = std::env::temp_dir().join(format!(
        "spamaware-idleb-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let mut cfg = LiveConfig::localhost(&root, vec!["alice".into()]);
    cfg.pretrust_idle_timeout = Duration::from_millis(600);
    let srv = LiveServer::start(cfg).expect("start");

    // Stay just under the timeout twice: each NOOP answers 250 and resets
    // the idle clock, so by the second one the connection has been open
    // longer than one whole timeout — proof the deadline is idle time,
    // not connection age.
    let mut c = Client::connect(&srv);
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(300));
        assert!(c.cmd("NOOP").starts_with("250"), "just-under must survive");
    }
    assert_eq!(srv.stats().snapshot().idle_evictions, 0);

    // Now go just over: silent past the timeout, evicted exactly once.
    std::thread::sleep(Duration::from_millis(900));
    let mut line = String::new();
    let n = c.reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(n, 0, "just-over should see EOF, got {line:?}");
    let snap = srv.stats().snapshot();
    assert_eq!(snap.idle_evictions, 1, "evicted exactly once");
    assert_eq!(snap.unfinished, 1);
    // The counter does not keep ticking for a connection already gone.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(srv.stats().snapshot().idle_evictions, 1);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
