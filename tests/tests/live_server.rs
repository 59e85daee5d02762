//! End-to-end tests of the live fork-after-trust SMTP server over real
//! TCP sockets.

mod common;

use common::{serve, spool, wait_for, wait_for_mails, Line};
use spamaware_core::{LiveConfig, LiveServer, ServeError};
use std::io::Write;
use std::time::Duration;

#[test]
fn delivers_single_recipient_mail() {
    let (srv, root) = serve("single", &["alice"], |_| {});
    let mut c = Line::greet(srv.local_addr());
    assert!(c.cmd("HELO client.example").starts_with("250"));
    c.deliver(&["alice"], "Subject: hi\r\n\r\nbody line");
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
    let (srv, root) = serve("multi", &["a", "b", "c"], |_| {});
    let mut c = Line::greet(srv.local_addr());
    c.cmd("HELO bot.example");
    c.deliver(&["a", "b", "c"], "spam body");
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
    let (srv, root) = serve("bounce", &["alice"], |_| {});
    let mut c = Line::greet(srv.local_addr());
    c.cmd("HELO harvester.example");
    c.cmd("MAIL FROM:<>");
    assert!(c.cmd("RCPT TO:<admin@dept.example>").starts_with("550"));
    assert!(c.cmd("RCPT TO:<root@dept.example>").starts_with("550"));
    assert!(c.cmd("QUIT").starts_with("221"));
    // Master dispatched it: bounces counted, nothing delegated.
    wait_for("the bounce to be counted", || {
        srv.stats().snapshot().bounces == 1
    });
    let snap = srv.stats().snapshot();
    assert_eq!(snap.bounces, 1);
    assert_eq!(snap.delegated, 0);
    assert_eq!(snap.mails_stored, 0);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn unfinished_connection_counted() {
    let (srv, root) = serve("unfinished", &["alice"], |_| {});
    let mut c = Line::greet(srv.local_addr());
    c.cmd("HELO shy.example");
    c.cmd("QUIT");
    wait_for("the unfinished session to be counted", || {
        srv.stats().snapshot().unfinished == 1
    });
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn concurrent_clients_all_delivered() {
    let (srv, root) = serve("concurrent", &["inbox"], |_| {});
    let addr = srv.local_addr();
    let n = 8;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Line::greet(addr);
                c.cmd("HELO c.example");
                c.deliver(&["inbox"], &format!("mail number {i}"));
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
    let (srv, root) = serve("percentiles", &["inbox"], |_| {});
    let addr = srv.local_addr();
    let (clients, sessions) = (4, 50);
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let body = vec!["x".repeat(62); 64].join("\r\n");
                for _ in 0..sessions {
                    let mut c = Line::greet(addr);
                    c.cmd("HELO c.example");
                    c.deliver(&["inbox"], &body);
                    c.cmd("QUIT");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    wait_for_mails(&srv, clients * sessions);

    let report = srv.metrics().render();
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
    let (srv, root) = serve("restart", &["alice"], |_| {});
    let mut c = Line::greet(srv.local_addr());
    c.cmd("HELO c.example");
    c.deliver(&["alice"], "persistent");
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
    let (srv, root) = serve("overflow", &["alice"], |_| {});
    let mut c = Line::greet(srv.local_addr());
    let huge = "X".repeat(5000);
    // The server may close (even RST, with flood bytes still unread)
    // as soon as it detects the overflow, so these writes can
    // legitimately fail mid-flood.
    let _ = c.stream.write_all(huge.as_bytes());
    let _ = c.stream.write_all(b"\r\n");
    // Server answers 500 and closes, or just closes; both are acceptable
    // overflow handling. It must not crash.
    let _ = c.read_or_eof();
    drop(c);
    let mut c2 = Line::greet(srv.local_addr());
    assert!(c2.cmd("HELO still.alive").starts_with("250"));
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn message_past_the_size_limit_draws_552_at_the_dot_and_the_session_goes_on() {
    let (srv, root) = serve("toolarge", &["alice"], |_| {});
    let mut c = Line::greet(srv.local_addr());
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
    c.deliver(&["alice"], "fits");
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
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let (srv, root) = serve("fdbudget", &names, |_| {});
    let budget = 9 * spamaware_mfs::RealDir::MAX_OPEN;
    let mut sent = 0;
    for round in 0..2 {
        for group in names.chunks(8) {
            let mut c = Line::greet(srv.local_addr());
            c.cmd("HELO bot.example");
            c.deliver(group, &format!("round {round}"));
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
    for mb in [names[0], names[333], names[639]] {
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
    let (srv, root) = serve("fdtable", &["inbox"], |_| {});
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
    let cases: [(&str, Zero); 7] = [
        ("workers", |c| c.workers = 0),
        ("worker_queue", |c| c.worker_queue = 0),
        ("max_connections", |c| c.max_connections = 0),
        ("max_pretrust_per_ip", |c| c.max_pretrust_per_ip = 0),
        ("max_outq_bytes", |c| c.max_outq_bytes = 0),
        ("write_stall_timeout", |c| {
            c.write_stall_timeout = Duration::ZERO
        }),
        // The shared log's own name: every mail to it would draw a 451.
        ("mailboxes", |c| c.mailboxes.push("shmailbox".into())),
    ];
    let root = spool("refused");
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
                "{field}: {refused:?}"
            );
            threads() <= before
        });
        assert!(left_nothing, "refused {field} left a thread behind");
    }
    assert!(!root.exists(), "a refused start touched the spool");
}

#[test]
fn idle_pretrust_connection_is_dropped() {
    let (srv, root) = serve("idle", &["alice"], |cfg| {
        cfg.pretrust_idle_timeout = Duration::from_millis(150);
    });

    // Connect, read the greeting, then go silent.
    let mut c = Line::greet(srv.local_addr());
    std::thread::sleep(Duration::from_millis(500));
    // The master dropped us: further reads see EOF.
    let line = c.read_or_eof();
    assert!(line.is_empty(), "connection should be closed, got {line:?}");
    assert_eq!(
        srv.stats().snapshot().unfinished,
        1,
        "counted as unfinished"
    );
    // The server still serves new clients.
    let mut c2 = Line::greet(srv.local_addr());
    assert!(c2.cmd("HELO fresh.example").starts_with("250"));
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn idle_eviction_boundary_activity_resets_the_clock() {
    let (srv, root) = serve("idleb", &["alice"], |cfg| {
        cfg.pretrust_idle_timeout = Duration::from_millis(600);
    });

    // Stay just under the timeout twice: each NOOP answers 250 and resets
    // the idle clock, so by the second one the connection has been open
    // longer than one whole timeout — proof the deadline is idle time,
    // not connection age.
    let mut c = Line::greet(srv.local_addr());
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(300));
        assert!(c.cmd("NOOP").starts_with("250"), "just-under must survive");
    }
    assert_eq!(srv.stats().snapshot().idle_evictions, 0);

    // Now go just over: silent past the timeout, evicted exactly once.
    std::thread::sleep(Duration::from_millis(900));
    let line = c.read_or_eof();
    assert!(line.is_empty(), "just-over should see EOF, got {line:?}");
    let snap = srv.stats().snapshot();
    assert_eq!(snap.idle_evictions, 1, "evicted exactly once");
    assert_eq!(snap.unfinished, 1);
    // The counter does not keep ticking for a connection already gone.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(srv.stats().snapshot().idle_evictions, 1);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
