//! Full mail-lifecycle tests: deliver over SMTP, retrieve and delete over
//! POP3, against the same on-disk MFS store.

mod common;

use common::{serve, wait_for, Line};
use spamaware_core::{LiveServer, Pop3Server};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn setup(tag: &str) -> (LiveServer, Pop3Server, std::path::PathBuf) {
    setup_with_timeout(tag, Duration::from_secs(30))
}

fn setup_with_timeout(
    tag: &str,
    read_timeout: Duration,
) -> (LiveServer, Pop3Server, std::path::PathBuf) {
    let (smtp, root) = serve(tag, &["alice", "bob"], |_| {});
    let pop = Pop3Server::start_with_timeout(
        "127.0.0.1:0".parse().expect("addr"),
        smtp.store(),
        vec!["alice".to_owned(), "bob".to_owned()],
        read_timeout,
    )
    .expect("pop3");
    (smtp, pop, root)
}

fn smtp_deliver(addr: SocketAddr, rcpts: &[&str], body: &str) {
    let mut c = Line::connect(addr);
    c.cmd("HELO c.example");
    c.deliver(rcpts, body);
    c.cmd("QUIT");
}

fn wait_for_mails(server: &LiveServer, n: u64) {
    wait_for(&format!("{n} stored mails"), || {
        server.stats().snapshot().mails_stored >= n
    });
}

#[test]
fn smtp_to_pop3_roundtrip() {
    let (smtp, pop, root) = setup("roundtrip");
    smtp_deliver(smtp.local_addr(), &["alice"], "hello from the wire");
    wait_for_mails(&smtp, 1);

    let mut p = Line::greet(pop.local_addr());
    assert!(p.cmd("USER alice").starts_with("+OK"));
    assert!(p.cmd("PASS whatever").starts_with("+OK 1"));
    assert!(p.cmd("STAT").starts_with("+OK 1"));
    assert!(p.cmd("RETR 1").starts_with("+OK"));
    let body = p.read_multiline().join("\n");
    assert!(body.contains("hello from the wire"), "{body:?}");
    p.cmd("QUIT");
    pop.shutdown();
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn pop3_delete_decrements_shared_refcount() {
    let (smtp, pop, root) = setup("refcount");
    smtp_deliver(smtp.local_addr(), &["alice", "bob"], "shared spam");
    wait_for_mails(&smtp, 1);
    {
        let store = smtp.store();
        assert_eq!(store.stats().shared_mails, 1);
    }

    // Alice deletes her copy; the shared record must survive for Bob.
    let mut p = Line::greet(pop.local_addr());
    p.cmd("USER alice");
    p.cmd("PASS x");
    assert!(p.cmd("DELE 1").starts_with("+OK"));
    p.cmd("QUIT");
    std::thread::sleep(Duration::from_millis(100));
    {
        let store = smtp.store();
        assert_eq!(store.stats().shared_mails, 1, "bob still references it");
        assert!(store.read_mailbox("alice").expect("read").is_empty());
        assert_eq!(store.read_mailbox("bob").expect("read").len(), 1);
    }

    // Bob deletes too: the shared bytes become reclaimable.
    let mut p = Line::greet(pop.local_addr());
    p.cmd("USER bob");
    p.cmd("PASS x");
    p.cmd("DELE 1");
    p.cmd("QUIT");
    std::thread::sleep(Duration::from_millis(100));
    {
        let store = smtp.store();
        let stats = store.stats();
        assert_eq!(stats.shared_mails, 0);
        assert!(stats.freed_shared_bytes > 0);
    }
    pop.shutdown();
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn pop3_rset_unmarks_and_bad_auth_rejected() {
    let (smtp, pop, root) = setup("rset");
    smtp_deliver(smtp.local_addr(), &["alice"], "keep me");
    wait_for_mails(&smtp, 1);

    let mut p = Line::greet(pop.local_addr());
    assert!(p.cmd("USER mallory").starts_with("-ERR"));
    assert!(p.cmd("PASS x").starts_with("-ERR"));
    assert!(p.cmd("STAT").starts_with("-ERR"));
    p.cmd("USER alice");
    p.cmd("PASS x");
    p.cmd("DELE 1");
    assert!(p.cmd("RETR 1").starts_with("-ERR"), "marked mail hidden");
    assert!(p.cmd("RSET").starts_with("+OK"));
    assert!(p.cmd("RETR 1").starts_with("+OK"));
    p.read_multiline();
    p.cmd("QUIT");
    std::thread::sleep(Duration::from_millis(100));
    {
        let store = smtp.store();
        assert_eq!(store.read_mailbox("alice").expect("read").len(), 1);
    }
    pop.shutdown();
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// A peer that moves one byte just inside every read timeout passes the
/// idle and the no-progress deadlines for ever; the whole-session budget
/// of 60 read timeouts is what gives its slot back.
#[test]
fn pop3_session_budget_cuts_a_peer_that_is_never_idle() {
    let read_timeout = Duration::from_millis(100);
    let budget = read_timeout * 60;
    let (smtp, pop, root) = setup_with_timeout("budget", read_timeout);
    let mut p = Line::greet(pop.local_addr());
    let started = std::time::Instant::now();
    let mut served = 0u32;
    let cut_after = loop {
        let asked = std::time::Instant::now();
        let alive = p.stream.write_all(b"NOOP\r\n").is_ok() && p.read_or_eof().starts_with("+OK");
        if !alive {
            break started.elapsed();
        }
        served += 1;
        assert!(
            started.elapsed() < budget + Duration::from_secs(3),
            "still served {:?} into a {budget:?} budget",
            started.elapsed()
        );
        std::thread::sleep((read_timeout * 2 / 3).saturating_sub(asked.elapsed()));
    };
    let stats = pop.stats();
    assert_eq!(stats.idle_evictions.load(Ordering::Relaxed), 0);
    assert_eq!(stats.session_evictions.load(Ordering::Relaxed), 1);
    assert!(cut_after >= budget, "cut early, at {cut_after:?}");
    assert!(served >= 60, "{served} NOOPs served before the cut");
    pop.shutdown();
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// `QUIT` applies the session's `DELE`s in message order, so the same
/// session leaves the same key file — byte for byte — every run.
#[test]
fn pop3_quit_writes_its_tombstones_in_message_order() {
    let run = |tag: &str| {
        let (smtp, pop, root) = setup(tag);
        for i in 0..8 {
            smtp_deliver(smtp.local_addr(), &["alice"], &format!("mail number {i}"));
        }
        wait_for_mails(&smtp, 8);
        let mut p = Line::greet(pop.local_addr());
        p.cmd("USER alice");
        assert!(p.cmd("PASS x").starts_with("+OK 8"));
        for n in [7, 2, 5, 1, 8, 3, 6] {
            assert!(p.cmd(&format!("DELE {n}")).starts_with("+OK"));
        }
        assert!(p.cmd("QUIT").starts_with("+OK"));
        assert_eq!(pop.stats().deleted.load(Ordering::Relaxed), 7);
        pop.shutdown();
        smtp.shutdown();
        let key = std::fs::read(root.join("mfs/alice.key")).expect("alice's key file");
        let _ = std::fs::remove_dir_all(root);
        key
    };
    let (first, second) = (run("order-a"), run("order-b"));
    assert!(!first.is_empty());
    assert_eq!(first, second);
}

#[test]
fn pop3_list_and_dot_stuffing() {
    let (smtp, pop, root) = setup("list");
    smtp_deliver(smtp.local_addr(), &["alice"], "one");
    smtp_deliver(smtp.local_addr(), &["alice"], "..stuffed line");
    wait_for_mails(&smtp, 2);

    let mut p = Line::greet(pop.local_addr());
    p.cmd("USER alice");
    p.cmd("PASS x");
    assert!(p.cmd("LIST").starts_with("+OK"));
    let listing = p.read_multiline();
    assert_eq!(listing.len(), 2);
    assert!(p.cmd("RETR 2").starts_with("+OK"));
    let body = p.read_multiline().join("\n");
    // SMTP unstuffed one dot; POP3 restuffed on the wire and the client
    // (read_multiline is naive) sees the wire form.
    assert!(body.contains("stuffed line"), "{body:?}");
    p.cmd("QUIT");
    pop.shutdown();
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn live_server_queries_real_udp_dnsbl() {
    use spamaware_dnsbl::{BlacklistDb, UdpDnsbl};
    use spamaware_netaddr::Ipv4;

    // The test client connects from 127.0.0.1, so blacklist it.
    let db: BlacklistDb = [Ipv4::new(127, 0, 0, 1)].into_iter().collect();
    let dnsbl =
        UdpDnsbl::start("127.0.0.1:0".parse().expect("addr"), "bl.example", db).expect("dnsbl");

    let (smtp, root) = serve("udpbl", &["alice"], |cfg| {
        cfg.dnsbl_udp = Some((dnsbl.local_addr(), "bl.example".to_owned()));
    });

    smtp_deliver(smtp.local_addr(), &["alice"], "mail from a listed host");
    wait_for("the listed client to be flagged", || {
        smtp.stats().snapshot().blacklisted >= 1
    });
    let blacklisted = smtp.stats().snapshot().blacklisted;
    assert_eq!(
        blacklisted, 1,
        "the listed client was flagged via UDP DNSBL"
    );
    assert!(
        dnsbl
            .stats()
            .answered
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    // Second connection from the same /25 hits the bitmap cache: no new
    // DNS query.
    let before = dnsbl
        .stats()
        .answered
        .load(std::sync::atomic::Ordering::Relaxed);
    smtp_deliver(smtp.local_addr(), &["alice"], "second mail");
    std::thread::sleep(Duration::from_millis(100));
    let after = dnsbl
        .stats()
        .answered
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(after, before, "cached bitmap answered locally");

    smtp.shutdown();
    dnsbl.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_mailbox_the_store_cannot_hold_is_refused_at_start() {
    let (smtp, root) = serve("pop3-refused", &["alice"], |_| {});
    for name in ["shmailbox", "", "a/b"] {
        let refused = Pop3Server::start(
            "127.0.0.1:0".parse().expect("addr"),
            smtp.store(),
            vec!["alice".to_owned(), name.to_owned()],
        )
        .err();
        assert!(
            matches!(refused, Some(spamaware_core::ServeError::Config(_))),
            "{name:?}: {refused:?}"
        );
    }
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
