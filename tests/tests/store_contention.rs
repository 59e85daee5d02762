//! Storage-concurrency stress: concurrent SMTP delivery and POP3
//! retrieval against the sharded store.
//!
//! The point of `ShardedStore` is that POP3 retrieval of mailbox A does
//! not serialize SMTP delivery to mailbox B. These tests hammer a live
//! server (4 SMTP workers) with concurrent writers while POP3 readers
//! poll, over both disjoint mailboxes (pure shard parallelism) and a
//! shared overlapping mailbox (single-shard serialization), and then
//! verify the ground truth: no mail lost, none duplicated.

mod common;

use common::{serve, wait_for_mails, Line};
use spamaware_core::{LiveServer, Pop3Server};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Duration;

const WORKERS: usize = 4;
const MAILS_PER_WRITER: usize = 20;

fn setup(tag: &str, mailboxes: &[&str]) -> (LiveServer, Pop3Server, std::path::PathBuf) {
    let (smtp, root) = serve(tag, mailboxes, |cfg| cfg.workers = WORKERS);
    let pop = Pop3Server::start(
        "127.0.0.1:0".parse().expect("addr"),
        smtp.store(),
        mailboxes.iter().map(|s| (*s).to_owned()).collect(),
    )
    .expect("pop3");
    (smtp, pop, root)
}

/// One connection delivering `MAILS_PER_WRITER` mails to `rcpt`, each
/// body carrying a unique marker `<tag>-<i>`.
fn write(addr: SocketAddr, rcpt: &str, tag: &str) {
    let mut c = Line::connect(addr);
    assert!(c.cmd("HELO contender.example").starts_with("250"));
    for i in 0..MAILS_PER_WRITER {
        c.deliver(&[rcpt], &format!("marker: {tag}-{i}"));
    }
    c.cmd("QUIT");
}

/// Polls a mailbox over POP3 while deliveries are in flight; retrieval
/// must keep working mid-stream (the sharded store never wedges readers).
fn pop3_poll(addr: SocketAddr, mailbox: &str, rounds: usize) {
    for _ in 0..rounds {
        let mut p = Line::connect(addr);
        for cmd in [format!("USER {mailbox}"), "PASS x".into(), "STAT".into()] {
            let reply = p.cmd(&cmd);
            assert!(reply.starts_with("+OK"), "{cmd}: {reply:?}");
        }
        p.cmd("QUIT");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Asserts a mailbox holds exactly the expected markers: nothing lost,
/// nothing duplicated.
fn assert_markers(
    store: &spamaware_core::ShardedStore<spamaware_core::RealDir>,
    mailbox: &str,
    expected: &HashSet<String>,
) {
    let mails = store.read_mailbox(mailbox).expect("read");
    let mut seen: HashSet<String> = HashSet::new();
    for m in &mails {
        let body = String::from_utf8_lossy(&m.body);
        let marker = body
            .lines()
            .find_map(|l| l.strip_prefix("marker: "))
            .unwrap_or_else(|| panic!("mail without marker in {mailbox}: {body:?}"))
            .to_owned();
        assert!(seen.insert(marker.clone()), "duplicated mail {marker}");
    }
    assert_eq!(&seen, expected, "mailbox {mailbox} lost or gained mail");
}

#[test]
fn concurrent_disjoint_mailboxes_lose_nothing() {
    let boxes = ["alpha", "bravo", "charlie", "delta"];
    let (smtp, pop, root) = setup("disjoint", &boxes);
    let addr = smtp.local_addr();
    let pop_addr = pop.local_addr();

    // One writer per mailbox (matching the 4-worker pool) plus two POP3
    // pollers reading different mailboxes the whole time.
    let writers: Vec<_> = boxes
        .into_iter()
        .map(|mb| std::thread::spawn(move || write(addr, mb, mb)))
        .collect();
    let pollers: Vec<_> = ["alpha", "charlie"]
        .into_iter()
        .map(|mb| std::thread::spawn(move || pop3_poll(pop_addr, mb, 20)))
        .collect();
    for h in writers {
        h.join().expect("writer");
    }
    for h in pollers {
        h.join().expect("poller");
    }
    wait_for_mails(&smtp, (boxes.len() * MAILS_PER_WRITER) as u64);

    let store = smtp.store();
    for mb in boxes {
        let expected: HashSet<String> =
            (0..MAILS_PER_WRITER).map(|i| format!("{mb}-{i}")).collect();
        assert_markers(&store, mb, &expected);
    }
    pop.shutdown();
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn concurrent_overlapping_mailbox_loses_nothing() {
    // Every writer targets the SAME mailbox: all deliveries serialize on
    // one shard, which must still neither lose nor duplicate mail.
    let (smtp, pop, root) = setup("overlap", &["shared", "other"]);
    let addr = smtp.local_addr();
    let pop_addr = pop.local_addr();

    let writers: Vec<_> = (0..WORKERS)
        .map(|w| std::thread::spawn(move || write(addr, "shared", &format!("w{w}"))))
        .collect();
    let pollers: Vec<_> = ["shared", "other"]
        .into_iter()
        .map(|mb| std::thread::spawn(move || pop3_poll(pop_addr, mb, 20)))
        .collect();
    for h in writers {
        h.join().expect("writer");
    }
    for h in pollers {
        h.join().expect("poller");
    }
    wait_for_mails(&smtp, (WORKERS * MAILS_PER_WRITER) as u64);

    let store = smtp.store();
    let expected: HashSet<String> = (0..WORKERS)
        .flat_map(|w| (0..MAILS_PER_WRITER).map(move |i| format!("w{w}-{i}")))
        .collect();
    assert_markers(&store, "shared", &expected);
    assert!(store.read_mailbox("other").expect("read").is_empty());
    pop.shutdown();
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
