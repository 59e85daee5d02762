//! Slow legitimate peers beside fast ones, over real TCP.
//!
//! Ham flows are the long, slow ones; spam flows are short. A server whose
//! trusted connection owns a worker thread for life turns one trickling
//! sender into `live.shed_worker_busy` for everyone behind it — the
//! opposite of the paper's point. With every post-trust SMTP and POP3
//! session on the session engine, a slow peer costs its own connection
//! state and nothing else: these tests pin that with `workers = 1` and a
//! single POP3 thread.
//!
//! The tests count this process's threads, so they take turns.

mod common;

use common::{assert_conserved_at_quiesce, clamp_rcvbuf, serve, wait_for, Line};
use spamaware_core::Pop3Server;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A client whose every reply must come within 5 s ("reply in time").
fn greet(addr: SocketAddr) -> Line {
    let c = Line::connect_within(addr, Duration::from_secs(5));
    assert!(c.greeted(), "{:?}", c.first);
    c
}

/// One whole delivery of `body` to `inbox`, `HELO` through `QUIT`.
fn send(c: &mut Line, tag: &str, body: &str) {
    assert!(c.cmd(&format!("HELO {tag}.example")).starts_with("250"));
    c.deliver(&["inbox"], body);
    assert!(c.cmd("QUIT").starts_with("221"));
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn trickling_ham_sender_does_not_hold_up_fast_ham_on_the_only_worker() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (srv, root) = serve("ham", &["inbox"], |cfg| {
        cfg.workers = 1;
        cfg.worker_queue = 1;
    });
    let addr = srv.local_addr();

    // A earns trust, gets its 354, and then trickles: one body line now,
    // the rest only after everybody else is done.
    let mut slow = greet(addr);
    assert!(slow.cmd("HELO slow.example").starts_with("250"));
    assert!(slow.cmd("MAIL FROM:<x@slow.example>").starts_with("250"));
    assert!(slow.cmd("RCPT TO:<inbox@dept.example>").starts_with("250"));
    assert!(slow.cmd("DATA").starts_with("354"));
    slow.raw("the first line of a long, slow mail");
    wait_for("A delegated", || srv.stats().snapshot().delegated == 1);

    // B and C each complete a whole delivery on the same (only) worker
    // while A sits mid-body. Before the session engine carried post-trust
    // SMTP, B's DATA hung behind A until a timeout and C — the one queue
    // slot taken by B — was shed with 421.
    let started = Instant::now();
    for tag in ["b", "c"] {
        send(&mut greet(addr), tag, &format!("fast ham from {tag}"));
    }
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "fast ham waited on the slow sender: {:?}",
        started.elapsed()
    );
    // (`delivered` ticks once the 221 is flushed and the session retired.)
    wait_for("both fast sessions stored and retired", || {
        let snap = srv.stats().snapshot();
        snap.mails_stored == 2 && snap.delivered == 2
    });
    let snap = srv.stats().snapshot();
    assert_eq!(snap.shed_worker_busy, 0, "nobody was shed behind A");
    assert_eq!(srv.inflight(), 1, "A is still being served");

    // A was never harmed either: it finishes whenever it likes.
    slow.raw("…and its long-awaited last line");
    let ack = slow.cmd(".");
    assert!(ack.starts_with("250"), "{ack:?}");
    assert!(slow.cmd("QUIT").starts_with("221"));
    wait_for("the slow mail stored", || {
        srv.stats().snapshot().mails_stored == 3
    });
    let store = srv.store();
    let mails = store.read_mailbox("inbox").expect("read");
    assert_eq!(mails.len(), 3);
    assert!(mails
        .iter()
        .any(|m| String::from_utf8_lossy(&m.body).contains("long-awaited")));
    drop((store, slow));
    assert_conserved_at_quiesce(&srv);
    assert_eq!(srv.stats().snapshot().delivered, 3);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn frozen_retr_delays_no_other_pop3_session_and_idle_sessions_cost_no_threads() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (smtp, root) = serve("pop", &["inbox"], |_| {});
    // A long timeout: the frozen peer must stay frozen — not evicted —
    // for the whole test, so what is measured is serving *beside* it.
    let pop = Pop3Server::start_with_timeout(
        "127.0.0.1:0".parse().expect("addr"),
        smtp.store(),
        vec!["inbox".to_owned()],
        Duration::from_secs(120),
    )
    .expect("pop3");

    // One mail larger than the kernel will buffer for a peer that never
    // reads (~7.4 MiB against a ~4 MiB send-buffer ceiling).
    let mut bulk = greet(smtp.local_addr());
    let row = "X".repeat(72) + "\r\n";
    send(&mut bulk, "bulk", &(row.repeat(100_000) + "the end"));

    let frozen = TcpStream::connect(pop.local_addr()).expect("pop connect");
    clamp_rcvbuf(&frozen);
    (&frozen)
        .write_all(b"USER inbox\r\nPASS x\r\nRETR 1\r\n")
        .expect("frozen commands");
    wait_for("the frozen RETR to be in flight", || {
        pop.stats().retrieved.load(Ordering::Relaxed) == 1
    });

    // A second session is answered promptly beside the stuck download.
    let started = Instant::now();
    let mut healthy = greet(pop.local_addr());
    assert!(healthy.cmd("USER inbox").starts_with("+OK"));
    assert!(healthy.cmd("PASS x").starts_with("+OK 1"));
    assert!(healthy.cmd("STAT").starts_with("+OK 1 "));
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "STAT waited on the frozen RETR: {:?}",
        started.elapsed()
    );

    // Sixty-four idle sessions are sixty-four slots in one event loop.
    let threads = thread_count();
    let idle: Vec<Line> = (0..64).map(|_| greet(pop.local_addr())).collect();
    wait_for("every idle session admitted", || {
        pop.stats().sessions.load(Ordering::Relaxed) == 66
    });
    assert_eq!(
        thread_count(),
        threads,
        "idle POP3 sessions must not cost threads"
    );
    assert!(healthy.cmd("NOOP").starts_with("+OK"));
    assert_eq!(pop.stats().write_stall_evictions.load(Ordering::Relaxed), 0);

    drop((idle, healthy, frozen, bulk));
    pop.shutdown();
    assert_conserved_at_quiesce(&smtp);
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn pipelined_retrs_to_a_non_reading_peer_are_not_run_ahead_of_the_socket() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (smtp, root) = serve("retr-flood", &["inbox"], |_| {});
    let pop = Pop3Server::start_with_timeout(
        "127.0.0.1:0".parse().expect("addr"),
        smtp.store(),
        vec!["inbox".to_owned()],
        Duration::from_millis(1500),
    )
    .expect("pop3");

    // One 256 KiB mail, asked for two thousand times by a peer that never
    // reads: ~500 MiB of replies if every command were run.
    let mut seed = greet(smtp.local_addr());
    let row = "X".repeat(62) + "\r\n";
    send(&mut seed, "seed", &(row.repeat(4096) + "the end"));

    const ASKED: usize = 2000;
    let hostile = TcpStream::connect(pop.local_addr()).expect("pop connect");
    clamp_rcvbuf(&hostile);
    (&hostile)
        .write_all(format!("USER inbox\r\nPASS x\r\n{}", "RETR 1\r\n".repeat(ASKED)).as_bytes())
        .expect("pipelined commands");

    // The session engine runs a command only once the replies before it
    // have left for the socket, so the kernel's buffers (a few MiB at
    // most) bound how far the dialog gets — one 4 KiB read alone holds
    // 450 of these RETRs — and the peer is cut loose for making no
    // progress, not served from memory.
    wait_for("the non-reading peer to be evicted", || {
        pop.stats().write_stall_evictions.load(Ordering::Relaxed) == 1
    });
    let ran = pop.stats().retrieved.load(Ordering::Relaxed);
    assert!(
        (1..=64).contains(&ran),
        "{ran} of {ASKED} RETRs ran for a peer that read none of them"
    );

    drop((hostile, seed));
    pop.shutdown();
    assert_conserved_at_quiesce(&smtp);
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
