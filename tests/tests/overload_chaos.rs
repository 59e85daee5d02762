//! Overload and dependency-failure chaos tests for the live server.
//!
//! The paper's architecture argument (§5, §9) is really a robustness
//! argument: the master must stay responsive no matter what clients or
//! external dependencies do. These tests inflict the bad days — floods
//! past the connection cap, one IP hogging the pre-trust loop, a
//! blackholed or garbled DNSBL, a drain during live traffic — and assert
//! the server degrades the way DESIGN.md §13 promises: shed with `421`,
//! fail open on DNSBL trouble, never stall the accept loop, never lose an
//! acked mail. The server runs on its shipped DNSBL budget and breaker.
//! A full worker pool is `Dispatch::offer`'s unit test (`live.rs`) and
//! `sim_engine::worker_saturation_hands_back_and_sheds_with_421`.

mod common;

use common::{assert_conserved_at_quiesce, serve, wait_for, Line};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A UDP socket that answers every datagram with garbage — the
/// mis-behaving-resolver sibling of a blackhole.
struct GarbledDnsbl {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl GarbledDnsbl {
    fn start() -> GarbledDnsbl {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind garbled dnsbl");
        socket
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("sockopt");
        let addr = socket.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut buf = [0u8; 512];
                while !stop.load(Ordering::SeqCst) {
                    match socket.recv_from(&mut buf) {
                        Ok((_, peer)) => {
                            let _ = socket.send_to(b"this is not a dns message", peer);
                        }
                        Err(e)
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                        Err(_) => break,
                    }
                }
            })
        };
        GarbledDnsbl {
            addr,
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for GarbledDnsbl {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[test]
fn flood_past_connection_cap_sheds_with_421_then_recovers() {
    let (srv, root) = serve("cap", &["inbox"], |cfg| {
        cfg.max_connections = 8;
        cfg.max_pretrust_per_ip = 10_000; // everyone is 127.0.0.1 here
    });
    let addr = srv.local_addr();

    // Fill the cap with silent pre-trust connections.
    let holders: Vec<Line> = (0..8).map(|_| Line::connect(addr)).collect();
    assert!(holders.iter().all(Line::greeted), "under cap: all 220");
    wait_for("inflight to reach cap", || srv.inflight() == 8);

    // Past the cap: shed with 421, and fast — no session, no worker.
    for _ in 0..4 {
        let t0 = Instant::now();
        let c = Line::connect(addr);
        assert!(c.shed(), "over cap expected 421, got {:?}", c.first);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "shedding must be fast, took {:?}",
            t0.elapsed()
        );
    }
    let snap = srv.stats().snapshot();
    assert_eq!(snap.shed_connections, 4);
    assert_eq!(snap.accepted, 12, "shed connections still count accepted");

    // Capacity returns as soon as the holders leave.
    drop(holders);
    wait_for("inflight to drain", || srv.inflight() == 0);
    let mut c = Line::connect(addr);
    assert!(c.greeted(), "capacity recovered: {:?}", c.first);
    assert!(c.cmd("HELO late.example").starts_with("250"));
    c.deliver(&["inbox"], "post-flood mail");
    wait_for("mail stored", || srv.stats().snapshot().mails_stored == 1);

    drop(c);
    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn per_ip_pretrust_cap_sheds_the_hog_and_releases_on_trust() {
    let (srv, root) = serve("perip", &["inbox"], |cfg| {
        cfg.max_connections = 1000;
        cfg.max_pretrust_per_ip = 2;
    });
    let addr = srv.local_addr();

    // Two silent pre-trust connections from this IP fill its quota…
    let hog_a = Line::connect(addr);
    let hog_b = Line::connect(addr);
    assert!(hog_a.greeted() && hog_b.greeted());
    wait_for("hogs admitted", || srv.inflight() == 2);
    // …so the third is shed even though the server is nowhere near the
    // total cap.
    let c3 = Line::connect(addr);
    assert!(c3.shed(), "per-IP cap expected 421, got {:?}", c3.first);
    assert_eq!(srv.stats().snapshot().shed_per_ip, 1);

    // The cap counts *pre-trust* connections only: once a connection
    // earns trust and moves to a worker, the slot frees even though the
    // connection itself is still open.
    let mut hog_a = hog_a;
    assert!(hog_a.cmd("HELO one.example").starts_with("250"));
    assert!(hog_a.cmd("MAIL FROM:<x@one.example>").starts_with("250"));
    assert!(hog_a.cmd("RCPT TO:<inbox@dept.example>").starts_with("250"));
    wait_for("hog A delegated", || srv.stats().snapshot().delegated == 1);
    let c4 = Line::connect(addr);
    assert!(
        c4.greeted(),
        "slot released after delegation, got {:?}",
        c4.first
    );

    drop((hog_a, hog_b, c3, c4));
    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn blackholed_dnsbl_trips_breaker_and_mail_flows_fail_open() {
    // A bound socket that never answers: every lookup burns the shipped
    // 100 ms budget until the shipped breaker opens, after three.
    let sink = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sink");
    let sink_addr = sink.local_addr().expect("addr");

    let (srv, root) = serve("blackhole", &["inbox"], |cfg| {
        cfg.dnsbl_udp = Some((sink_addr, "bl.example".to_owned()));
    });
    let addr = srv.local_addr();

    // Every connection is greeted promptly: the lookups happen on the
    // agent thread, so not even the first three (which burn their full
    // 100 ms budget) can slow a greeting down.
    for i in 0..10 {
        let t0 = Instant::now();
        let c = Line::connect(addr);
        assert!(c.greeted(), "conn {i}: {:?}", c.first);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "conn {i} greeting took {:?}",
            t0.elapsed()
        );
    }
    // The agent drains its queue asynchronously: exactly threshold-many
    // lookups are attempted, then everything short-circuits.
    let m = srv.metrics();
    wait_for("agent to drain the lookup queue", || {
        m.counter_value("dnsbl.udp_timeouts") == Some(3)
            && m.counter_value("dnsbl.breaker_short_circuits") == Some(7)
    });
    assert_eq!(m.counter_value("dnsbl.udp_errors"), Some(0));
    assert_eq!(m.counter_value("dnsbl.breaker_opened"), Some(1));
    assert_eq!(m.gauge_value("dnsbl.breaker_state"), Some(1), "open");
    // The agent's per-verdict DNSBL cost is bounded by the budget —
    // nothing ever saw the old 3 s stall.
    let max_ns = m.histogram_max("dnsbl.agent_ns").unwrap_or(0);
    assert!(
        max_ns < 500_000_000,
        "dnsbl check exceeded its budget: {max_ns}ns"
    );

    // §9: DNSBL trouble never delays or denies mail.
    let mut c = Line::connect(addr);
    assert!(c.cmd("HELO failopen.example").starts_with("250"));
    c.deliver(&["inbox"], "delivered despite dead dnsbl");
    wait_for("mail stored", || srv.stats().snapshot().mails_stored == 1);
    assert_eq!(srv.stats().snapshot().blacklisted, 0, "fail-open verdict");

    drop(c);
    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn garbled_dnsbl_counts_errors_not_timeouts_and_trips_breaker() {
    let garbled = GarbledDnsbl::start();

    let (srv, root) = serve("garbled", &["inbox"], |cfg| {
        cfg.dnsbl_udp = Some((garbled.addr, "bl.example".to_owned()));
    });
    let addr = srv.local_addr();

    for _ in 0..6 {
        let c = Line::connect(addr);
        assert!(c.greeted());
    }
    let m = srv.metrics();
    wait_for(
        "garbage answers counted as decode errors, not timeouts",
        || m.counter_value("dnsbl.udp_errors") == Some(3),
    );
    assert_eq!(m.counter_value("dnsbl.udp_timeouts"), Some(0));
    assert_eq!(m.counter_value("dnsbl.breaker_opened"), Some(1));

    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn breaker_closes_again_when_the_dnsbl_heals() {
    // Phase 1: a blackhole on a port we control…
    let sink = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sink");
    let dnsbl_addr = sink.local_addr().expect("addr");

    let (srv, root) = serve("heal", &["inbox"], |cfg| {
        cfg.dnsbl_udp = Some((dnsbl_addr, "bl.example".to_owned()));
    });
    let addr = srv.local_addr();

    for _ in 0..3 {
        let c = Line::connect(addr);
        assert!(c.greeted());
    }
    let m = srv.metrics();
    wait_for("breaker to trip on the blackholed resolver", || {
        m.counter_value("dnsbl.breaker_opened") == Some(1)
    });
    assert_eq!(m.gauge_value("dnsbl.breaker_state"), Some(1));

    // Phase 2: …replaced by a real DNSBLv6 server on the *same* port (the
    // resolver came back). 127.0.0.1 is listed, so recovery is visible in
    // the blacklist verdicts too.
    drop(sink);
    let db: spamaware_dnsbl::BlacklistDb = [spamaware_netaddr::Ipv4::new(127, 0, 0, 1)]
        .into_iter()
        .collect();
    let real = spamaware_dnsbl::UdpDnsbl::start(dnsbl_addr, "bl.example", db)
        .expect("rebind real dnsbl on the sink's port");

    // Let the shipped open window lapse, then the next connection is the
    // probe.
    std::thread::sleep(spamaware_dnsbl::OPEN_BACKOFF + Duration::from_millis(100));
    wait_for("breaker to close after probe", || {
        let c = Line::connect(addr);
        assert!(c.greeted());
        srv.metrics().gauge_value("dnsbl.breaker_state") == Some(0)
    });
    assert!(srv.metrics().counter_value("dnsbl.breaker_closed") >= Some(1));
    wait_for("recovered lookups to flag the listed IP", || {
        srv.stats().snapshot().blacklisted >= 1
    });

    real.shutdown();
    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn graceful_drain_finishes_inflight_data_and_loses_no_acked_mail() {
    let (srv, root) = serve("drain", &["inbox"], |_| {});
    let addr = srv.local_addr();

    // Two mails fully acked before the drain.
    let mut settled = Line::connect(addr);
    assert!(settled.cmd("HELO settled.example").starts_with("250"));
    settled.deliver(&["inbox"], "acked before drain");
    settled.deliver(&["inbox"], "also acked before drain");

    // A third client is *mid-DATA* when the drain begins.
    let mut mid = Line::connect(addr);
    assert!(mid.cmd("HELO mid.example").starts_with("250"));
    assert!(mid.cmd("MAIL FROM:<x@mid.example>").starts_with("250"));
    assert!(mid.cmd("RCPT TO:<inbox@dept.example>").starts_with("250"));
    assert!(mid.cmd("DATA").starts_with("354"));
    mid.raw("the first half of a body");

    let drained = {
        let srv = &srv;
        std::thread::scope(|s| {
            let h = s.spawn(move || srv.drain(Duration::from_secs(10)));
            // The flag is set synchronously, so a new arrival is shed…
            std::thread::sleep(Duration::from_millis(100));
            let late = Line::connect(addr);
            assert!(late.shed(), "draining server said {:?}", late.first);
            // …while the in-flight DATA transfer runs to completion.
            mid.raw("and the second half");
            let ack = mid.cmd(".");
            assert!(ack.starts_with("250"), "mid-drain ack {ack:?}");
            // After the ack the worker parts with a 421 (or just closes).
            let farewell = mid.read_or_eof();
            assert!(
                farewell.is_empty() || farewell.starts_with("421"),
                "unexpected farewell {farewell:?}"
            );
            h.join().expect("drain thread")
        })
    };
    assert!(drained, "drain converged within grace");
    assert_eq!(srv.inflight(), 0);
    assert!(srv.is_draining());
    assert!(srv.stats().snapshot().shed_draining >= 1);

    // Every acked mail — including the one acked mid-drain — is on disk.
    let store = srv.store();
    let mails = store.read_mailbox("inbox").expect("read");
    assert_eq!(mails.len(), 3, "all three acked mails survived the drain");
    let all = mails
        .iter()
        .map(|m| String::from_utf8_lossy(&m.body).into_owned())
        .collect::<Vec<_>>()
        .join("\n---\n");
    assert!(all.contains("acked before drain"));
    assert!(all.contains("the second half"));
    drop(store);

    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// One delivery attempt for the capacity-flood sweep. Returns `true` once
/// the mail is acked; any `421` shed, closed connection, or read failure
/// along the way returns `false` so the caller retries — the server is
/// *supposed* to tempfail under this load, and only a reply that is
/// neither the expected code nor a tempfail is a test failure.
fn flood_attempt(addr: SocketAddr, i: u64, attempt: u64) -> bool {
    let Ok(stream) = TcpStream::connect(addr) else {
        return false;
    };
    if stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .is_err()
    {
        return false;
    }
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    };
    let mut reader = BufReader::new(stream);
    let mut step = |send: Option<String>, want: &str| -> Option<bool> {
        if let Some(line) = send {
            if writer.write_all(format!("{line}\r\n").as_bytes()).is_err() {
                return Some(false);
            }
        }
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => {
                if reply.starts_with(want) {
                    None // step succeeded, keep going
                } else if reply.starts_with("421") {
                    Some(false) // shed: retry
                } else {
                    panic!("client {i} attempt {attempt}: wanted {want}, got {reply:?}")
                }
            }
            // EOF or timeout: the server hung up on us mid-shed.
            _ => Some(false),
        }
    };
    let script = [
        (None, "220"),
        (Some(format!("HELO flood{i}.example")), "250"),
        (Some(format!("MAIL FROM:<x@flood{i}.example>")), "250"),
        (Some("RCPT TO:<inbox@dept.example>".to_owned()), "250"),
        (Some("DATA".to_owned()), "354"),
        (
            Some(format!("flood mail {i} attempt {attempt}\r\n.")),
            "250",
        ),
    ];
    for (send, want) in script {
        if let Some(done) = step(send, want) {
            return done;
        }
    }
    let _ = writer.write_all(b"QUIT\r\n");
    true
}

/// The deep sweep behind `scripts/check.sh --chaos`: a 2×-cap flood of
/// concurrent deliverers against a blackholed DNSBL. Every client retries
/// its `421`s until its mail is acked; the server must shed (never queue
/// unboundedly), keep every greeting fast, and deliver all mail.
#[test]
#[ignore = "deep chaos sweep; run via scripts/check.sh --chaos"]
fn capacity_flood_with_dead_dnsbl_delivers_everything_eventually() {
    let sink = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sink");
    let sink_addr = sink.local_addr().expect("addr");

    let (srv, root) = serve("flood", &["inbox"], |cfg| {
        cfg.max_connections = 16;
        cfg.max_pretrust_per_ip = 10_000;
        cfg.workers = 2;
        cfg.worker_queue = 4;
        cfg.dnsbl_udp = Some((sink_addr, "bl.example".to_owned()));
    });
    let addr = srv.local_addr();

    let clients = 32; // 2× the connection cap
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            std::thread::spawn(move || {
                // A `421` can land at the greeting (admission shed) or
                // right after RCPT (all worker queues full): retry the
                // whole attempt on any tempfail until the mail is acked.
                for attempt in 0..200 {
                    if flood_attempt(addr, i, attempt) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10 + (i % 7) * 5));
                }
                panic!("client {i} never got through");
            })
        })
        .collect();

    // While the flood runs, the inflight gauge must respect the cap.
    let mut max_seen = 0i64;
    for h in handles {
        while !h.is_finished() {
            max_seen = max_seen.max(srv.inflight());
            std::thread::sleep(Duration::from_millis(2));
        }
        h.join().expect("flood client");
    }
    assert!(
        max_seen <= 16,
        "admission cap violated: saw {max_seen} in flight"
    );

    wait_for("all flood mail stored", || {
        srv.stats().snapshot().mails_stored == clients
    });
    let snap = srv.stats().snapshot();
    assert_eq!(snap.mails_stored, clients, "no acked mail lost");
    assert!(
        snap.shed_connections > 0,
        "a 2x-cap flood must actually shed"
    );
    // The dead DNSBL cost each connection microseconds, not 3 s. The
    // breaker trips once the agent has burned three 100 ms budgets, which
    // a fast host's flood can finish ahead of.
    wait_for("breaker to trip on the dead resolver", || {
        srv.metrics().counter_value("dnsbl.breaker_opened") == Some(1)
    });
    let max_ns = srv.metrics().histogram_max("dnsbl.agent_ns").unwrap_or(0);
    assert!(max_ns < 500_000_000, "dnsbl stall leaked into accept path");

    let store = srv.store();
    assert_eq!(
        store.read_mailbox("inbox").expect("read").len(),
        usize::try_from(clients).expect("fits")
    );
    drop(store);
    assert_conserved_at_quiesce(&srv);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
