//! Write-stall chaos against real TCP: peers that send but never read.
//!
//! The deterministic siblings in `sim_engine.rs` prove the backpressure
//! *logic* on scripted write windows; these tests prove
//! it against real kernel socket buffers. A peer that pipelines commands
//! without draining replies fills the server-side send buffer, the
//! master's per-connection `OutBuf` absorbs the spill up to its cap, and
//! the peer is evicted (`master.evicted_slow_writers`) — all while
//! delivery probes keep flowing through the same single-threaded event
//! loop. The POP3 side gets the same treatment: a client frozen
//! mid-`RETR` is cut loose by the no-progress deadline
//! (`pop3.write_stall_evictions`) without holding up any other session.
//!
//! The 100-peer storm is ignored by default; it runs via
//! `scripts/check.sh --stall` or the manual `stall` job in
//! `.github/workflows/check.yml`.

mod common;

use common::{clamp_rcvbuf, serve, wait_for, Line};
use spamaware_core::{LiveServer, Pop3Server};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Unparsable three-byte command: the ~38-byte `501` reply amplifies a
/// non-reading peer's input into >10× that much queued output.
const AMPLIFIER: &str = "a\r\n";

/// One full SMTP transaction; panics on anything but clean 250 acks (a
/// stalled-peer storm must never degrade a legitimate client to `421`).
fn deliver(addr: SocketAddr, rcpt: &str, body: &str) {
    let mut c = Line::connect_within(addr, Duration::from_secs(30));
    assert!(c.greeted(), "greeting through storm: {:?}", c.first);
    assert!(c.cmd("HELO probe.example").starts_with("250"));
    c.deliver(&[rcpt], body);
    let _ = c.cmd("QUIT");
}

/// The one large mail a frozen `RETR` waits on: ~7.4 MiB, past the
/// ~4 MiB the kernel send buffer can autotune to, so the flush blocks.
fn bulk_body() -> String {
    vec!["X".repeat(72); 100_000].join("\r\n")
}

fn counter(server: &LiveServer, name: &str) -> u64 {
    server.metrics().counter_value(name).unwrap_or(0)
}

/// Connects one non-reading peer and blasts amplifier commands until the
/// server gives up on it (eviction closes the socket, so a write soon
/// errors) or `max_bytes` have been sent. Returns the socket so the
/// caller controls when the peer's receive buffer is finally released.
fn stalled_peer(addr: SocketAddr, max_bytes: usize) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("stall connect");
    clamp_rcvbuf(&stream);
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .expect("stall write timeout");
    let mut out = stream.try_clone().expect("clone");
    let burst: Vec<u8> = AMPLIFIER.as_bytes().repeat(1024);
    let mut sent = 0;
    while sent < max_bytes {
        match out.write(&burst) {
            Ok(0) | Err(_) => break,
            Ok(n) => sent += n,
        }
    }
    stream
}

#[test]
fn stalled_smtp_writer_is_evicted_while_delivery_flows() {
    let (server, root) = serve("fast", &["inbox"], |cfg| {
        // A tight cap so the test's single peer overflows quickly: the
        // kernel's own buffers absorb the first few hundred KiB, the
        // OutBuf the next 4 KiB, and then the eviction must fire.
        cfg.max_outq_bytes = 4 * 1024;
        cfg.write_stall_timeout = Duration::from_millis(500);
    });
    let addr = server.local_addr();

    // ~1 MiB of unparsable commands → ~14 MiB of replies the peer never
    // reads: past the ~4 MiB the kernel send buffer can autotune to,
    // plus the 4 KiB cap.
    let peer = stalled_peer(addr, 1024 * 1024);

    wait_for("the stalled writer to be evicted", || {
        counter(&server, "master.evicted_slow_writers") >= 1
    });
    assert!(
        counter(&server, "master.write_stalls") >= 1,
        "the stall was counted before the eviction"
    );

    // The master is still serving: a normal client delivers immediately.
    deliver(addr, "inbox", "probe body through the storm");
    wait_for("the probe mail to be stored", || {
        server.stats().snapshot().mails_stored >= 1
    });
    assert_eq!(server.stats().snapshot().mails_stored, 1);
    assert_eq!(
        server.metrics().gauge_value("master.outq_bytes"),
        Some(0),
        "eviction reconciled the outq gauge"
    );

    drop(peer);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn frozen_retr_peer_is_cut_loose_by_the_bounded_writer() {
    let (smtp, root) = serve("retr", &["alice"], |_| {});
    let pop = Pop3Server::start_with_timeout(
        "127.0.0.1:0".parse().expect("addr"),
        smtp.store(),
        vec!["alice".to_owned()],
        Duration::from_secs(1),
    )
    .expect("pop3");

    // One large mail: the RETR body must outgrow the kernel's socket
    // buffers so the flush actually blocks on the frozen peer.
    deliver(smtp.local_addr(), "alice", &bulk_body());
    wait_for("the bulk mail to be stored", || {
        smtp.stats().snapshot().mails_stored >= 1
    });

    // The frozen peer: logs in, asks for the mail, reads nothing.
    let frozen = TcpStream::connect(pop.local_addr()).expect("pop connect");
    clamp_rcvbuf(&frozen);
    let mut fout = frozen.try_clone().expect("clone");
    fout.write_all(b"USER alice\r\nPASS x\r\nRETR 1\r\n")
        .expect("frozen commands");

    // The bounded writer abandons the flush after its 1 s budget instead
    // of pinning the session thread on a peer that reads nothing.
    let stall_evictions = || {
        pop.stats()
            .write_stall_evictions
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    wait_for("the frozen RETR peer to be cut loose", || {
        stall_evictions() > 0
    });
    assert_eq!(stall_evictions(), 1, "frozen RETR peer was not cut loose");

    // A healthy client retrieves the same mail right afterwards.
    let mut healthy = Line::connect_within(pop.local_addr(), Duration::from_secs(30));
    healthy.raw("USER alice\r\nPASS x\r\nRETR 1");
    for _ in 0..3 {
        let reply = healthy.read_line();
        assert!(reply.starts_with("+OK"), "{reply:?}");
    }
    let body_bytes: usize = healthy.read_multiline().iter().map(String::len).sum();
    assert_eq!(body_bytes, 72 * 100_000, "healthy RETR body complete");

    drop(frozen);
    pop.shutdown();
    smtp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The full storm: 100 non-reading SMTP peers all stalled at once plus a
/// POP3 peer frozen mid-`RETR`, while a batch of delivery probes runs
/// straight through at full goodput.
#[test]
#[ignore = "opens a 100-peer write-stall storm; run via scripts/check.sh --stall"]
fn master_serves_probes_through_a_100_peer_write_stall_storm() {
    const STALLED: usize = 100;
    const PROBE_MAILS: usize = 16;

    let (server, root) = serve("storm", &["inbox", "alice"], |cfg| {
        cfg.max_pretrust_per_ip = STALLED + 64; // every peer is 127.0.0.1
        cfg.pretrust_idle_timeout = Duration::from_secs(300);
        cfg.session_deadline = Duration::from_secs(600);
        cfg.max_outq_bytes = 16 * 1024;
        cfg.write_stall_timeout = Duration::from_secs(60);
    });
    let addr = server.local_addr();
    let pop = Pop3Server::start_with_timeout(
        "127.0.0.1:0".parse().expect("addr"),
        server.store(),
        vec!["inbox".to_owned(), "alice".to_owned()],
        Duration::from_secs(2),
    )
    .expect("pop3");

    // Seed one large mail for the frozen RETR.
    deliver(addr, "alice", &bulk_body());

    // 100 peers blasting amplifier commands from their own threads, each
    // holding its socket (and its unread replies) until the end.
    let handles: Vec<std::thread::JoinHandle<TcpStream>> = (0..STALLED)
        .map(|_| std::thread::spawn(move || stalled_peer(addr, 1024 * 1024)))
        .collect();

    // Every peer must register a stall (and, pushing far past the 16 KiB
    // cap, an eviction) — while they stack up, the master stays live.
    wait_for("every peer's write stall", || {
        counter(&server, "master.write_stalls") >= STALLED as u64
    });

    // Freeze a POP3 download mid-body at the same time.
    let frozen = TcpStream::connect(pop.local_addr()).expect("pop connect");
    clamp_rcvbuf(&frozen);
    let mut fout = frozen.try_clone().expect("clone");
    fout.write_all(b"USER alice\r\nPASS x\r\nRETR 1\r\n")
        .expect("frozen commands");

    // Full goodput through the storm: every probe greeted and acked.
    for _ in 0..PROBE_MAILS {
        deliver(addr, "inbox", "probe body through the storm");
    }
    wait_for("every probe mail to be stored", || {
        server.stats().snapshot().mails_stored > PROBE_MAILS as u64
    });
    let snap = server.stats().snapshot();
    assert_eq!(
        snap.mails_stored,
        1 + PROBE_MAILS as u64,
        "probe mail lost in the storm"
    );
    assert_eq!(snap.shed_connections, 0, "probe shed below the cap");

    wait_for("every stalled peer's eviction", || {
        counter(&server, "master.evicted_slow_writers") >= STALLED as u64
    });
    wait_for(
        "the frozen RETR peer to be cut loose during the storm",
        || {
            pop.stats()
                .write_stall_evictions
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        },
    );

    let peers: Vec<TcpStream> = handles
        .into_iter()
        .map(|h| h.join().expect("stall thread"))
        .collect();
    drop(peers);
    drop(frozen);
    pop.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
