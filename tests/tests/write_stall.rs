//! Write-stall chaos against real TCP: peers that send but never read.
//!
//! The deterministic siblings in `crates/core/tests/sim_engine.rs` prove
//! the backpressure *logic* on scripted write windows; these tests prove
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

use common::clamp_rcvbuf;
use spamaware_core::{LiveConfig, LiveServer, Pop3Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Unparsable three-byte command: the ~38-byte `501` reply amplifies a
/// non-reading peer's input into >10× that much queued output.
const AMPLIFIER: &str = "a\r\n";

fn temp_root(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "spamaware-stall-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("epoch")
            .as_nanos()
    ))
}

/// One full SMTP transaction; panics on anything but clean 250 acks (a
/// stalled-peer storm must never degrade a legitimate client to `421`).
fn deliver(addr: SocketAddr) {
    let stream = TcpStream::connect(addr).expect("probe connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("probe timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = stream;
    fn cmd(out: &mut TcpStream, reader: &mut BufReader<TcpStream>, verb: &str) -> String {
        out.write_all(verb.as_bytes()).expect("probe write");
        out.write_all(b"\r\n").expect("probe write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("probe reply");
        line
    }
    let mut line = String::new();
    reader.read_line(&mut line).expect("greeting");
    assert!(line.starts_with("220"), "greeting through storm: {line:?}");
    assert!(cmd(&mut out, &mut reader, "HELO probe.example").starts_with("250"));
    assert!(cmd(&mut out, &mut reader, "MAIL FROM:<x@client.example>").starts_with("250"));
    assert!(cmd(&mut out, &mut reader, "RCPT TO:<inbox@dept.example>").starts_with("250"));
    assert!(cmd(&mut out, &mut reader, "DATA").starts_with("354"));
    out.write_all(b"probe body through the storm\r\n")
        .expect("probe body");
    let ack = cmd(&mut out, &mut reader, ".");
    assert!(ack.starts_with("250"), "ack: {ack:?}");
    let _ = cmd(&mut out, &mut reader, "QUIT");
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

fn poll_counter(server: &LiveServer, name: &str, at_least: u64, budget: Duration) -> u64 {
    let deadline = Instant::now() + budget;
    loop {
        let v = server.metrics().counter_value(name).unwrap_or(0);
        if v >= at_least || Instant::now() >= deadline {
            return v;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn stalled_smtp_writer_is_evicted_while_delivery_flows() {
    let root = temp_root("fast");
    let mut cfg = LiveConfig::localhost(&root, vec!["inbox".to_owned()]);
    // A tight cap so the test's single peer overflows quickly: the
    // kernel's own buffers absorb the first few hundred KiB, the OutBuf
    // the next 4 KiB, and then the eviction must fire.
    cfg.max_outq_bytes = 4 * 1024;
    cfg.write_stall_timeout = Duration::from_millis(500);
    let server = LiveServer::start(cfg).expect("start server");
    let addr = server.local_addr();

    // ~1 MiB of unparsable commands → ~14 MiB of replies the peer never
    // reads: past the ~4 MiB the kernel send buffer can autotune to,
    // plus the 4 KiB cap.
    let peer = stalled_peer(addr, 1024 * 1024);

    let evicted = poll_counter(
        &server,
        "master.evicted_slow_writers",
        1,
        Duration::from_secs(30),
    );
    assert!(evicted >= 1, "stalled writer never evicted");
    assert!(
        server
            .metrics()
            .counter_value("master.write_stalls")
            .unwrap_or(0)
            >= 1,
        "the stall was counted before the eviction"
    );

    // The master is still serving: a normal client delivers immediately.
    deliver(addr);
    for _ in 0..1000 {
        if server.stats().snapshot().mails_stored >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
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
    let root = temp_root("retr");
    let mailboxes = vec!["alice".to_owned()];
    let smtp = LiveServer::start(LiveConfig::localhost(&root, mailboxes.clone())).expect("smtp");
    let pop = Pop3Server::start_with_timeout(
        "127.0.0.1:0".parse().expect("addr"),
        smtp.store(),
        mailboxes,
        Duration::from_secs(1),
    )
    .expect("pop3");

    // One large mail: the RETR body must outgrow the kernel's socket
    // buffers so the flush actually blocks on the frozen peer.
    {
        let stream = TcpStream::connect(smtp.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut out = stream;
        let mut line = String::new();
        reader.read_line(&mut line).expect("greeting");
        for verb in [
            "HELO bulk.example",
            "MAIL FROM:<bulk@client.example>",
            "RCPT TO:<alice@dept.example>",
            "DATA",
        ] {
            out.write_all(verb.as_bytes()).expect("write");
            out.write_all(b"\r\n").expect("write");
            line.clear();
            reader.read_line(&mut line).expect("reply");
        }
        let row = "X".repeat(72) + "\r\n";
        // ~7.4 MiB: the RETR flush must outgrow the ~4 MiB the kernel
        // send buffer can autotune to before the bounded writer blocks.
        let body = row.repeat(100_000);
        out.write_all(body.as_bytes()).expect("body");
        out.write_all(b".\r\n").expect("dot");
        line.clear();
        reader.read_line(&mut line).expect("ack");
        assert!(line.starts_with("250"), "bulk mail ack: {line:?}");
    }
    for _ in 0..1000 {
        if smtp.stats().snapshot().mails_stored >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // The frozen peer: logs in, asks for the mail, reads nothing.
    let frozen = TcpStream::connect(pop.local_addr()).expect("pop connect");
    clamp_rcvbuf(&frozen);
    let mut fout = frozen.try_clone().expect("clone");
    fout.write_all(b"USER alice\r\nPASS x\r\nRETR 1\r\n")
        .expect("frozen commands");

    // The bounded writer abandons the flush after its 1 s budget instead
    // of pinning the session thread on a peer that reads nothing.
    let deadline = Instant::now() + Duration::from_secs(30);
    while pop
        .stats()
        .write_stall_evictions
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        pop.stats()
            .write_stall_evictions
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "frozen RETR peer was not cut loose"
    );

    // A healthy client retrieves the same mail right afterwards.
    let healthy = TcpStream::connect(pop.local_addr()).expect("pop connect");
    healthy
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(healthy.try_clone().expect("clone"));
    let mut hout = healthy;
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    hout.write_all(b"USER alice\r\nPASS x\r\nRETR 1\r\n")
        .expect("healthy commands");
    let mut body_bytes = 0usize;
    let mut replies = 0;
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("line") == 0 {
            panic!("peer hung up mid-RETR");
        }
        if replies < 3 {
            assert!(line.starts_with("+OK"), "{line:?}");
            replies += 1;
            continue;
        }
        if line.trim_end() == "." {
            break;
        }
        body_bytes += line.trim_end().len();
    }
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

    let root = temp_root("storm");
    let mailboxes = vec!["inbox".to_owned(), "alice".to_owned()];
    let mut cfg = LiveConfig::localhost(&root, mailboxes.clone());
    cfg.max_pretrust_per_ip = STALLED + 64; // every peer is 127.0.0.1
    cfg.pretrust_idle_timeout = Duration::from_secs(300);
    cfg.session_deadline = Duration::from_secs(600);
    cfg.max_outq_bytes = 16 * 1024;
    cfg.write_stall_timeout = Duration::from_secs(60);
    let server = LiveServer::start(cfg).expect("start server");
    let addr = server.local_addr();
    let pop = Pop3Server::start_with_timeout(
        "127.0.0.1:0".parse().expect("addr"),
        smtp_store(&server),
        mailboxes,
        Duration::from_secs(2),
    )
    .expect("pop3");

    // Seed one large mail for the frozen RETR.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut out = stream;
        let mut line = String::new();
        reader.read_line(&mut line).expect("greeting");
        for verb in [
            "HELO bulk.example",
            "MAIL FROM:<bulk@client.example>",
            "RCPT TO:<alice@dept.example>",
            "DATA",
        ] {
            out.write_all(verb.as_bytes()).expect("write");
            out.write_all(b"\r\n").expect("write");
            line.clear();
            reader.read_line(&mut line).expect("reply");
        }
        let row = "X".repeat(72) + "\r\n";
        out.write_all(row.repeat(100_000).as_bytes()).expect("body");
        out.write_all(b".\r\n").expect("dot");
        line.clear();
        reader.read_line(&mut line).expect("ack");
        assert!(line.starts_with("250"), "{line:?}");
    }

    // 100 peers blasting amplifier commands from their own threads, each
    // holding its socket (and its unread replies) until the end.
    let handles: Vec<std::thread::JoinHandle<TcpStream>> = (0..STALLED)
        .map(|_| std::thread::spawn(move || stalled_peer(addr, 1024 * 1024)))
        .collect();

    // Every peer must register a stall (and, pushing far past the 16 KiB
    // cap, an eviction) — while they stack up, the master stays live.
    let stalls = poll_counter(
        &server,
        "master.write_stalls",
        STALLED as u64,
        Duration::from_secs(60),
    );
    assert!(stalls >= STALLED as u64, "only {stalls} write stalls");

    // Freeze a POP3 download mid-body at the same time.
    let frozen = TcpStream::connect(pop.local_addr()).expect("pop connect");
    clamp_rcvbuf(&frozen);
    let mut fout = frozen.try_clone().expect("clone");
    fout.write_all(b"USER alice\r\nPASS x\r\nRETR 1\r\n")
        .expect("frozen commands");

    // Full goodput through the storm: every probe greeted and acked.
    for _ in 0..PROBE_MAILS {
        deliver(addr);
    }
    for _ in 0..2000 {
        if server.stats().snapshot().mails_stored > PROBE_MAILS as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = server.stats().snapshot();
    assert_eq!(
        snap.mails_stored,
        1 + PROBE_MAILS as u64,
        "probe mail lost in the storm"
    );
    assert_eq!(snap.shed_connections, 0, "probe shed below the cap");

    let evicted = poll_counter(
        &server,
        "master.evicted_slow_writers",
        STALLED as u64,
        Duration::from_secs(60),
    );
    assert!(
        evicted >= STALLED as u64,
        "only {evicted} slow-writer evictions"
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while pop
        .stats()
        .write_stall_evictions
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        pop.stats()
            .write_stall_evictions
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "frozen RETR peer not cut loose during the storm"
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

fn smtp_store(
    server: &LiveServer,
) -> std::sync::Arc<spamaware_core::ShardedStore<spamaware_core::RealDir>> {
    server.store()
}
