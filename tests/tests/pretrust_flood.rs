//! The 10k-connection pre-trust flood, against real TCP.
//!
//! The deterministic siblings in `sim_engine.rs` prove the event loop's
//! *logic*; this test proves the *scale* claim behind it: one master
//! thread parked in `epoll_wait` carries ten thousand silent pre-trust
//! connections — two orders of magnitude past the old
//! sliced-read master's comfort zone — while delivery probes still get
//! served promptly straight through the standing flood.
//!
//! Ignored by default (it opens 10k real sockets across two child
//! processes); runs via `scripts/check.sh --flood` or the manual
//! `flood` job in `.github/workflows/check.yml`.

mod common;

use common::{serve, wait_for, Line};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Two holder children à 5000 sockets: 10k held connections total, split
/// so neither child outgrows a default per-process fd budget.
const HOLDERS: usize = 2;
const PER_HOLDER: usize = 5000;
const HELD: usize = HOLDERS * PER_HOLDER;
const PROBE_MAILS: usize = 16;

/// One full SMTP transaction; panics on anything but clean 250 acks (a
/// `421` here would mean the flood starved a legitimate client out).
fn deliver(addr: SocketAddr) {
    let mut c = Line::connect_within(addr, Duration::from_secs(30));
    assert!(c.greeted(), "greeting through flood: {:?}", c.first);
    assert!(c.cmd("HELO probe.example").starts_with("250"));
    c.deliver(&["inbox"], "probe body through the flood");
    let _ = c.cmd("QUIT");
}

#[test]
#[ignore = "opens 10k real sockets; run via scripts/check.sh --flood"]
fn master_carries_10k_parked_pretrust_connections_without_starving_delivery() {
    let (server, root) = serve("flood", &["inbox"], |cfg| {
        cfg.max_connections = HELD + 256;
        cfg.max_pretrust_per_ip = HELD + 256; // every holder is 127.0.0.1
        cfg.pretrust_idle_timeout = Duration::from_secs(300);
    });
    let addr = server.local_addr();

    let mut holders: Vec<Child> = (0..HOLDERS)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_flood_holder"))
                .arg(addr.to_string())
                .arg(PER_HOLDER.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn flood holder")
        })
        .collect();
    for child in &mut holders {
        let out = child.stdout.take().expect("holder stdout");
        let mut line = String::new();
        BufReader::new(out)
            .read_line(&mut line)
            .expect("holder ready");
        assert_eq!(
            line.trim(),
            format!("HELD {PER_HOLDER}"),
            "holder failed to park its share"
        );
    }
    // The greeting is written a beat before the inflight gauge ticks;
    // give the gauge a moment to account for the last connections.
    wait_for("the whole flood to be admitted", || {
        server.inflight() >= HELD as i64
    });

    // Deliver straight through the standing flood: every probe must be
    // greeted and acked — 10k parked sockets cost the master a larger
    // epoll interest set, not responsiveness.
    for _ in 0..PROBE_MAILS {
        deliver(addr);
    }
    wait_for("every probe mail to be stored", || {
        server.stats().snapshot().mails_stored >= PROBE_MAILS as u64
    });

    let snap = server.stats().snapshot();
    assert_eq!(
        snap.mails_stored, PROBE_MAILS as u64,
        "probe mail lost in flood"
    );
    assert_eq!(snap.idle_evictions, 0, "parked flood wrongly idled out");
    assert_eq!(snap.shed_connections, 0, "probe shed below the cap");
    assert_eq!(snap.overflows, 0);
    assert!(
        snap.accepted >= (HELD + PROBE_MAILS) as u64,
        "accepted {} < flood + probes",
        snap.accepted
    );

    // Release the flood: closing each holder's stdin drops its sockets.
    for child in &mut holders {
        drop(child.stdin.take());
    }
    for mut child in holders {
        let _ = child.wait();
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
