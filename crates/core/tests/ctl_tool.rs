//! End-to-end test of the `spamawarectl` admin binary against a store
//! written by the live SMTP server.

// A test client blocks on its own thread; crates/core/clippy.toml is
// about the server's.
#![allow(clippy::disallowed_methods)]

use spamaware_core::{LiveConfig, LiveServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::Command as Proc;
use std::time::Duration;

fn ctl(args: &[&str]) -> (String, bool) {
    let exe = env!("CARGO_BIN_EXE_spamawarectl");
    let out = Proc::new(exe).args(args).output().expect("run ctl");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

#[test]
fn ctl_inspects_compacts_and_deletes() {
    let root = std::env::temp_dir().join(format!(
        "spamaware-ctl-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    // Populate via the live server.
    let srv = LiveServer::start(LiveConfig::localhost(
        &root,
        vec!["alice".into(), "bob".into()],
    ))
    .expect("start");
    {
        let stream = TcpStream::connect(srv.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        let mut line = String::new();
        reader.read_line(&mut line).expect("greeting");
        for cmd in [
            "HELO c.example",
            "MAIL FROM:<x@remote.example>",
            "RCPT TO:<alice@dept.example>",
            "RCPT TO:<bob@dept.example>",
            "DATA",
        ] {
            stream
                .write_all(format!("{cmd}\r\n").as_bytes())
                .expect("w");
            line.clear();
            reader.read_line(&mut line).expect("r");
        }
        stream
            .write_all(b"ctl test body\r\n.\r\nQUIT\r\n")
            .expect("w");
        line.clear();
        reader.read_line(&mut line).expect("r");
    }
    for _ in 0..200 {
        if srv.stats().snapshot().mails_stored >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    srv.shutdown();

    let rootstr = root.to_string_lossy().into_owned();
    let (stats, ok) = ctl(&["stats", &rootstr]);
    assert!(ok, "{stats}");
    assert!(stats.contains("shared mails:        1"), "{stats}");

    let (listing, ok) = ctl(&["list", &rootstr, "alice"]);
    assert!(ok && listing.contains("1 mail(s)"), "{listing}");

    let (body, ok) = ctl(&["cat", &rootstr, "alice", "1"]);
    assert!(ok && body.contains("ctl test body"), "{body}");

    let (del, ok) = ctl(&["delete", &rootstr, "alice", "1"]);
    assert!(ok, "{del}");
    let (del2, ok) = ctl(&["delete", &rootstr, "bob", "1"]);
    assert!(ok, "{del2}");

    let (compact, ok) = ctl(&["compact", &rootstr]);
    assert!(ok, "{compact}");
    assert!(compact.contains("reclaimed"), "{compact}");

    // A healthy spool audits clean.
    let (fsck_out, ok) = ctl(&["fsck", &rootstr]);
    assert!(ok, "{fsck_out}");
    assert_eq!(fsck_out, "mfsck: clean\n");

    // Errors are reported with a failing exit code.
    let (_, ok) = ctl(&["cat", &rootstr, "alice", "1"]);
    assert!(!ok, "cat of deleted mail must fail");
    let (_, ok) = ctl(&["bogus"]);
    assert!(!ok);

    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn ctl_trace_stats_roundtrip() {
    let trace = spamaware_trace::bounce_sweep_trace(3, 200, 0.25, 50);
    let path =
        std::env::temp_dir().join(format!("spamaware-ctl-trace-{}.json", std::process::id()));
    trace.save_file(&path).expect("save");
    let (out, ok) = ctl(&["trace-stats", &path.to_string_lossy()]);
    assert!(ok, "{out}");
    assert!(out.contains("Number of connections:      200"), "{out}");
    let _ = std::fs::remove_file(path);
}
