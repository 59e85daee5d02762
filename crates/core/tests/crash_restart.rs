//! Graceful-restart torture: a real `spamawarectl serve` process is
//! SIGKILLed mid-DATA and the surviving spool must contain exactly the
//! accepted mail — nothing acknowledged is lost, nothing unacknowledged
//! appears — and a restarted server on the same root must keep serving.
//!
//! This is the process-level end of the crash-consistency story; the
//! byte-level end (every possible torn write) is swept exhaustively by
//! `spamaware-mfs`'s `crash_sweep` test.

#![cfg(unix)]
// A test client blocks on its own thread; crates/core/clippy.toml is
// about the server's.
#![allow(clippy::disallowed_methods)]

#[path = "../../../tests/tests/common/mod.rs"]
mod common;

use common::{spool, wait_for, Line};
use spamaware_core::{fsck, MailStore, RealDir};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// A `spamawarectl serve` child process, killed on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    admin: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    fn spawn(root: &PathBuf) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spamawarectl"))
            .arg("serve")
            .arg(root)
            .arg("alice,bob")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn spamawarectl serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read LISTENING line");
        let addr = line
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected serve banner {line:?}"))
            .trim()
            .parse()
            .expect("LISTENING address");
        line.clear();
        stdout.read_line(&mut line).expect("read ADMIN line");
        let admin = line
            .strip_prefix("ADMIN ")
            .unwrap_or_else(|| panic!("unexpected admin banner {line:?}"))
            .trim()
            .to_owned();
        Server {
            child,
            addr,
            admin,
            stdout,
        }
    }

    /// The banner is printed after bind, so the port is live already.
    fn connect(&self) -> Line {
        Line::greet(self.addr)
    }

    /// SIGKILL — no shutdown hooks, no flushes: the power-cut analogue.
    fn kill(mut self) {
        self.child.kill().expect("kill");
        self.child.wait().expect("wait");
    }

    /// Graceful drain via the admin socket: sends `DRAIN`, then waits for
    /// the process to finish in-flight work, print `DRAINED`, and exit 0.
    fn drain(mut self) {
        let admin = TcpStream::connect(&self.admin).expect("connect admin");
        let mut admin = admin;
        admin.write_all(b"DRAIN\n").expect("send DRAIN");
        let mut reply = String::new();
        BufReader::new(admin)
            .read_line(&mut reply)
            .expect("drain reply");
        assert!(reply.starts_with("OK draining"), "admin said {reply:?}");
        let mut status = None;
        wait_for("the drained server to exit", || {
            status = self.child.try_wait().expect("try_wait");
            status.is_some()
        });
        let status = status.expect("exited");
        assert!(status.success(), "drained server exits 0, got {status}");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).expect("rest of stdout");
        assert!(
            rest.lines().any(|l| l.trim() == "DRAINED"),
            "expected DRAINED banner, got {rest:?}"
        );
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn sigkill_mid_data_loses_no_acked_mail_and_invents_none() {
    let root = spool("crash-middata");

    // Phase 1: accept two mails, then die mid-DATA of a third.
    let server = Server::spawn(&root);
    let mut c = server.connect();
    assert!(c.cmd("HELO client.example").starts_with("250"));
    c.deliver(&["alice"], "first accepted mail");
    c.deliver(&["alice"], "second accepted mail");
    assert!(c.cmd("MAIL FROM:<x@client.example>").starts_with("250"));
    assert!(c.cmd("RCPT TO:<alice@dept.example>").starts_with("250"));
    assert!(c.cmd("DATA").starts_with("354"));
    c.stream
        .write_all(b"a third mail the server will never finish rea")
        .expect("partial body");
    server.kill();

    // Phase 2: repair and audit the surviving spool. The acknowledged
    // mails are intact; the aborted third never made it to storage.
    let backend = RealDir::new(&root).expect("reopen root");
    let (mut store, report) = fsck(backend).expect("fsck");
    let mails = store.read_mailbox("alice").expect("read alice");
    assert_eq!(mails.len(), 2, "exactly the acked mails; report:\n{report}");
    let text = |i: usize| String::from_utf8_lossy(&mails[i].body).into_owned();
    assert!(text(0).contains("first accepted mail"), "{:?}", text(0));
    assert!(text(1).contains("second accepted mail"), "{:?}", text(1));
    assert!(
        !text(0).contains("third") && !text(1).contains("third"),
        "unacked mail must not appear"
    );
    drop(store);

    // Phase 3: a restarted server on the same root serves new mail.
    let server = Server::spawn(&root);
    let mut c = server.connect();
    assert!(c.cmd("HELO client.example").starts_with("250"));
    c.deliver(&["alice"], "post-restart mail");
    assert!(c.cmd("QUIT").starts_with("221"));
    server.kill();

    let backend = RealDir::new(&root).expect("reopen root");
    let (mut store, report) = fsck(backend).expect("fsck after restart");
    assert!(
        report.is_clean(),
        "quiescent kill leaves a clean store:\n{report}"
    );
    let mails = store.read_mailbox("alice").expect("read alice");
    assert_eq!(mails.len(), 3);
    assert!(
        String::from_utf8_lossy(&mails[2].body).contains("post-restart mail"),
        "restarted server stores new mail"
    );
    drop(store);

    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn graceful_drain_loses_no_acked_mail_and_exits_clean() {
    let root = spool("crash-drain");

    // Deliver acked mail, leave the (delegated, in-worker) connection
    // open, then drain: the sibling of the SIGKILL test above, proving
    // the *clean* shutdown path also loses nothing — and, unlike a kill,
    // leaves a spool that needs no repairs at all.
    let server = Server::spawn(&root);
    let mut c = server.connect();
    assert!(c.cmd("HELO client.example").starts_with("250"));
    c.deliver(&["alice"], "acked before drain one");
    c.deliver(&["bob"], "acked before drain two");
    server.drain();

    // The idle delegated connection was told to come back later (421) —
    // or the socket was torn down with the process; either way no hang.
    let farewell = c.read_or_eof();
    assert!(
        farewell.is_empty() || farewell.starts_with("421"),
        "drained server said {farewell:?}"
    );

    // The spool is clean — zero fsck repairs, unlike the SIGKILL path —
    // and holds exactly the acked mail.
    let backend = RealDir::new(&root).expect("reopen root");
    let (mut store, report) = fsck(backend).expect("fsck after drain");
    assert!(report.is_clean(), "drain leaves a clean store:\n{report}");
    let alice = store.read_mailbox("alice").expect("read alice");
    let bob = store.read_mailbox("bob").expect("read bob");
    assert_eq!((alice.len(), bob.len()), (1, 1));
    assert!(String::from_utf8_lossy(&alice[0].body).contains("acked before drain one"));
    assert!(String::from_utf8_lossy(&bob[0].body).contains("acked before drain two"));
    drop(store);

    let _ = std::fs::remove_dir_all(root);
}
