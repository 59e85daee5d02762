//! Helpers shared by the live-server suites — and, through a `#[path]`
//! include, by `crates/core/tests`: one lockstep line client, one spool
//! builder, one server starter and one poll loop, with its stored-mail
//! form.
#![allow(dead_code)]

use spamaware_core::{LiveConfig, LiveServer, LiveSnapshot};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long [`wait_for`] polls before it gives up: the longest any suite
/// needs (the write-stall storm's evictions).
const WAIT_BUDGET: Duration = Duration::from_secs(60);

/// A lockstep SMTP or POP3 client: write a line, read the reply.
pub struct Line {
    pub stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// The first line the server said: `220`, `+OK`, or a `421` shed.
    pub first: String,
}

impl Line {
    /// Connects with a 10 s read timeout and reads the first line.
    pub fn connect(addr: SocketAddr) -> Line {
        Line::connect_within(addr, Duration::from_secs(10))
    }

    /// Connects with a `timeout` on every read and reads the first line.
    pub fn connect_within(addr: SocketAddr, timeout: Duration) -> Line {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(timeout)).expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = Line {
            stream,
            reader,
            first: String::new(),
        };
        line.first = line.read_line();
        line
    }

    /// [`Line::connect`], asserting the server greeted rather than shed.
    pub fn greet(addr: SocketAddr) -> Line {
        let line = Line::connect(addr);
        assert!(line.greeted(), "first line {:?}", line.first);
        line
    }

    /// Whether the first line was a greeting (`220` or `+OK`).
    pub fn greeted(&self) -> bool {
        self.first.starts_with("220") || self.first.starts_with("+OK")
    }

    /// Whether the first line was a `421` shed.
    pub fn shed(&self) -> bool {
        self.first.starts_with("421")
    }

    /// Sends `line` and its CRLF without reading anything.
    pub fn raw(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\r\n").as_bytes())
            .expect("write");
    }

    /// The next line, with its CRLF; `""` at end of stream.
    pub fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply in time");
        line
    }

    /// The next line, or `""` once the server has hung up — by closing or
    /// by a reset.
    pub fn read_or_eof(&mut self) -> String {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(_) => line,
            Err(_) => String::new(),
        }
    }

    /// Sends `line` and returns the one-line reply.
    pub fn cmd(&mut self, line: &str) -> String {
        self.raw(line);
        self.read_line()
    }

    /// A POP3 multi-line body up to its `.`, each line without its CRLF.
    pub fn read_multiline(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let line = self.read_line();
            assert!(!line.is_empty(), "the server hung up mid-listing");
            match line.trim_end() {
                "." => return lines,
                text => lines.push(text.to_owned()),
            }
        }
    }

    /// One SMTP transaction, `MAIL` through the `250` after the `.`, to
    /// `rcpts` at `dept.example`; every reply must be the expected one.
    pub fn deliver(&mut self, rcpts: &[&str], body: &str) {
        let reply = self.cmd("MAIL FROM:<x@client.example>");
        assert!(reply.starts_with("250"), "MAIL: {reply:?}");
        for rcpt in rcpts {
            let reply = self.cmd(&format!("RCPT TO:<{rcpt}@dept.example>"));
            assert!(reply.starts_with("250"), "RCPT {rcpt}: {reply:?}");
        }
        let reply = self.cmd("DATA");
        assert!(reply.starts_with("354"), "DATA: {reply:?}");
        self.raw(body);
        let ack = self.cmd(".");
        assert!(ack.starts_with("250"), "delivery ack {ack:?}");
    }
}

/// A fresh spool directory name under the temp dir, unique per call.
pub fn spool(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("spamaware-{tag}-{}-{nanos:x}", std::process::id()))
}

/// Starts a server on a fresh [`spool`] hosting `mailboxes`, with the
/// localhost defaults as `tweak` leaves them.
pub fn serve(
    tag: &str,
    mailboxes: &[&str],
    tweak: impl FnOnce(&mut LiveConfig),
) -> (LiveServer, PathBuf) {
    let root = spool(tag);
    let mut cfg = LiveConfig::localhost(&root, mailboxes.iter().map(|m| (*m).to_owned()).collect());
    tweak(&mut cfg);
    (LiveServer::start(cfg).expect("start"), root)
}

/// Whether `cond` came true within [`WAIT_BUDGET`]: the one poll loop.
fn settle(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + WAIT_BUDGET;
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Polls `cond` until it holds; panics naming `what` after [`WAIT_BUDGET`].
pub fn wait_for(what: &str, cond: impl FnMut() -> bool) {
    assert!(settle(cond), "timed out waiting for {what}");
}

/// Waits until `server` has stored at least `n` mails.
pub fn wait_for_mails(server: &LiveServer, n: u64) {
    wait_for(&format!("{n} stored mails"), || {
        server.stats().snapshot().mails_stored >= n
    });
}

/// Clamps a test client's kernel receive buffer so its TCP window
/// actually closes when it stops reading — receive-buffer autotuning
/// would otherwise absorb tens of megabytes and hide every
/// backpressure path the stall suites exist to exercise.
pub fn clamp_rcvbuf(stream: &TcpStream) {
    rawpoll::set_recv_buffer(stream.as_raw_fd(), 4096).expect("clamp rcvbuf");
}

/// Connection conservation (DESIGN.md §14.3): every accepted connection
/// has reached exactly one terminal outcome, except the `inflight` ones
/// still being served.
pub fn assert_conserved(snap: &LiveSnapshot, inflight: i64) {
    assert_eq!(
        snap.unaccounted(),
        inflight,
        "accepted connections neither in flight nor in exactly one terminal counter: {snap:?}"
    );
}

/// Waits for a live server to quiesce — every client gone, the in-flight
/// gauge at zero — then asserts conservation. Call it after dropping the
/// test's clients and before `shutdown()`, which cuts whatever is left
/// without accounting for it.
pub fn assert_conserved_at_quiesce(srv: &LiveServer) {
    if !settle(|| srv.inflight() == 0 && srv.stats().snapshot().unaccounted() == 0) {
        assert_eq!(srv.inflight(), 0, "server never quiesced");
        assert_conserved(&srv.stats().snapshot(), 0);
    }
}
