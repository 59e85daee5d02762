//! A minimal POP3 server over the MFS mail store.
//!
//! The paper motivates MFS with "mail server applications (mail
//! server/POP/IMAP servers)" whose accesses are all mail-granular (§6.1).
//! This module is the retrieval side of that claim: a POP3 (RFC 1939)
//! server whose `PASS`/`RETR`/`QUIT` map directly onto
//! [`ShardedStore::list_entries`], [`ShardedStore::read_entry`] and
//! [`ShardedStore::delete`], sharing
//! the same on-disk store as the SMTP side — deleting a shared spam from
//! one mailbox decrements the refcount, exactly as §6.1 requires. Because
//! the store stripes its locks per mailbox, a POP3 client draining one
//! mailbox never stalls SMTP deliveries headed elsewhere.
//!
//! The server is one [`crate::driver`] thread over its own listener:
//! every session is a slot in that thread's event loop, so an idle or
//! slow client costs its connection state and no thread. The store calls
//! are the only blocking work on it.

use crate::driver::{
    drive, farewell, Acceptor, Arrival, DriverEnv, DriverMetrics, End, Gone, Limits, Protocol, Step,
};
use crate::linebuf::LineBuffer;
use crate::reactor::os::OsReactor;
use crate::reactor::Pollable;
use crate::ServeError;
use spamaware_metrics::WallClock;
use spamaware_mfs::{MailboxEntry, RealDir, ShardedStore};
use std::collections::{BTreeSet, HashSet};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Counters exposed by a running [`Pop3Server`].
#[derive(Debug, Default)]
pub struct Pop3Stats {
    /// Sessions served.
    pub sessions: AtomicU64,
    /// Mails retrieved.
    pub retrieved: AtomicU64,
    /// Mails expunged.
    pub deleted: AtomicU64,
    /// Sessions dropped for idling past the read timeout (the eviction
    /// bounds how long a silent peer can pin its session state).
    pub idle_evictions: AtomicU64,
    /// Sessions dropped because the peer stopped reading: queued reply
    /// bytes — typically a `RETR` body frozen mid-download with the
    /// kernel socket buffer full — made no progress for a whole read
    /// timeout. A peer that keeps reading, however slowly, is served.
    pub write_stall_evictions: AtomicU64,
    /// Sessions cut at the whole-session budget (60 read timeouts): a
    /// peer that moves a byte just inside every read timeout passes both
    /// deadlines above and would otherwise keep its slot for ever.
    pub session_evictions: AtomicU64,
}

/// A session's whole budget, in read timeouts (30 min at the 30 s
/// default) — long enough to download a full mailbox over a slow link,
/// and the only bound on a peer that trickles just inside the other two
/// deadlines.
const SESSION_READ_TIMEOUTS: u32 = 60;

/// A POP3 server sharing a mail store with the SMTP side.
///
/// Authentication is mailbox-existence only (this is a protocol/storage
/// testbed, not a credential system); `PASS` accepts anything for a known
/// `USER`.
pub struct Pop3Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Interrupts the session loop's reactor wait at shutdown.
    waker: rawpoll::WakePipe,
    thread: Option<JoinHandle<()>>,
    stats: Arc<Pop3Stats>,
}

impl Pop3Server {
    /// Binds and starts serving with the default 30 s client timeout.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] if the socket cannot be bound.
    pub fn start(
        bind: SocketAddr,
        store: Arc<ShardedStore<RealDir>>,
        mailboxes: Vec<String>,
    ) -> Result<Pop3Server, ServeError> {
        Pop3Server::start_with_timeout(bind, store, mailboxes, Duration::from_secs(30))
    }

    /// Binds and starts serving; a client is dropped after `read_timeout`
    /// without a byte moving in either direction, and however it behaves
    /// after 60 of them.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] if the socket cannot be bound or
    /// `read_timeout` is zero.
    pub fn start_with_timeout(
        bind: SocketAddr,
        store: Arc<ShardedStore<RealDir>>,
        mailboxes: Vec<String>,
        read_timeout: Duration,
    ) -> Result<Pop3Server, ServeError> {
        if read_timeout.is_zero() {
            return Err(ServeError::Config(
                "pop3 read timeout must be nonzero".to_owned(),
            ));
        }
        let (listener, addr) = crate::live::listen(bind)?;
        let mut reactor = OsReactor::new().map_err(|e| ServeError::Io(e.to_string()))?;
        let waker = reactor.waker();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Pop3Stats::default());
        let env = DriverEnv {
            clock: Arc::new(WallClock::new()),
            stop: Arc::clone(&stop),
            // POP3 has no drain: deletions only apply at QUIT, so a hard
            // stop loses nothing.
            draining: Arc::new(AtomicBool::new(false)),
            limits: Limits {
                idle: read_timeout,
                session: read_timeout.saturating_mul(SESSION_READ_TIMEOUTS),
                write_stall: read_timeout,
                phase: Duration::MAX,
                // One RETR reply is as large as the mail it carries, so
                // no byte cap can tell a big mail from a slow peer. What
                // bounds a session's memory is the driver's backpressure
                // (no command runs while replies are queued: one burst
                // plus one reply, however many RETRs are pipelined); what
                // cuts a non-reading peer loose is the no-progress
                // deadline.
                max_outq_bytes: usize::MAX,
            },
            metrics: DriverMetrics::default(),
        };
        let mut proto = Pop3 {
            listener,
            store,
            mailboxes: mailboxes.into_iter().collect(),
            stats: Arc::clone(&stats),
        };
        let thread = std::thread::Builder::new()
            .name("pop3".to_owned())
            .spawn(move || drive(&mut reactor, &mut proto, &env))
            .map_err(|e| ServeError::Io(format!("spawn pop3: {e}")))?;
        Ok(Pop3Server {
            addr,
            stop,
            waker,
            thread: Some(thread),
            stats,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &Pop3Stats {
        &self.stats
    }

    /// Stops the server.
    pub fn shutdown(mut self) {
        self.stop_join();
    }

    fn stop_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.thread.take() {
            #[expect(
                clippy::disallowed_methods,
                reason = "the caller's thread (shutdown or drop), after the POP3 loop was told to stop and woken"
            )]
            let _ = h.join();
        }
    }
}

impl Drop for Pop3Server {
    fn drop(&mut self) {
        self.stop_join();
    }
}

#[derive(Default)]
struct SessionState {
    user: Option<String>,
    /// The authenticated mailbox, set once PASS succeeds (doubles as the
    /// "is authed" flag so the mailbox name never needs re-unwrapping).
    authed: Option<String>,
    /// The mails visible this session, as `PASS` listed them: id, size,
    /// and where the body lies, so that `RETR` reads the body alone.
    listing: Vec<MailboxEntry>,
    /// Indices (0-based) marked for deletion; ordered, so `QUIT` writes
    /// its tombstones in the same order every run.
    marked: BTreeSet<usize>,
}

/// The POP3 protocol: the command dialog over the shared store.
struct Pop3 {
    listener: TcpListener,
    store: Arc<ShardedStore<RealDir>>,
    mailboxes: HashSet<String>,
    stats: Arc<Pop3Stats>,
}

impl Pop3 {
    /// Handles one command line, appending the reply to `out`. Writes
    /// into a `Vec` cannot fail, so the `?`s on `writeln!` are inert.
    fn command(
        &self,
        st: &mut SessionState,
        line: &[u8],
        out: &mut Vec<u8>,
    ) -> std::io::Result<Step> {
        let line = String::from_utf8_lossy(line);
        let trimmed = line.trim_end();
        let (verb, arg) = match trimmed.find(' ') {
            Some(i) => (&trimmed[..i], trimmed[i + 1..].trim()),
            None => (trimmed, ""),
        };
        match verb.to_ascii_uppercase().as_str() {
            // Logins belong to the AUTHORIZATION state only (RFC 1939):
            // a second PASS would swap `listing` under the marks taken
            // against the first, and `QUIT` would index past its end.
            "USER" if st.authed.is_none() => {
                if self.mailboxes.contains(arg) {
                    st.user = Some(arg.to_owned());
                    writeln!(out, "+OK send PASS\r")?;
                } else {
                    writeln!(out, "-ERR no such mailbox\r")?;
                }
            }
            "PASS" if st.authed.is_none() => match &st.user {
                // The listing is the mailbox's key file, read under one
                // shard hold; no body is read until RETR (DESIGN.md §14.2).
                // A key file that cannot be read fails the login.
                Some(user) => match self.store.list_entries(user) {
                    Ok(listing) => {
                        st.listing = listing;
                        st.authed = Some(user.clone());
                        writeln!(out, "+OK {} messages\r", st.listing.len())?;
                    }
                    Err(_) => writeln!(out, "-ERR mailbox unavailable\r")?,
                },
                None => writeln!(out, "-ERR USER first\r")?,
            },
            "STAT" if st.authed.is_some() => {
                let (n, bytes) = live(st).fold((0u64, 0u64), |(n, b), (_, e)| (n + 1, b + e.len));
                writeln!(out, "+OK {n} {bytes}\r")?;
            }
            // With an argument, one scan line (RFC 1939 §5): a client
            // reads one line and no more, so a multi-line answer would put
            // it out of step with every reply that follows.
            "LIST" if st.authed.is_some() && !arg.is_empty() => match parse_index(arg, st) {
                Some(idx) => writeln!(out, "+OK {} {}\r", idx + 1, st.listing[idx].len)?,
                None => writeln!(out, "-ERR no such message\r")?,
            },
            "LIST" if st.authed.is_some() => {
                writeln!(out, "+OK scan listing follows\r")?;
                for (idx, e) in live(st) {
                    writeln!(out, "{} {}\r", idx + 1, e.len)?;
                }
                writeln!(out, ".\r")?;
            }
            "RETR" if st.authed.is_some() => {
                match (st.authed.as_deref(), parse_index(arg, st)) {
                    (Some(user), Some(idx)) => {
                        // One positioned read of the body PASS located,
                        // under one short shard hold: no key-file read, so
                        // another session's login on this shard costs
                        // this one nothing.
                        let body = self
                            .store
                            .read_entry(user, &st.listing[idx])
                            .ok()
                            .map(|m| m.body);
                        match body {
                            Some(body) => {
                                self.stats.retrieved.fetch_add(1, Ordering::Relaxed);
                                // The multi-line body joins the coalesced
                                // reply: the driver queues what the socket
                                // will not take and runs no further command
                                // until it has; a peer frozen mid-download
                                // is evicted by the no-progress deadline,
                                // never waited on.
                                write!(out, "+OK {} octets\r\n", body.len())?;
                                multiline(&body, out);
                            }
                            None => writeln!(out, "-ERR no such message\r")?,
                        }
                    }
                    _ => writeln!(out, "-ERR no such message\r")?,
                }
            }
            "DELE" if st.authed.is_some() => match parse_index(arg, st) {
                Some(idx) => {
                    st.marked.insert(idx);
                    writeln!(out, "+OK marked\r")?;
                }
                None => writeln!(out, "-ERR no such message\r")?,
            },
            "RSET" if st.authed.is_some() => {
                st.marked.clear();
                writeln!(out, "+OK\r")?;
            }
            "NOOP" => writeln!(out, "+OK\r")?,
            "QUIT" => {
                let mut kept = 0;
                if let Some(user) = &st.authed {
                    for &idx in &st.marked {
                        if self.store.delete(user, st.listing[idx].id).is_ok() {
                            self.stats.deleted.fetch_add(1, Ordering::Relaxed);
                        } else {
                            kept += 1;
                        }
                    }
                }
                // RFC 1939 §6: the UPDATE state owns up to a mark it could
                // not carry out.
                if kept == 0 {
                    writeln!(out, "+OK bye\r")?;
                } else {
                    writeln!(out, "-ERR some deleted messages not removed\r")?;
                }
                return Ok(Step::Close);
            }
            _ => writeln!(out, "-ERR unsupported\r")?,
        }
        Ok(Step::Continue)
    }
}

impl Protocol<TcpStream> for Pop3 {
    type Session = SessionState;

    fn listener(&self) -> Option<u64> {
        Some(self.listener.poll_id())
    }

    fn admit(&mut self, now_ns: u64, _draining: bool) -> Option<Arrival<TcpStream, SessionState>> {
        let (conn, _) = self.listener.try_accept().ok().flatten()?;
        self.stats.sessions.fetch_add(1, Ordering::Relaxed);
        Some(Arrival {
            conn,
            session: SessionState::default(),
            lines: LineBuffer::new(),
            greeting: b"+OK spamaware POP3 ready\r\n".to_vec(),
            accepted_ns: now_ns,
        })
    }

    fn line(&mut self, st: &mut SessionState, line: &[u8], out: &mut Vec<u8>) -> Step {
        self.command(st, line, out).unwrap_or(Step::Close)
    }

    fn finish(&mut self, mut gone: Gone<TcpStream, SessionState>, end: End) {
        match end {
            End::Overflow => farewell(&mut gone.conn, b"-ERR line too long\r\n"),
            End::Idle => {
                self.stats.idle_evictions.fetch_add(1, Ordering::Relaxed);
            }
            End::SlowWriter => {
                self.stats
                    .write_stall_evictions
                    .fetch_add(1, Ordering::Relaxed);
            }
            End::Session => {
                self.stats.session_evictions.fetch_add(1, Ordering::Relaxed);
                farewell(&mut gone.conn, b"-ERR session time limit exceeded\r\n");
            }
            _ => {}
        }
    }
}

/// Appends `body` as the lines of a multi-line reply (RFC 1939 §3): each
/// line once and CRLF-terminated — a bare LF becomes CRLF, and a last line
/// without an ending gains one — a line that starts with `.` byte-stuffed,
/// then the terminating `.` line.
fn multiline(body: &[u8], out: &mut Vec<u8>) {
    if !body.is_empty() {
        let text = body.strip_suffix(b"\n").unwrap_or(body);
        for line in text.split(|&b| b == b'\n') {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if line.first() == Some(&b'.') {
                out.push(b'.');
            }
            out.extend_from_slice(line);
            out.extend_from_slice(b"\r\n");
        }
    }
    out.extend_from_slice(b".\r\n");
}

/// Live (not deletion-marked) messages with their 0-based indices.
fn live<'a>(st: &'a SessionState) -> impl Iterator<Item = (usize, &'a MailboxEntry)> + 'a {
    st.listing
        .iter()
        .enumerate()
        .filter(|(i, _)| !st.marked.contains(i))
}

fn parse_index(arg: &str, st: &SessionState) -> Option<usize> {
    let n: usize = arg.parse().ok()?;
    let idx = n.checked_sub(1)?;
    if idx < st.listing.len() && !st.marked.contains(&idx) {
        Some(idx)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spamaware_mfs::{DataRef, MailId};

    const MAILBOXES: [&str; 2] = ["alice", "bob"];

    /// A login; a command on one message whose number is in range, zero,
    /// past the end, too large for any integer, negative, absent or not a
    /// number (`DELE` and `3` twice: a mark past bob's shorter listing is
    /// what a second login used to trip over); a bare command; any bytes.
    fn line() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            "(USER alice|USER bob|USER nobody|PASS x|pass)\r\n".prop_map(String::into_bytes),
            "(RETR|DELE|dele|DELE|LIST)( 1| 2| 3| 3| 4| 0| 18446744073709551616| -1|| x)\r\n"
                .prop_map(String::into_bytes),
            "(STAT|LIST|RSET|NOOP|QUIT|APOP|retr)\r\n".prop_map(String::into_bytes),
            proptest::collection::vec(any::<u8>(), 0..40),
        ]
    }

    fn serving(store: ShardedStore<RealDir>) -> Pop3 {
        Pop3 {
            listener: TcpListener::bind("127.0.0.1:0").expect("bind"),
            store: Arc::new(store),
            mailboxes: MAILBOXES.map(str::to_owned).into(),
            stats: Arc::default(),
        }
    }

    /// One command line and its reply.
    fn say(pop: &Pop3, st: &mut SessionState, line: &str) -> String {
        let mut out = Vec::new();
        let line = format!("{line}\r\n");
        pop.command(st, line.as_bytes(), &mut out)
            .expect("writes to a Vec");
        String::from_utf8(out).expect("ASCII replies")
    }

    /// A login lists the mailbox from its key file; one that cannot be
    /// read fails the login instead of showing an empty mailbox.
    #[test]
    fn pass_fails_when_the_key_file_cannot_be_read() {
        let root = std::env::temp_dir().join(format!("spamaware-pass-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ShardedStore::open_with(2, || RealDir::new(&root)).expect("open spool");
        store
            .deliver(MailId(1), &["alice"], DataRef::Bytes(b"mail\r\n"))
            .expect("deliver");
        // Two frames' worth of bytes that are no frame: corruption.
        std::fs::write(root.join("mfs/bob.key"), [0u8; 80]).expect("plant");
        let pop = serving(store);
        let mut st = SessionState::default();
        assert_eq!(say(&pop, &mut st, "USER bob"), "+OK send PASS\r\n");
        assert_eq!(say(&pop, &mut st, "PASS x"), "-ERR mailbox unavailable\r\n");
        assert_eq!(st.authed, None);
        let mut st = SessionState::default();
        say(&pop, &mut st, "USER alice");
        assert_eq!(say(&pop, &mut st, "PASS x"), "+OK 1 messages\r\n");
        let _ = std::fs::remove_dir_all(root);
    }

    /// `RETR` writes each stored line once: a body that ends in CRLF — as
    /// every mail SMTP stores does — gains no empty line before the `.`,
    /// one that does not gains its CRLF, and a line that starts with `.`
    /// is byte-stuffed.
    #[test]
    fn retr_sends_each_line_of_the_body_once() {
        let root = std::env::temp_dir().join(format!("spamaware-retr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ShardedStore::open_with(2, || RealDir::new(&root)).expect("open spool");
        let bodies: [&[u8]; 3] = [
            b"Subject: x\r\n\r\nhello\r\n",
            b"Subject: y\r\n\r\nno newline",
            b"Subject: z\r\n\r\n.hidden\r\n..two\r\n",
        ];
        for (n, body) in (1..).zip(bodies) {
            let body = DataRef::Bytes(body);
            store.deliver(MailId(n), &["alice"], body).expect("deliver");
        }
        let pop = serving(store);
        let mut st = SessionState::default();
        let mut say = |line: &str| say(&pop, &mut st, line);
        assert_eq!(say("USER alice"), "+OK send PASS\r\n");
        assert_eq!(say("PASS x"), "+OK 3 messages\r\n");
        assert_eq!(
            say("RETR 1"),
            "+OK 21 octets\r\nSubject: x\r\n\r\nhello\r\n.\r\n"
        );
        assert_eq!(
            say("RETR 2"),
            "+OK 24 octets\r\nSubject: y\r\n\r\nno newline\r\n.\r\n"
        );
        assert_eq!(
            say("RETR 3"),
            "+OK 30 octets\r\nSubject: z\r\n\r\n..hidden\r\n...two\r\n.\r\n"
        );
        let _ = std::fs::remove_dir_all(root);
    }

    /// `LIST n` answers with one line: the message's scan line, or an
    /// error for a number out of range or marked for deletion. A bare
    /// `LIST` stays the multi-line listing of the unmarked messages.
    #[test]
    fn list_with_an_argument_answers_one_line() {
        let root = std::env::temp_dir().join(format!("spamaware-list-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ShardedStore::open_with(2, || RealDir::new(&root)).expect("open spool");
        for (n, body) in (1..).zip([&b"one\r\n"[..], b"second\r\n"]) {
            let body = DataRef::Bytes(body);
            store.deliver(MailId(n), &["alice"], body).expect("deliver");
        }
        let pop = serving(store);
        let mut st = SessionState::default();
        let mut say = |line: &str| say(&pop, &mut st, line);
        say("USER alice");
        assert_eq!(say("PASS x"), "+OK 2 messages\r\n");
        assert_eq!(say("LIST 2"), "+OK 2 8\r\n");
        assert_eq!(say("LIST 3"), "-ERR no such message\r\n");
        assert_eq!(say("LIST 0"), "-ERR no such message\r\n");
        assert_eq!(say("LIST x"), "-ERR no such message\r\n");
        assert_eq!(say("DELE 1"), "+OK marked\r\n");
        assert_eq!(say("LIST 1"), "-ERR no such message\r\n");
        assert_eq!(say("LIST"), "+OK scan listing follows\r\n2 8\r\n.\r\n");
        let _ = std::fs::remove_dir_all(root);
    }

    /// `QUIT` says so when a marked message could not be removed: the
    /// delete re-reads a key file that turned unreadable after the login,
    /// and the session answers `-ERR` and counts no deletion.
    #[test]
    fn quit_reports_a_mark_it_could_not_remove() {
        let root = std::env::temp_dir().join(format!("spamaware-quit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // One shard: listing bob evicts alice's entries from the memo.
        let store = ShardedStore::open_with(1, || RealDir::new(&root)).expect("open spool");
        for (n, mb) in [(1, "alice"), (2, "bob")] {
            let body = DataRef::Bytes(b"mail\r\n");
            store.deliver(MailId(n), &[mb], body).expect("deliver");
        }
        let pop = serving(store);
        let mut st = SessionState::default();
        say(&pop, &mut st, "USER alice");
        assert_eq!(say(&pop, &mut st, "PASS x"), "+OK 1 messages\r\n");
        assert_eq!(say(&pop, &mut st, "DELE 1"), "+OK marked\r\n");
        std::fs::write(root.join("mfs/alice.key"), [0u8; 80]).expect("plant");
        pop.store.list_entries("bob").expect("list bob");
        assert_eq!(
            say(&pop, &mut st, "QUIT"),
            "-ERR some deleted messages not removed\r\n"
        );
        assert_eq!(pop.stats.deleted.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(root);
    }

    /// `RETR` reads the body `PASS` located and nothing else: after the
    /// login, another session deletes a mail and the key file turns
    /// unreadable, and the session still retrieves what its login listed.
    #[test]
    fn retr_serves_the_login_listing_without_the_key_file() {
        let root = std::env::temp_dir().join(format!("spamaware-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ShardedStore::open_with(2, || RealDir::new(&root)).expect("open spool");
        let own = DataRef::Bytes(b"Subject: a\r\n\r\nfirst\r\n");
        store.deliver(MailId(1), &["alice"], own).expect("deliver");
        let shared = DataRef::Bytes(b"Subject: b\r\n\r\nshared\r\n");
        store
            .deliver(MailId(2), &["alice", "bob"], shared)
            .expect("deliver");
        let pop = serving(store);
        let mut st = SessionState::default();
        say(&pop, &mut st, "USER alice");
        assert_eq!(say(&pop, &mut st, "PASS x"), "+OK 2 messages\r\n");
        pop.store.delete("alice", MailId(2)).expect("delete");
        std::fs::write(root.join("mfs/alice.key"), [0u8; 80]).expect("plant");
        assert_eq!(
            say(&pop, &mut st, "RETR 1"),
            "+OK 21 octets\r\nSubject: a\r\n\r\nfirst\r\n.\r\n"
        );
        assert_eq!(
            say(&pop, &mut st, "RETR 2"),
            "+OK 22 octets\r\nSubject: b\r\n\r\nshared\r\n.\r\n"
        );
        let _ = std::fs::remove_dir_all(root);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The panic lints cannot see indexing (DESIGN.md §9). Whatever a
        /// peer sends, every reply is a status line, and the `QUIT` ending
        /// the dialog (its own, or one appended) deletes the marked mails.
        #[test]
        fn any_dialog_gets_status_replies_and_quit_deletes_exactly_the_marked(
            lines in proptest::collection::vec(line(), 0..60)
        ) {
            // A fresh spool: three mails for alice, two for bob, one shared.
            let root = std::env::temp_dir().join(format!("spamaware-pop3-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let store = ShardedStore::open_with(2, || RealDir::new(&root)).expect("open spool");
            let rcpts: [&[&str]; 4] = [&["alice"], &["alice", "bob"], &["bob"], &["alice"]];
            for (n, to) in (1..).zip(rcpts) {
                let body = DataRef::Bytes(b".a line to stuff\r\nno newline");
                store.deliver(MailId(n), to, body).expect("deliver");
            }
            let pop = serving(store);
            let before = MAILBOXES.map(|mb| pop.store.list_mailbox(mb));
            let (mut st, mut quit) = (SessionState::default(), None);
            for line in lines.iter().map(Vec::as_slice).chain([&b"QUIT\r\n"[..]]) {
                let marked: BTreeSet<MailId> =
                    st.marked.iter().filter_map(|&i| st.listing.get(i)).map(|m| m.id).collect();
                prop_assert_eq!(marked.len(), st.marked.len(), "a mark past the listing");
                let (authed, mut out) = (st.authed.clone(), Vec::new());
                let step = pop.command(&mut st, line, &mut out).expect("writes to a Vec");
                let reply = String::from_utf8_lossy(&out);
                prop_assert!(reply.starts_with("+OK") || reply.starts_with("-ERR"), "{}", reply);
                if step == Step::Close {
                    quit = Some((authed, marked));
                    break;
                }
            }
            let (authed, marked) = quit.expect("QUIT ends the dialog");
            for (mb, before) in MAILBOXES.iter().zip(before) {
                let gone = |id: &MailId| authed.as_deref() == Some(mb) && marked.contains(id);
                let kept: Vec<_> = before.into_iter().filter(|(id, _)| !gone(id)).collect();
                prop_assert_eq!(pop.store.list_mailbox(mb), kept, "{} after QUIT", mb);
            }
            let _ = std::fs::remove_dir_all(root);
        }
    }
}
