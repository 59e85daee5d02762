//! Server-side SMTP session state machine.

use crate::{Command, MailAddr, Reply};
use std::collections::HashSet;
use std::sync::Arc;

/// Recipients accepted per transaction (postfix allows 1000; 100 is
/// ample for the paper's 5–15-recipient spam).
const MAX_RECIPIENTS: usize = 100;

/// Mail transactions accepted per connection.
const MAX_TRANSACTIONS: usize = 100;

/// Largest accepted message in bytes, advertised as `SIZE`: a larger one
/// draws `552` at end-of-data and is discarded.
const MAX_MESSAGE_SIZE: u64 = 10 * 1024 * 1024;

/// What a server announces about itself in a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Hostname announced in the greeting. `Arc<str>` so a server
    /// delegating thousands of connections shares one allocation instead
    /// of cloning the string per session.
    pub hostname: Arc<str>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            hostname: "mx.spamaware.test".into(),
        }
    }
}

/// Where in the SMTP dialog the session currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Connection open, greeting sent, no HELO yet.
    Start,
    /// HELO/EHLO received.
    Greeted,
    /// MAIL FROM received; awaiting RCPT.
    MailGiven,
    /// At least one valid RCPT accepted; awaiting more RCPT or DATA.
    RcptGiven,
    /// Inside DATA, consuming message content.
    Data,
    /// QUIT received (or the server closed the connection).
    Closed,
}

/// One mail transaction whose `DATA` has ended: what the caller stores
/// before it [accepts](ServerSession::accept) the mail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Reverse-path; `None` for the null sender.
    pub sender: Option<MailAddr>,
    /// Accepted (validated) recipients.
    pub recipients: Vec<MailAddr>,
    /// Message content, when captured (live server). Empty in simulation.
    pub body: Vec<u8>,
    /// Message size in bytes. In simulation this is set by
    /// [`ServerSession::end_data_sized`] without materializing bytes.
    pub body_size: u64,
}

/// Verdict from feeding one line of DATA content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataVerdict {
    /// The line was content; keep feeding.
    More,
    /// The line was the lone-dot terminator; the message is complete.
    /// Call [`ServerSession::end_data`] next.
    Complete,
}

/// How a finished connection is classified, following the paper's §4.1
/// taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionOutcome {
    /// At least one mail was accepted: stored, and answered `250`.
    Delivered,
    /// No mail accepted, at least one `RCPT TO` drew a `550 User
    /// unknown`, and the client ended the dialogue — a bounce connection
    /// from random-guessing spam.
    Bounce,
    /// No mail accepted and no bounce: the client connected, possibly
    /// exchanged a few handshake messages, and quit — or the server
    /// evicted it, whatever was said before — an unfinished SMTP
    /// transaction.
    Unfinished,
}

impl SessionOutcome {
    /// Whichever of `delivered`, `bounce` and `unfinished` stands for this
    /// outcome: how a caller keeps one tally per outcome without spelling
    /// the taxonomy out again.
    pub fn pick<T>(self, delivered: T, bounce: T, unfinished: T) -> T {
        match self {
            SessionOutcome::Delivered => delivered,
            SessionOutcome::Bounce => bounce,
            SessionOutcome::Unfinished => unfinished,
        }
    }
}

/// Where in the dialog a connection earns trust — the point a
/// fork-after-trust master delegates it to a worker. The paper's
/// architecture is [`TrustPoint::AfterValidRcpt`] (the live server's only
/// one); the DES sweeps all three as an ablation, where
/// [`TrustPoint::AfterAccept`] degenerates to process-per-connection with
/// an accepting master and [`TrustPoint::AfterHelo`] trusts anyone who
/// completes a greeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrustPoint {
    /// Trusted as soon as the connection is accepted.
    AfterAccept,
    /// Trusted after HELO/EHLO.
    AfterHelo,
    /// Trusted after the first valid `RCPT TO` (the paper's design).
    #[default]
    AfterValidRcpt,
}

/// The server-side SMTP state machine.
///
/// The machine is transport-agnostic: the simulation feeds it [`Command`]
/// values through [`ServerSession::handle_hosted`], while the live TCP
/// server hands it wire lines through [`ServerSession::handle_line`]; both
/// check recipients against the same set of hosted mailboxes (the local
/// access database in the paper).
///
/// The end of `DATA` ([`ServerSession::end_data`]) hands the caller the
/// [`Envelope`]; the caller stores the mail and only if the store has it
/// calls [`ServerSession::accept`] and answers `250` (else `451`).
///
/// See the crate-level example for a full dialog.
#[derive(Debug)]
pub struct ServerSession {
    cfg: SessionConfig,
    phase: SessionPhase,
    sender: Option<MailAddr>,
    recipients: Vec<MailAddr>,
    body: Vec<u8>,
    /// Content bytes of the `DATA` in flight, captured or not.
    data_size: u64,
    capture_body: bool,
    /// Mails stored and accepted over the connection's lifetime.
    accepted: usize,
    /// The envelope [`ServerSession::finish_data`] kept for
    /// [`ServerSession::take_last_delivered`].
    last: Option<Envelope>,
    rejected_rcpts: u64,
    commands_handled: u64,
}

impl ServerSession {
    /// Creates a session in the [`SessionPhase::Start`] phase.
    pub fn new(cfg: SessionConfig) -> ServerSession {
        ServerSession {
            cfg,
            phase: SessionPhase::Start,
            sender: None,
            recipients: Vec::new(),
            body: Vec::new(),
            data_size: 0,
            capture_body: false,
            accepted: 0,
            last: None,
            rejected_rcpts: 0,
            commands_handled: 0,
        }
    }

    /// Enables capturing message bodies into [`Envelope::body`] (the live
    /// server needs bytes; the simulation does not).
    pub fn capture_bodies(&mut self, on: bool) {
        self.capture_body = on;
    }

    /// The `220` greeting to send on connect.
    pub fn greeting(&self) -> Reply {
        Reply::greeting(&self.cfg.hostname)
    }

    /// Current dialog phase.
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }

    /// Whether the dialog so far has earned trust at `point`; a hybrid
    /// master delegates the connection to an smtpd worker once this turns
    /// true. At the paper's [`TrustPoint::AfterValidRcpt`] that is the
    /// first valid recipient of the current transaction.
    pub fn trusted(&self, point: TrustPoint) -> bool {
        match point {
            TrustPoint::AfterAccept => true,
            TrustPoint::AfterHelo => self.phase != SessionPhase::Start,
            TrustPoint::AfterValidRcpt => !self.recipients.is_empty(),
        }
    }

    /// `RCPT TO` attempts rejected with `550` over the whole connection.
    pub fn rejected_rcpts(&self) -> u64 {
        self.rejected_rcpts
    }

    /// Commands handled so far (used for per-command CPU accounting).
    pub fn commands_handled(&self) -> u64 {
        self.commands_handled
    }

    /// Donates a reusable allocation for DATA content: the next captured
    /// body grows into `buf`'s capacity instead of a fresh `Vec`. The
    /// buffer is cleared on arrival; ignored if body capture is already
    /// holding content.
    pub fn provide_body_buffer(&mut self, mut buf: Vec<u8>) {
        if self.body.is_empty() {
            buf.clear();
            self.body = buf;
        }
    }

    /// Takes the DATA capture buffer back, content and all — how a
    /// connection that ends mid-`DATA` returns a donated allocation.
    pub fn take_body_buffer(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.body)
    }

    /// Handles one command, returning the reply to send.
    ///
    /// `exists` implements the local access-database lookup: it is
    /// consulted once per `RCPT TO`. Both servers call this through
    /// [`ServerSession::handle_hosted`].
    ///
    /// # Panics
    ///
    /// Panics if called while in the [`SessionPhase::Data`] phase — content
    /// must go through [`ServerSession::data_line`].
    pub fn handle(&mut self, cmd: Command, exists: &dyn Fn(&MailAddr) -> bool) -> Reply {
        assert!(
            self.phase != SessionPhase::Data,
            "handle() called during DATA; feed content via data_line()"
        );
        self.commands_handled += 1;
        match cmd {
            Command::Helo(d) => {
                if d.is_empty() {
                    return Reply::bad_argument();
                }
                self.phase = SessionPhase::Greeted;
                self.reset_transaction();
                Reply::hello(&self.cfg.hostname)
            }
            Command::Ehlo(d) => {
                if d.is_empty() {
                    return Reply::bad_argument();
                }
                self.phase = SessionPhase::Greeted;
                self.reset_transaction();
                Reply::hello_esmtp(&self.cfg.hostname, MAX_MESSAGE_SIZE)
            }
            Command::MailFrom(sender) => match self.phase {
                SessionPhase::Start => Reply::bad_sequence("HELO"),
                SessionPhase::MailGiven | SessionPhase::RcptGiven => Reply::bad_sequence("DATA"),
                SessionPhase::Closed => Reply::bad_sequence("connection"),
                SessionPhase::Greeted => {
                    if self.accepted >= MAX_TRANSACTIONS {
                        return Reply::too_many_transactions();
                    }
                    self.sender = sender;
                    self.phase = SessionPhase::MailGiven;
                    Reply::ok()
                }
                // Commands are not parsed during DATA; answer defensively
                // rather than aborting on a driver bug.
                SessionPhase::Data => Reply::bad_sequence("end of data"),
            },
            Command::RcptTo(rcpt) => match self.phase {
                SessionPhase::MailGiven | SessionPhase::RcptGiven => {
                    if self.recipients.len() >= MAX_RECIPIENTS {
                        return Reply::too_many_recipients();
                    }
                    if exists(&rcpt) {
                        self.recipients.push(rcpt);
                        self.phase = SessionPhase::RcptGiven;
                        Reply::ok()
                    } else {
                        self.rejected_rcpts += 1;
                        Reply::user_unknown()
                    }
                }
                _ => Reply::bad_sequence("MAIL"),
            },
            Command::Data => match self.phase {
                SessionPhase::RcptGiven => {
                    self.phase = SessionPhase::Data;
                    Reply::start_data()
                }
                SessionPhase::MailGiven => Reply::bad_sequence("RCPT"),
                _ => Reply::bad_sequence("MAIL"),
            },
            Command::Rset => {
                if self.phase != SessionPhase::Start && self.phase != SessionPhase::Closed {
                    self.phase = SessionPhase::Greeted;
                }
                self.reset_transaction();
                Reply::ok()
            }
            Command::Noop => Reply::ok(),
            Command::Vrfy(_) => Reply::vrfy_noncommittal(),
            Command::Quit => {
                self.phase = SessionPhase::Closed;
                Reply::bye()
            }
            Command::Unknown(_) => Reply::syntax_error(),
        }
    }

    /// [`ServerSession::handle`] under the hosted-recipient rule both
    /// servers use: a recipient exists when its local part is one of the
    /// `hosted` mailbox names, whatever its domain.
    pub fn handle_hosted(&mut self, cmd: Command, hosted: &HashSet<String>) -> Reply {
        self.handle(cmd, &|a: &MailAddr| hosted.contains(a.local_part()))
    }

    /// One CRLF-stripped command line off the wire: parses it, runs it
    /// through [`ServerSession::handle_hosted`], and answers `501` when a
    /// known verb's argument does not parse. Returns the reply and the
    /// line's [`Command::verb`] (`"?"` for a line that does not parse).
    pub fn handle_line(&mut self, line: &[u8], hosted: &HashSet<String>) -> (Reply, &'static str) {
        match Command::parse(&String::from_utf8_lossy(line)) {
            Ok(cmd) => {
                let verb = cmd.verb();
                (self.handle_hosted(cmd, hosted), verb)
            }
            Err(_) => (Reply::bad_argument(), "?"),
        }
    }

    /// Feeds one line of DATA content (CRLF already stripped). Performs
    /// dot-unstuffing per RFC 5321 §4.5.2.
    ///
    /// # Panics
    ///
    /// Panics if the session is not in the DATA phase.
    pub fn data_line(&mut self, line: &[u8]) -> DataVerdict {
        assert_eq!(self.phase, SessionPhase::Data, "data_line outside DATA");
        if line == b"." {
            return DataVerdict::Complete;
        }
        let content = if line.first() == Some(&b'.') {
            &line[1..]
        } else {
            line
        };
        self.data_size += content.len() as u64 + 2;
        // A message past the limit is refused at the dot whatever it
        // holds: count it, but stop holding it.
        if self.capture_body && !self.oversized() {
            self.reserve_body(content.len() + 2);
            self.body.extend_from_slice(content);
            self.body.extend_from_slice(b"\r\n");
        }
        DataVerdict::More
    }

    /// Makes room for `more` captured bytes where `Vec`'s own doubling
    /// would overshoot the message limit, by growing straight to the limit
    /// instead: what a peer can make the capture buffer hold is the
    /// limit, not the power of two above it.
    fn reserve_body(&mut self, more: usize) {
        let limit = usize::try_from(MAX_MESSAGE_SIZE).unwrap_or(usize::MAX);
        let (len, capacity) = (self.body.len(), self.body.capacity());
        if capacity - len < more && capacity.saturating_mul(2) > limit {
            self.body.reserve_exact(limit.max(len + more) - len);
        }
    }

    fn oversized(&self) -> bool {
        self.data_size > MAX_MESSAGE_SIZE
    }

    /// Ends the DATA phase after the terminator: hands over the envelope,
    /// body and all, or answers `552` for a message past the limit (the
    /// capture buffer stays, cleared, for [`ServerSession::take_body_buffer`]).
    /// Accepts nothing; that is [`ServerSession::accept`].
    ///
    /// # Panics
    ///
    /// Panics if the session is not in the DATA phase.
    pub fn end_data(&mut self) -> Result<Envelope, Reply> {
        assert_eq!(self.phase, SessionPhase::Data, "end_data outside DATA");
        self.phase = SessionPhase::Greeted;
        if self.oversized() {
            self.reset_transaction();
            return Err(Reply::message_too_large());
        }
        let body_size = std::mem::take(&mut self.data_size);
        Ok(Envelope {
            sender: self.sender.take(),
            recipients: std::mem::take(&mut self.recipients),
            body: std::mem::take(&mut self.body),
            body_size,
        })
    }

    /// [`ServerSession::end_data`] for a declared `size` whose content
    /// lines were never fed: how the simulation ends `DATA`.
    pub fn end_data_sized(&mut self, size: u64) -> Result<Envelope, Reply> {
        self.data_size = size;
        self.end_data()
    }

    /// Accepts the mail the last [`ServerSession::end_data`] handed over;
    /// call it only once the store has the mail. Only accepted mails make
    /// a connection [`SessionOutcome::Delivered`] and count against the
    /// limit on transactions per connection.
    pub fn accept(&mut self) {
        self.accepted += 1;
    }

    /// [`ServerSession::end_data`] and [`ServerSession::accept`] with no
    /// store between them, answering `250` with `mail_id`; the envelope is
    /// kept for [`ServerSession::take_last_delivered`]. For the benchmark's
    /// layer probes only, until they move to the calls above.
    pub fn finish_data(&mut self, mail_id: &str) -> Reply {
        let ended = self.end_data();
        self.keep_last(ended, mail_id)
    }

    /// [`ServerSession::finish_data`] over [`ServerSession::end_data_sized`].
    pub fn finish_data_sized(&mut self, mail_id: &str, size: u64) -> Reply {
        let ended = self.end_data_sized(size);
        self.keep_last(ended, mail_id)
    }

    /// The envelope the last [`ServerSession::finish_data`] kept, if any.
    pub fn take_last_delivered(&mut self) -> Option<Envelope> {
        self.last.take()
    }

    fn keep_last(&mut self, ended: Result<Envelope, Reply>, mail_id: &str) -> Reply {
        ended.map_or_else(
            |refused| refused,
            |env| {
                self.accept();
                self.last = Some(env);
                Reply::queued(mail_id)
            },
        )
    }

    /// Classifies the connection per the paper's taxonomy — the one
    /// classifier of the DES and the live server. `ended_by_client` says
    /// the client ended the dialogue (`QUIT`, hang-up, or a script that ran
    /// out); only such a dialogue can be a bounce, so a connection the
    /// server evicted is unfinished whatever it was told before.
    pub fn outcome(&self, ended_by_client: bool) -> SessionOutcome {
        if self.accepted > 0 {
            SessionOutcome::Delivered
        } else if ended_by_client && self.rejected_rcpts > 0 {
            SessionOutcome::Bounce
        } else {
            SessionOutcome::Unfinished
        }
    }

    fn reset_transaction(&mut self) {
        self.sender = None;
        self.recipients.clear();
        self.body.clear();
        self.data_size = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> MailAddr {
        s.parse().unwrap()
    }

    fn all_exist(_: &MailAddr) -> bool {
        true
    }

    fn none_exist(_: &MailAddr) -> bool {
        false
    }

    fn greeted() -> ServerSession {
        let mut s = ServerSession::new(SessionConfig::default());
        assert_eq!(s.handle(Command::helo("c.example"), &all_exist).code(), 250);
        s
    }

    #[test]
    fn happy_path_delivers_one_mail() {
        let mut s = greeted();
        assert_eq!(
            s.handle(Command::mail_from(Some(addr("a@b.example"))), &all_exist)
                .code(),
            250
        );
        assert_eq!(
            s.handle(Command::rcpt_to(addr("u@d.example")), &all_exist)
                .code(),
            250
        );
        assert_eq!(s.handle(Command::Data, &all_exist).code(), 354);
        assert_eq!(s.data_line(b"Subject: hi"), DataVerdict::More);
        assert_eq!(s.data_line(b""), DataVerdict::More);
        assert_eq!(s.data_line(b"body"), DataVerdict::More);
        assert_eq!(s.data_line(b"."), DataVerdict::Complete);
        let env = s.end_data().unwrap();
        assert_eq!(env.recipients.len(), 1);
        assert_eq!(
            s.outcome(true),
            SessionOutcome::Unfinished,
            "not stored yet"
        );
        s.accept();
        assert_eq!(s.handle(Command::Quit, &all_exist).code(), 221);
        assert_eq!(s.outcome(true), SessionOutcome::Delivered);
    }

    #[test]
    fn bounce_connection_is_classified() {
        let mut s = greeted();
        s.handle(Command::mail_from(None), &none_exist);
        let r = s.handle(Command::rcpt_to(addr("guess@x.example")), &none_exist);
        assert_eq!(r.code(), 550);
        s.handle(Command::Quit, &none_exist);
        assert_eq!(s.outcome(true), SessionOutcome::Bounce);
        assert_eq!(s.rejected_rcpts(), 1);
        assert!(!s.trusted(TrustPoint::AfterValidRcpt));
        // The same dialogue cut short by the server is no bounce.
        assert_eq!(s.outcome(false), SessionOutcome::Unfinished);
    }

    #[test]
    fn unfinished_connection_is_classified() {
        let mut s = greeted();
        s.handle(Command::Quit, &all_exist);
        assert_eq!(s.outcome(true), SessionOutcome::Unfinished);
    }

    #[test]
    fn trust_point_triggers_on_first_valid_rcpt() {
        let mut s = greeted();
        s.handle(Command::mail_from(None), &all_exist);
        assert!(!s.trusted(TrustPoint::AfterValidRcpt));
        // One 550 first: still untrusted.
        s.handle(Command::rcpt_to(addr("bad@x.example")), &none_exist);
        assert!(!s.trusted(TrustPoint::AfterValidRcpt));
        s.handle(Command::rcpt_to(addr("ok@x.example")), &all_exist);
        assert!(s.trusted(TrustPoint::AfterValidRcpt));
    }

    #[test]
    fn earlier_trust_points_trust_earlier() {
        let mut s = ServerSession::new(SessionConfig::default());
        let at = |s: &ServerSession| {
            [
                TrustPoint::AfterAccept,
                TrustPoint::AfterHelo,
                TrustPoint::AfterValidRcpt,
            ]
            .map(|point| s.trusted(point))
        };
        assert_eq!(at(&s), [true, false, false]);
        s.handle(Command::helo("c.example"), &all_exist);
        assert_eq!(at(&s), [true, true, false]);
        s.handle(Command::mail_from(None), &all_exist);
        s.handle(Command::rcpt_to(addr("ok@x.example")), &all_exist);
        assert_eq!(at(&s), [true, true, true]);
    }

    #[test]
    fn handle_line_parses_checks_hosted_local_parts_and_answers_501() {
        let hosted: HashSet<String> = HashSet::from(["alice".to_owned()]);
        let mut s = ServerSession::new(SessionConfig::default());
        let mut step = |line: &[u8]| {
            let (reply, verb) = s.handle_line(line, &hosted);
            (reply.code(), verb)
        };
        assert_eq!(step(b"HELO c.example"), (250, "HELO"));
        assert_eq!(step(b"MAIL FROM:<junk>"), (501, "?"));
        assert_eq!(step(b"MAIL FROM:<>"), (250, "MAIL"));
        assert_eq!(step(b"RCPT TO:<bob@dept.example>"), (550, "RCPT"));
        // The domain is not consulted: the local part decides.
        assert_eq!(step(b"RCPT TO:<alice@elsewhere.example>"), (250, "RCPT"));
        assert_eq!(step(b"XEXP"), (500, "?"));
        assert_eq!(s.commands_handled(), 5, "a 501 never reaches handle");
    }

    #[test]
    fn multi_recipient_mail_collects_all() {
        let mut s = greeted();
        s.handle(Command::mail_from(None), &all_exist);
        for i in 0..7 {
            let r = s.handle(
                Command::rcpt_to(addr(&format!("u{i}@d.example"))),
                &all_exist,
            );
            assert_eq!(r.code(), 250);
        }
        s.handle(Command::Data, &all_exist);
        let env = s.end_data_sized(4096).unwrap();
        assert_eq!(env.recipients.len(), 7);
        assert_eq!(env.body_size, 4096);
    }

    #[test]
    fn recipient_limit_enforced() {
        let mut s = greeted();
        s.handle(Command::mail_from(None), &all_exist);
        for i in 0..MAX_RECIPIENTS {
            let r = s.handle(
                Command::rcpt_to(addr(&format!("u{i}@d.example"))),
                &all_exist,
            );
            assert_eq!(r.code(), 250);
        }
        let r = s.handle(Command::rcpt_to(addr("over@d.example")), &all_exist);
        assert_eq!(r.code(), 452);
    }

    #[test]
    fn sequence_errors() {
        let mut s = ServerSession::new(SessionConfig::default());
        // MAIL before HELO.
        assert_eq!(s.handle(Command::mail_from(None), &all_exist).code(), 503);
        s.handle(Command::helo("c.example"), &all_exist);
        // RCPT before MAIL.
        assert_eq!(
            s.handle(Command::rcpt_to(addr("a@d.example")), &all_exist)
                .code(),
            503
        );
        // DATA before RCPT.
        s.handle(Command::mail_from(None), &all_exist);
        assert_eq!(s.handle(Command::Data, &all_exist).code(), 503);
    }

    #[test]
    fn data_without_valid_rcpt_is_rejected() {
        let mut s = greeted();
        s.handle(Command::mail_from(None), &none_exist);
        s.handle(Command::rcpt_to(addr("bad@x.example")), &none_exist);
        // Still in MailGiven phase: DATA must be refused.
        assert_eq!(s.handle(Command::Data, &none_exist).code(), 503);
    }

    #[test]
    fn rset_clears_transaction() {
        let mut s = greeted();
        s.handle(Command::mail_from(Some(addr("a@b.example"))), &all_exist);
        s.handle(Command::rcpt_to(addr("u@d.example")), &all_exist);
        s.handle(Command::Rset, &all_exist);
        assert!(!s.trusted(TrustPoint::AfterValidRcpt));
        // Must re-issue MAIL before RCPT.
        assert_eq!(
            s.handle(Command::rcpt_to(addr("u@d.example")), &all_exist)
                .code(),
            503
        );
    }

    fn end_one(s: &mut ServerSession) -> Envelope {
        assert_eq!(s.handle(Command::mail_from(None), &all_exist).code(), 250);
        s.handle(Command::rcpt_to(addr("u@d.example")), &all_exist);
        s.handle(Command::Data, &all_exist);
        s.end_data_sized(10).unwrap()
    }

    #[test]
    fn only_accepted_mails_count_against_the_transaction_limit() {
        let mut s = greeted();
        // Mails the store refused are ended but never accepted.
        for _ in 0..2 * MAX_TRANSACTIONS {
            assert_eq!(end_one(&mut s).body_size, 10);
        }
        assert_eq!(s.outcome(true), SessionOutcome::Unfinished);
        for _ in 0..MAX_TRANSACTIONS {
            end_one(&mut s);
            s.accept();
        }
        assert_eq!(s.handle(Command::mail_from(None), &all_exist).code(), 452);
        assert_eq!(s.outcome(true), SessionOutcome::Delivered);
    }

    /// The benchmark's layer probes end `DATA` through the three shims:
    /// one `250` on the wire, the envelope taken once.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "pins the shims benchmark/src/layers.rs calls"
    )]
    fn the_benchmark_shims_answer_250_and_hand_over_the_envelope() {
        let mut s = greeted();
        s.capture_bodies(true);
        s.handle(Command::mail_from(None), &all_exist);
        s.handle(Command::rcpt_to(addr("u@d.example")), &all_exist);
        s.handle(Command::Data, &all_exist);
        s.data_line(b"hi");
        assert_eq!(s.data_line(b"."), DataVerdict::Complete);
        let mut wire = Vec::new();
        s.finish_data("1").write_wire(&mut wire);
        assert_eq!(wire, Reply::queued("1").to_wire().as_bytes());
        let env = s.take_last_delivered().unwrap();
        assert_eq!(env.body.as_slice(), b"hi\r\n");
        assert_eq!(s.take_last_delivered(), None);
        assert_eq!(s.outcome(true), SessionOutcome::Delivered);
        s.handle(Command::mail_from(None), &all_exist);
        s.handle(Command::rcpt_to(addr("u@d.example")), &all_exist);
        s.handle(Command::Data, &all_exist);
        assert_eq!(s.finish_data_sized("2", 4096).code(), 250);
        assert_eq!(s.take_last_delivered().unwrap().body_size, 4096);
    }

    #[test]
    fn provided_body_buffer_capacity_is_reused() {
        let mut s = greeted();
        s.capture_bodies(true);
        s.provide_body_buffer(Vec::with_capacity(4096));
        s.handle(Command::mail_from(None), &all_exist);
        s.handle(Command::rcpt_to(addr("u@d.example")), &all_exist);
        s.handle(Command::Data, &all_exist);
        s.data_line(b"hello");
        s.data_line(b".");
        let env = s.end_data().unwrap();
        assert_eq!(env.body.as_slice(), b"hello\r\n");
        assert!(env.body.capacity() >= 4096, "body grew into the donation");
    }

    #[test]
    fn body_buffer_donation_ignored_mid_capture() {
        let mut s = greeted();
        s.capture_bodies(true);
        s.handle(Command::mail_from(None), &all_exist);
        s.handle(Command::rcpt_to(addr("u@d.example")), &all_exist);
        s.handle(Command::Data, &all_exist);
        s.data_line(b"kept");
        s.provide_body_buffer(Vec::with_capacity(64));
        s.data_line(b".");
        assert_eq!(s.end_data().unwrap().body.as_slice(), b"kept\r\n");
    }

    #[test]
    fn multiple_transactions_per_connection() {
        let mut s = greeted();
        for _ in 0..3 {
            end_one(&mut s);
            s.accept();
        }
        assert_eq!(s.accepted, 3);
        assert_eq!(s.outcome(true), SessionOutcome::Delivered);
    }

    #[test]
    fn dot_stuffing_is_removed() {
        let mut s = greeted();
        s.capture_bodies(true);
        s.handle(Command::mail_from(None), &all_exist);
        s.handle(Command::rcpt_to(addr("u@d.example")), &all_exist);
        s.handle(Command::Data, &all_exist);
        s.data_line(b"..leading dot");
        s.data_line(b".");
        let body = s.end_data().unwrap().body;
        assert_eq!(body.as_slice(), b".leading dot\r\n");
    }

    #[test]
    fn unknown_command_gets_500_and_noop_ok() {
        let mut s = greeted();
        assert_eq!(
            s.handle(Command::Unknown("XEXP".into()), &all_exist).code(),
            500
        );
        assert_eq!(s.handle(Command::Noop, &all_exist).code(), 250);
        assert_eq!(s.handle(Command::Vrfy("x".into()), &all_exist).code(), 252);
    }

    #[test]
    fn size_tracked_without_capture() {
        let mut s = greeted();
        s.handle(Command::mail_from(None), &all_exist);
        s.handle(Command::rcpt_to(addr("u@d.example")), &all_exist);
        s.handle(Command::Data, &all_exist);
        s.data_line(b"12345");
        s.data_line(b".");
        let env = s.end_data().unwrap();
        // 5 content bytes + CRLF.
        assert_eq!(env.body_size, 7);
        assert!(env.body.is_empty());
    }
}

#[cfg(test)]
mod size_limit_tests {
    use super::*;

    fn all_exist(_: &MailAddr) -> bool {
        true
    }

    fn to_data_phase() -> ServerSession {
        let mut s = ServerSession::new(SessionConfig::default());
        s.handle(Command::helo("c.example"), &all_exist);
        s.handle(Command::mail_from(None), &all_exist);
        s.handle(
            Command::rcpt_to("u@d.example".parse().expect("valid")),
            &all_exist,
        );
        s.handle(Command::Data, &all_exist);
        s
    }

    #[test]
    fn oversized_message_draws_552_and_is_discarded() {
        let mut s = to_data_phase();
        let refused = s.end_data_sized(MAX_MESSAGE_SIZE + 1).unwrap_err();
        assert_eq!(refused.code(), 552);
        // Session is usable for the next transaction.
        assert_eq!(s.phase(), SessionPhase::Greeted);
        assert_eq!(s.outcome(true), SessionOutcome::Unfinished);
    }

    #[test]
    fn message_at_limit_is_accepted() {
        let mut s = to_data_phase();
        let env = s.end_data_sized(MAX_MESSAGE_SIZE).unwrap();
        assert_eq!(env.body_size, MAX_MESSAGE_SIZE);
    }

    #[test]
    fn capture_stops_at_the_limit_and_the_dot_still_draws_552() {
        const LIMIT: usize = MAX_MESSAGE_SIZE as usize;
        let mut s = to_data_phase();
        s.capture_bodies(true);
        let line = [b'x'; 98]; // 100 bytes with its CRLF
        for _ in 0..2 * LIMIT / 100 {
            assert_eq!(s.data_line(&line), DataVerdict::More);
            assert!(
                s.body.capacity() <= LIMIT + 100,
                "capture buffer grew to {} under a {LIMIT}-byte limit",
                s.body.capacity()
            );
        }
        assert_eq!(s.data_line(b"."), DataVerdict::Complete);
        assert_eq!(s.end_data().unwrap_err().code(), 552);
        // The buffer is handed back, empty, for its owner to recycle.
        let buf = s.take_body_buffer();
        assert!(buf.is_empty() && buf.capacity() > 0);
        assert_eq!(s.phase(), SessionPhase::Greeted);
    }

    #[test]
    fn captured_message_at_limit_is_accepted_whole() {
        let mut s = to_data_phase();
        s.capture_bodies(true);
        // 1 KiB with its CRLF, as many as make exactly the limit.
        for _ in 0..MAX_MESSAGE_SIZE / 1024 {
            s.data_line(&[b'a'; 1022]);
        }
        s.data_line(b".");
        let env = s.end_data().unwrap();
        assert_eq!(env.body.len() as u64, MAX_MESSAGE_SIZE);
        assert_eq!(env.body_size, MAX_MESSAGE_SIZE);
    }
}
