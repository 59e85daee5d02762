//! Lockstep SMTP and POP3 clients: one command, one reply, like the
//! paper's §3 closed-system client. Each function runs one session on a
//! fresh connection and reports what the sender saw; with a span sink it
//! also records a span around every command.

use crate::script::{self, Bodies, SessionSpec};
use spamaware_mfs::MailId;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Read timeout on every socket; a timeout is a failed operation.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The spans a traced run records. `Session` is the parent of all others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Connect to the final reply of one SMTP session.
    Session,
    /// Connect to the `220` greeting.
    Greet,
    /// `HELO` to `250`.
    Helo,
    /// `MAIL FROM` to `250`.
    Mail,
    /// One `RCPT TO` to its `250` or `550`.
    Rcpt,
    /// `DATA` to `354`.
    Data354,
    /// Body and final dot to `250`.
    BodyTo250,
    /// `QUIT` to `221`.
    Quit,
    /// Connect to the final reply of one POP3 session.
    Pop3Session,
    /// Connect, greeting, `USER`, `PASS`.
    Pop3Auth,
    /// `STAT` and `LIST`.
    Pop3StatList,
    /// One `RETR` to the last byte of the mail.
    Pop3Retr,
    /// The `DELE` marks and the `QUIT` that applies them.
    Pop3Dele,
}

impl SpanKind {
    /// The children of the session spans, in reporting order.
    pub const CHILDREN: [SpanKind; 11] = [
        SpanKind::Greet,
        SpanKind::Helo,
        SpanKind::Mail,
        SpanKind::Rcpt,
        SpanKind::Data354,
        SpanKind::BodyTo250,
        SpanKind::Quit,
        SpanKind::Pop3Auth,
        SpanKind::Pop3StatList,
        SpanKind::Pop3Retr,
        SpanKind::Pop3Dele,
    ];

    /// The metric stem: `client.<name>_us`.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Greet => "greet",
            SpanKind::Helo => "helo",
            SpanKind::Mail => "mail",
            SpanKind::Rcpt => "rcpt",
            SpanKind::Data354 => "data354",
            SpanKind::BodyTo250 => "body_to_250",
            SpanKind::Quit => "quit",
            SpanKind::Pop3Session => "pop3_session",
            SpanKind::Pop3Auth => "pop3_auth",
            SpanKind::Pop3StatList => "pop3_stat_list",
            SpanKind::Pop3Retr => "pop3_retr",
            SpanKind::Pop3Dele => "pop3_dele",
        }
    }
}

/// One recorded span; times are nanoseconds on the run's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The session this span belongs to (its replay position; POP3
    /// sessions count from `1 << 56`).
    pub session: u64,
    /// What was timed.
    pub kind: SpanKind,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

/// The run's clock plus, on a traced run, where spans go.
pub struct Tracer<'a> {
    /// Zero of the run's clock.
    pub base: Instant,
    /// Span sink; `None` on an untraced run.
    pub spans: Option<&'a mut Vec<Span>>,
}

impl Tracer<'_> {
    /// Nanoseconds since the run's clock started.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Records `kind` from `start_ns` to now and returns now, so
    /// back-to-back spans share their boundary and leave no gap.
    fn close(&mut self, session: u64, kind: SpanKind, start_ns: u64) -> u64 {
        let end_ns = self.now();
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.push(Span {
                session,
                kind,
                start_ns,
                end_ns,
            });
        }
        end_ns
    }
}

/// Buffers a generator thread reuses across sessions, so the client's own
/// allocator work stays out of the measurement.
#[derive(Default)]
pub struct Buffers {
    out: Vec<u8>,
    inp: Vec<u8>,
}

fn unexpected(what: &str, got: &[u8]) -> io::Error {
    let shown = String::from_utf8_lossy(&got[..got.len().min(80)]).into_owned();
    io::Error::new(ErrorKind::InvalidData, format!("{what}: got {shown:?}"))
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// Reads one SMTP reply (through the line whose code is followed by a
/// space) into `inp` and returns its code.
fn read_reply(stream: &mut TcpStream, inp: &mut Vec<u8>) -> io::Result<u16> {
    inp.clear();
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        inp.extend_from_slice(&chunk[..n]);
        if !inp.ends_with(b"\n") {
            continue;
        }
        let last = inp[..inp.len() - 1]
            .rsplit(|&b| b == b'\n')
            .next()
            .unwrap_or(&[]);
        if last.len() >= 4 && last[3] == b' ' {
            return std::str::from_utf8(&last[..3])
                .ok()
                .and_then(|c| c.parse().ok())
                .ok_or_else(|| unexpected("reply code", last));
        }
    }
}

/// Sends `line` + CRLF and expects reply `code`.
fn command(stream: &mut TcpStream, buf: &mut Buffers, line: &str, code: u16) -> io::Result<()> {
    buf.out.clear();
    buf.out.extend_from_slice(line.as_bytes());
    buf.out.extend_from_slice(b"\r\n");
    stream.write_all(&buf.out)?;
    let got = read_reply(stream, &mut buf.inp)?;
    if got == code {
        Ok(())
    } else {
        Err(unexpected(line, &buf.inp))
    }
}

/// What a completed SMTP session delivered: the server's id for the mail,
/// when there was one.
pub type Delivered = Option<u64>;

/// Where a failed SMTP session stopped, for the verifier's in-flight
/// allowance.
#[derive(Debug)]
pub struct SmtpFailure {
    /// The body had been sent, so the mail may be stored without an ack.
    pub body_sent: bool,
    /// What went wrong.
    pub error: io::Error,
}

/// Runs the SMTP session `spec` at replay position `key`.
pub fn smtp_session(
    addr: SocketAddr,
    key: u64,
    spec: &SessionSpec,
    bodies: &Bodies,
    buf: &mut Buffers,
    tracer: &mut Tracer<'_>,
) -> Result<Delivered, SmtpFailure> {
    let mut body_sent = false;
    let mut run = || -> io::Result<Delivered> {
        let t0 = tracer.now();
        let mut stream = connect(addr)?;
        if read_reply(&mut stream, &mut buf.inp)? != 220 {
            return Err(unexpected("greeting", &buf.inp));
        }
        let mut t = tracer.close(key, SpanKind::Greet, t0);
        command(&mut stream, buf, script::HELO, 250)?;
        t = tracer.close(key, SpanKind::Helo, t);
        command(&mut stream, buf, &script::mail_from_line(key), 250)?;
        t = tracer.close(key, SpanKind::Mail, t);
        for n in 0..spec.invalid {
            command(&mut stream, buf, &script::rcpt_invalid_line(key, n), 550)?;
            t = tracer.close(key, SpanKind::Rcpt, t);
        }
        for &mailbox in &spec.rcpts {
            command(&mut stream, buf, &script::rcpt_line(mailbox), 250)?;
            t = tracer.close(key, SpanKind::Rcpt, t);
        }
        let mut delivered = None;
        if spec.delivers() {
            command(&mut stream, buf, script::DATA, 354)?;
            t = tracer.close(key, SpanKind::Data354, t);
            buf.out.clear();
            bodies.write_body(key, spec.size, &mut buf.out);
            buf.out.extend_from_slice(b".\r\n");
            stream.write_all(&buf.out)?;
            body_sent = true;
            if read_reply(&mut stream, &mut buf.inp)? != 250 {
                return Err(unexpected("end of data", &buf.inp));
            }
            t = tracer.close(key, SpanKind::BodyTo250, t);
            let id = buf
                .inp
                .rsplit(|&b| b == b' ')
                .next()
                .and_then(|w| std::str::from_utf8(w).ok())
                .and_then(|w| w.trim().parse::<MailId>().ok())
                .ok_or_else(|| unexpected("queued id", &buf.inp))?;
            delivered = Some(id.0);
        }
        command(&mut stream, buf, script::QUIT, 221)?;
        tracer.close(key, SpanKind::Quit, t);
        tracer.close(key, SpanKind::Session, t0);
        Ok(delivered)
    };
    run().map_err(|error| SmtpFailure { body_sent, error })
}

/// Connects, reads the `220` and quits: the probe that ends set-up.
pub fn smtp_greeting_probe(addr: SocketAddr) -> io::Result<()> {
    let mut stream = connect(addr)?;
    let mut buf = Buffers::default();
    if read_reply(&mut stream, &mut buf.inp)? != 220 {
        return Err(unexpected("greeting", &buf.inp));
    }
    command(&mut stream, &mut buf, script::QUIT, 221)
}

/// Reads one POP3 reply into `inp`: a single `+OK` line, or with
/// `multiline` everything through the lone-dot line.
fn pop3_reply(stream: &mut TcpStream, inp: &mut Vec<u8>, multiline: bool) -> io::Result<()> {
    inp.clear();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        inp.extend_from_slice(&chunk[..n]);
        if !inp.starts_with(b"+OK") && inp.len() >= 3 {
            return Err(unexpected("pop3", inp));
        }
        let done = if multiline {
            inp.ends_with(b"\r\n.\r\n")
        } else {
            inp.ends_with(b"\r\n")
        };
        if done {
            return Ok(());
        }
    }
}

fn pop3_command(
    stream: &mut TcpStream,
    buf: &mut Buffers,
    line: &str,
    multiline: bool,
) -> io::Result<()> {
    buf.out.clear();
    buf.out.extend_from_slice(line.as_bytes());
    buf.out.extend_from_slice(b"\r\n");
    stream.write_all(&buf.out)?;
    pop3_reply(stream, &mut buf.inp, multiline)
}

/// What one POP3 session did.
#[derive(Debug, Default)]
pub struct Pop3Outcome {
    /// Keys of the mails it deleted.
    pub deleted: Vec<u64>,
    /// `RETR` to last byte, nanoseconds, one per retrieval, with the
    /// instant each ended.
    pub retrs: Vec<(u64, u64)>,
}

/// Runs one POP3 session on `mailbox`: authenticate, `STAT`, `LIST`,
/// `RETR` the newest [`script::POP3_RETR`] mails (checking each against
/// the body its key implies), `DELE` the first [`script::POP3_DELE`] of
/// them, `QUIT`.
pub fn pop3_session(
    addr: SocketAddr,
    session: u64,
    mailbox: u32,
    bodies: &Bodies,
    buf: &mut Buffers,
    tracer: &mut Tracer<'_>,
) -> io::Result<Pop3Outcome> {
    let mut outcome = Pop3Outcome::default();
    let t0 = tracer.now();
    let mut stream = connect(addr)?;
    pop3_reply(&mut stream, &mut buf.inp, false)?;
    pop3_command(&mut stream, buf, &format!("USER user{mailbox}"), false)?;
    pop3_command(&mut stream, buf, "PASS x", false)?;
    let count: usize = buf
        .inp
        .split(|&b| b == b' ')
        .nth(1)
        .and_then(|w| std::str::from_utf8(w).ok())
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| unexpected("PASS", &buf.inp))?;
    let mut t = tracer.close(session, SpanKind::Pop3Auth, t0);
    pop3_command(&mut stream, buf, "STAT", false)?;
    pop3_command(&mut stream, buf, "LIST", true)?;
    t = tracer.close(session, SpanKind::Pop3StatList, t);
    let first = count.saturating_sub(script::POP3_RETR) + 1;
    for index in first..=count {
        pop3_command(&mut stream, buf, &format!("RETR {index}"), true)?;
        let end = tracer.close(session, SpanKind::Pop3Retr, t);
        outcome.retrs.push((end, end - t));
        t = end;
        // "+OK n octets\r\n" <body> ".\r\n"
        let start = buf
            .inp
            .iter()
            .position(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        let raw = &buf.inp[start..buf.inp.len() - 3];
        // The server splits the stored body on "\n" and so sends one
        // empty line after a body that ends in CRLF; a server that stops
        // doing that is accepted as well.
        let body = raw
            .strip_suffix(b"\r\n")
            .filter(|b| b.ends_with(b"\r\n"))
            .unwrap_or(raw);
        let key = script::parse_key(body).ok_or_else(|| unexpected("RETR header", body))?;
        if !bodies.matches(key, script::SMALL_MAIL, body) {
            return Err(unexpected("RETR body", body));
        }
        if index < first + script::POP3_DELE {
            outcome.deleted.push(key);
        }
    }
    for index in first..(first + script::POP3_DELE).min(count + 1) {
        pop3_command(&mut stream, buf, &format!("DELE {index}"), false)?;
    }
    pop3_command(&mut stream, buf, "QUIT", false)?;
    tracer.close(session, SpanKind::Pop3Dele, t);
    tracer.close(session, SpanKind::Pop3Session, t0);
    Ok(outcome)
}
