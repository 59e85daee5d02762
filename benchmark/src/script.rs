//! The four workloads as seeded scripts.
//!
//! A script is a list of SMTP session specs the generator replays in
//! order (wrapping when a window outlasts it) plus, for `pop3_mixed`, the
//! order in which mailboxes are read. Everything derives from the seed;
//! the server only ever sees the bytes rendered here.
//!
//! Every mail is addressed by a `key`: the position of its session in the
//! replay for delivered mail, [`seed_key`] for pre-seeded mail. The body
//! is a function of the key alone — one header line carrying the key,
//! then a run of 72-character lines out of a seeded pool — so the
//! verifier and the POP3 reader can rebuild the expected bytes of any
//! mail without the generator having stored or hashed them.

use rand::Rng;
use spamaware_sim::det_rng;
use spamaware_trace::{bounce_sweep_trace, draw_distinct_mailboxes, ConnectionKind};
use std::io::Write;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 4 KiB mail to one of 400 mailboxes per session.
    HamSmall,
    /// Fig. 8's regime: 90 % bounce sessions, 10 % deliveries.
    BounceFlood,
    /// One 32 KiB mail to 7 of 400 mailboxes per session.
    MultiRcptLarge,
    /// `ham_small` deliveries into 64 pre-seeded mailboxes, every ninth
    /// session a POP3 session that retrieves and deletes.
    Pop3Mixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::HamSmall,
        Workload::BounceFlood,
        Workload::MultiRcptLarge,
        Workload::Pop3Mixed,
    ];

    /// The name used on the command line and in every result.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HamSmall => "ham_small",
            Workload::BounceFlood => "bounce_flood",
            Workload::MultiRcptLarge => "multi_rcpt_large",
            Workload::Pop3Mixed => "pop3_mixed",
        }
    }

    /// SMTP sessions after which a server's peak memory is read: about a
    /// third of what one server is sent in its five seconds on the
    /// authoring host, so a server three times slower still gets there.
    pub fn rss_mark(self) -> u64 {
        match self {
            Workload::HamSmall => 8_000,
            Workload::BounceFlood => 12_000,
            Workload::MultiRcptLarge => 3_000,
            Workload::Pop3Mixed => 5_000,
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big the scripts and the pre-seeded spool are. `full` is what every
/// reported number uses; `smoke` exists so the tests can boot the real
/// pair in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Mailboxes the delivery-only workloads draw recipients from.
    pub mailboxes: u32,
    /// Connections in the `bounce_flood` trace.
    pub trace_connections: usize,
    /// Sessions in the other scripts before they wrap.
    pub script_sessions: usize,
    /// Mailboxes `pop3_mixed` hosts and pre-seeds.
    pub pop3_mailboxes: u32,
    /// Mails pre-seeded into each of them.
    pub pop3_seed_mails: u32,
}

impl Sizing {
    /// The sizes behind every reported number.
    pub fn full() -> Sizing {
        Sizing {
            mailboxes: 400,
            trace_connections: 200_000,
            script_sessions: 1 << 16,
            pop3_mailboxes: 64,
            pop3_seed_mails: 200,
        }
    }

    /// Test sizes: a 4×8 spool and short scripts.
    pub fn smoke() -> Sizing {
        Sizing {
            mailboxes: 16,
            trace_connections: 2_000,
            script_sessions: 512,
            pop3_mailboxes: 4,
            pop3_seed_mails: 8,
        }
    }
}

/// Bytes of a small mail, the smallest realistic message.
pub const SMALL_MAIL: u32 = 4 * 1024;
/// Bytes of a large mail.
pub const LARGE_MAIL: u32 = 32 * 1024;
/// Recipients of a large mail (the paper's spam mean).
pub const LARGE_RCPTS: u8 = 7;
/// Trace sizes are clamped here so one 5 MiB draw cannot own a slice.
pub const MAX_MAIL: u32 = 64 * 1024;
/// The bounce share of `bounce_flood`.
pub const BOUNCE_RATIO: f64 = 0.9;
/// Deliveries each generator thread makes between two POP3 sessions on
/// `pop3_mixed`.
pub const SMTP_PER_POP3: u64 = 8;
/// Mails a POP3 session retrieves (the newest ones).
pub const POP3_RETR: usize = 10;
/// Of those, how many it deletes.
pub const POP3_DELE: usize = 2;

/// What one SMTP session does: `RCPT`s to `invalid` unknown users, then
/// to each of `rcpts`; with at least one valid recipient it sends a mail
/// of about `size` bytes, otherwise it quits after the `550`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Valid recipients, as mailbox numbers.
    pub rcpts: Vec<u32>,
    /// `RCPT`s to unknown users, each answered `550`.
    pub invalid: u8,
    /// Target body size in bytes.
    pub size: u32,
}

impl SessionSpec {
    /// Whether the session delivers a mail.
    pub fn delivers(&self) -> bool {
        !self.rcpts.is_empty()
    }
}

/// A workload's seeded script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// Which workload this is.
    pub workload: Workload,
    /// Mailboxes the server hosts (`user0..`).
    pub mailboxes: u32,
    /// SMTP sessions, replayed in order and wrapped.
    pub sessions: Vec<SessionSpec>,
    /// Mailboxes the POP3 reader visits, in order and wrapped; empty
    /// except on `pop3_mixed`.
    pub pop3_plan: Vec<u32>,
    /// Mails pre-seeded per mailbox before boot; 0 except on `pop3_mixed`.
    pub seed_mails: u32,
}

impl Script {
    /// Builds the script of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64, sizing: Sizing) -> Script {
        let mut rng = det_rng(seed ^ 0xBE7C_0000 ^ workload as u64);
        let single = |rng: &mut rand::rngs::StdRng, boxes: u32| SessionSpec {
            rcpts: vec![rng.gen_range(0..boxes)],
            invalid: 0,
            size: SMALL_MAIL,
        };
        let mut script = Script {
            workload,
            mailboxes: sizing.mailboxes,
            sessions: Vec::new(),
            pop3_plan: Vec::new(),
            seed_mails: 0,
        };
        match workload {
            Workload::HamSmall => {
                script.sessions = (0..sizing.script_sessions)
                    .map(|_| single(&mut rng, sizing.mailboxes))
                    .collect();
            }
            Workload::MultiRcptLarge => {
                script.sessions = (0..sizing.script_sessions / 4)
                    .map(|_| SessionSpec {
                        rcpts: draw_distinct_mailboxes(&mut rng, LARGE_RCPTS, sizing.mailboxes)
                            .into_iter()
                            .map(|m| m.0)
                            .collect(),
                        invalid: 0,
                        size: LARGE_MAIL,
                    })
                    .collect();
            }
            Workload::BounceFlood => {
                let trace = bounce_sweep_trace(
                    seed,
                    sizing.trace_connections,
                    BOUNCE_RATIO,
                    sizing.mailboxes,
                );
                script.sessions = trace
                    .connections
                    .iter()
                    .map(|c| match &c.kind {
                        ConnectionKind::Mail(mails) => SessionSpec {
                            rcpts: mails[0].valid_rcpts.iter().map(|m| m.0).collect(),
                            invalid: mails[0].invalid_rcpts,
                            size: mails[0].size.min(MAX_MAIL),
                        },
                        ConnectionKind::Bounce { rcpt_attempts } => SessionSpec {
                            rcpts: Vec::new(),
                            invalid: *rcpt_attempts,
                            size: 0,
                        },
                        ConnectionKind::Unfinished { .. } => SessionSpec {
                            rcpts: Vec::new(),
                            invalid: 0,
                            size: 0,
                        },
                    })
                    .collect();
            }
            Workload::Pop3Mixed => {
                script.mailboxes = sizing.pop3_mailboxes;
                script.seed_mails = sizing.pop3_seed_mails;
                script.sessions = (0..sizing.script_sessions)
                    .map(|_| single(&mut rng, sizing.pop3_mailboxes))
                    .collect();
                script.pop3_plan = (0..sizing.script_sessions / 16)
                    .map(|_| rng.gen_range(0..sizing.pop3_mailboxes))
                    .collect();
            }
        }
        script
    }

    /// The spec replayed at position `key`.
    pub fn spec(&self, key: u64) -> &SessionSpec {
        &self.sessions[(key % self.sessions.len() as u64) as usize]
    }

    /// The command lines of the session at `key`, without line ends, in
    /// the order the client sends them.
    pub fn command_lines(&self, key: u64) -> Vec<String> {
        let spec = self.spec(key);
        let mut lines = vec![HELO.to_owned(), mail_from_line(key)];
        lines.extend((0..spec.invalid).map(|n| rcpt_invalid_line(key, n)));
        lines.extend(spec.rcpts.iter().map(|&m| rcpt_line(m)));
        if spec.delivers() {
            lines.push(DATA.to_owned());
        }
        lines.push(QUIT.to_owned());
        lines
    }

    /// Everything the first `sessions` sessions put on the wire, in order:
    /// what "same seed, same inputs" means byte for byte.
    pub fn transcript(&self, bodies: &Bodies, sessions: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for key in 0..sessions {
            for line in self.command_lines(key) {
                out.extend_from_slice(line.as_bytes());
                out.extend_from_slice(b"\r\n");
                if line == DATA {
                    bodies.write_body(key, self.spec(key).size, &mut out);
                    out.extend_from_slice(b".\r\n");
                }
            }
        }
        for (n, mailbox) in self.pop3_plan.iter().enumerate() {
            let _ = write!(out, "POP3 {n} user{mailbox}\r\n");
        }
        out
    }
}

/// `HELO` as every session sends it.
pub const HELO: &str = "HELO client.bench.example";
/// `DATA`.
pub const DATA: &str = "DATA";
/// `QUIT`.
pub const QUIT: &str = "QUIT";

/// `MAIL FROM` of the session at `key`.
pub fn mail_from_line(key: u64) -> String {
    format!("MAIL FROM:<s{key}@client.bench.example>")
}

/// `RCPT TO` for hosted mailbox number `mailbox`.
pub fn rcpt_line(mailbox: u32) -> String {
    format!("RCPT TO:<user{mailbox}@dept.example>")
}

/// The `n`-th `RCPT TO` of session `key` that names no hosted mailbox.
pub fn rcpt_invalid_line(key: u64, n: u8) -> String {
    format!("RCPT TO:<ghost{}x{n}@dept.example>", key % 9973)
}

/// Key of the `k`-th mail pre-seeded into `mailbox`; above any replay
/// position a run can reach.
pub fn seed_key(mailbox: u32, k: u32) -> u64 {
    (1 << 48) | (u64::from(mailbox) << 24) | u64::from(k)
}

const LINE: usize = 74; // 72 characters + CRLF
const POOL_LINES: usize = 2048;
const HEADER_PREFIX: &[u8] = b"X-Bench-Key: ";
/// Header line length: prefix, 20 digits, CRLF.
const HEADER_LEN: usize = HEADER_PREFIX.len() + 20 + 2;

/// The seeded pool all mail bodies are cut from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bodies {
    /// `POOL_LINES` distinct lines followed by a repeat of the first
    /// `MAX_MAIL / LINE` of them, so a body starting at any line is one
    /// contiguous slice.
    pool: Vec<u8>,
}

impl Bodies {
    /// Builds the pool for `seed`: lines of lower-case letters, digits
    /// and spaces, so no line starts with a dot.
    pub fn generate(seed: u64) -> Bodies {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789    ";
        let mut rng = det_rng(seed ^ 0x00B0_D1E5);
        let mut pool = Vec::with_capacity((POOL_LINES + MAX_MAIL as usize / LINE + 1) * LINE);
        for _ in 0..POOL_LINES {
            pool.push(b'a' + rng.gen_range(0..26u8));
            pool.extend((1..LINE - 2).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]));
            pool.extend_from_slice(b"\r\n");
        }
        pool.extend_from_within(..(MAX_MAIL as usize / LINE + 1) * LINE);
        Bodies { pool }
    }

    /// The pool lines a body of `key` and target `size` consists of.
    fn slice(&self, key: u64, size: u32) -> &[u8] {
        let lines = (size.min(MAX_MAIL) as usize).saturating_sub(HEADER_LEN) / LINE;
        let start = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % POOL_LINES;
        &self.pool[start * LINE..(start + lines.max(1)) * LINE]
    }

    /// Exact byte length of the body of a mail with target `size`.
    pub fn body_len(&self, size: u32) -> usize {
        HEADER_LEN + self.slice(0, size).len()
    }

    /// Appends the body of mail `key` (every line CRLF-terminated, no
    /// final dot line) to `out`.
    pub fn write_body(&self, key: u64, size: u32, out: &mut Vec<u8>) {
        out.extend_from_slice(HEADER_PREFIX);
        let _ = write!(out, "{key:020}\r\n");
        out.extend_from_slice(self.slice(key, size));
    }

    /// Whether `body` is exactly the body of mail `key` with target
    /// `size`.
    pub fn matches(&self, key: u64, size: u32, body: &[u8]) -> bool {
        parse_key(body) == Some(key) && body[HEADER_LEN..] == *self.slice(key, size)
    }
}

/// Reads the key back out of a body's header line.
pub fn parse_key(body: &[u8]) -> Option<u64> {
    let digits = body
        .get(..HEADER_LEN)?
        .strip_prefix(HEADER_PREFIX)?
        .strip_suffix(b"\r\n")?;
    std::str::from_utf8(digits).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let make = |seed| {
                let script = Script::generate(w, seed, Sizing::smoke());
                let transcript = script.transcript(&Bodies::generate(seed), 200);
                (script, transcript)
            };
            let (a, ta) = make(1);
            let (b, tb) = make(1);
            let (c, tc) = make(2);
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(ta, tb, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
            assert_ne!(ta, tc, "{}", w.name());
        }
    }

    #[test]
    fn workloads_have_the_shape_the_readme_claims() {
        let full = Sizing::full();
        let ham = Script::generate(Workload::HamSmall, 1, full);
        assert!(ham
            .sessions
            .iter()
            .all(|s| s.rcpts.len() == 1 && s.invalid == 0));
        let large = Script::generate(Workload::MultiRcptLarge, 1, full);
        assert!(large.sessions.iter().all(|s| {
            let mut r = s.rcpts.clone();
            r.dedup();
            r.len() == 7 && s.size == LARGE_MAIL
        }));
        let flood = Script::generate(Workload::BounceFlood, 1, Sizing::smoke());
        let bounces = flood.sessions.iter().filter(|s| !s.delivers()).count();
        let share = bounces as f64 / flood.sessions.len() as f64;
        assert!((0.87..0.93).contains(&share), "bounce share {share}");
        assert!(flood.sessions.iter().all(|s| s.size <= MAX_MAIL));
        assert!(flood
            .sessions
            .iter()
            .all(|s| s.delivers() || s.invalid >= 1));
        let pop3 = Script::generate(Workload::Pop3Mixed, 1, full);
        assert_eq!((pop3.mailboxes, pop3.seed_mails), (64, 200));
        assert!(pop3.pop3_plan.iter().all(|&m| m < 64) && !pop3.pop3_plan.is_empty());
    }

    #[test]
    fn bodies_round_trip_and_stay_dot_free() {
        let bodies = Bodies::generate(3);
        for (key, size) in [
            (0u64, SMALL_MAIL),
            (77, LARGE_MAIL),
            (seed_key(5, 9), 100),
            (9, MAX_MAIL),
        ] {
            let mut body = Vec::new();
            bodies.write_body(key, size, &mut body);
            assert_eq!(body.len(), bodies.body_len(size));
            assert!(body.len() <= size.max(200) as usize);
            assert_eq!(parse_key(&body), Some(key));
            assert!(bodies.matches(key, size, &body));
            assert!(!bodies.matches(key + 1, size, &body));
            assert!(body
                .split(|&b| b == b'\n')
                .all(|l| l.first() != Some(&b'.')));
            assert!(body[HEADER_LEN..]
                .chunks(LINE)
                .all(|l| l.len() == LINE && l.ends_with(b"\r\n")));
        }
        assert!(bodies.body_len(SMALL_MAIL) > 4000);
    }

    #[test]
    fn command_lines_parse_as_smtp() {
        let script = Script::generate(Workload::BounceFlood, 1, Sizing::smoke());
        for key in 0..100 {
            for line in script.command_lines(key) {
                assert!(spamaware_smtp::Command::parse(&line).is_ok(), "{line}");
            }
        }
    }
}
