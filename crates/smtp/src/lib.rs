#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // DESIGN.md §9
#![deny(clippy::unreachable, clippy::iter_over_hash_type)]
//! SMTP protocol engine: commands, replies, addresses, and the server-side
//! session state machine.
//!
//! Both the discrete-event simulation (`spamaware-server`) and the live
//! threaded TCP server (`spamaware-core::live`) drive the same
//! [`ServerSession`] state machine, so protocol behaviour — including the
//! paper's bounce (`550 User unknown`) and unfinished-transaction handling —
//! is implemented exactly once. So are the per-connection decisions both
//! servers make around it: where trust is earned
//! ([`ServerSession::trusted`] at a [`TrustPoint`]), which recipients are
//! hosted ([`ServerSession::handle_hosted`]), how a wire line becomes a
//! reply ([`ServerSession::handle_line`]), and how the connection is
//! classified ([`ServerSession::outcome`], the §4.1 taxonomy).
//!
//! # Example
//!
//! ```
//! use spamaware_smtp::{Command, MailAddr, ServerSession, SessionConfig};
//!
//! let mut s = ServerSession::new(SessionConfig::default());
//! let exists = |a: &MailAddr| a.local_part() == "alice";
//!
//! assert_eq!(s.greeting().code(), 220);
//! assert_eq!(s.handle(Command::helo("client.example"), &exists).code(), 250);
//! let from = Command::mail_from(Some("bob@remote.example".parse()?));
//! assert_eq!(s.handle(from, &exists).code(), 250);
//! // Random-guessing spam: an invalid mailbox draws the bounce reply.
//! let bad = Command::rcpt_to("nosuchuser@local.example".parse()?);
//! assert_eq!(s.handle(bad, &exists).code(), 550);
//! let good = Command::rcpt_to("alice@local.example".parse()?);
//! assert_eq!(s.handle(good, &exists).code(), 250);
//! # Ok::<(), spamaware_smtp::ParseAddrError>(())
//! ```

mod addr;
mod command;
mod reply;
mod session;

pub use addr::{MailAddr, ParseAddrError};
pub use command::{Command, ParseCommandError};
pub use reply::Reply;
pub use session::{
    DataVerdict, Envelope, ServerSession, SessionConfig, SessionOutcome, SessionPhase, TrustPoint,
};
