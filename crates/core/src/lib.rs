#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // DESIGN.md §9
#![deny(clippy::unreachable)]
//! Spam-aware high-performance mail server — the live server.
//!
//! Reproduction of Pathak, Jafri & Hu, *"The Case for Spam-Aware High
//! Performance Mail Server Architecture"* (ICDCS 2009). This crate is the
//! deployable server: real sockets, a real on-disk store, and the paper's
//! three optimizations wired together.
//!
//! | Optimization | Crate | Live entry point |
//! |---|---|---|
//! | Fork-after-trust concurrency (§5) | this crate | [`pretrust`] master → [`posttrust`] workers, wired by [`LiveServer`] |
//! | MFS single-copy mail store (§6) | `spamaware-mfs` | [`ShardedStore`] over [`RealDir`] |
//! | Prefix-based DNSBL caching (§7) | `spamaware-dnsbl` | [`CachingResolver`](spamaware_dnsbl::CachingResolver) with [`CacheScheme::PerPrefix`](spamaware_dnsbl::CacheScheme::PerPrefix), on the DNSBL agent thread |
//!
//! Beside SMTP, [`Pop3Server`] reads and deletes from the same store, a
//! localhost admin socket serves [`LiveServer::metrics_report`], and the
//! `spamawarectl` binary serves, inspects, checks and compacts a spool.
//! Every peer-facing thread runs one session engine, [`driver`], over a
//! [`reactor`]. The discrete-event simulator that regenerates the paper's
//! figures is not here: its engines are `spamaware-server`, its runner
//! the `figures` binary of `spamaware-bench`.
//!
//! # Quickstart
//!
//! ```
//! use spamaware_core::{LiveConfig, LiveServer};
//! use std::io::{BufRead, BufReader};
//! use std::net::TcpStream;
//!
//! let spool = std::env::temp_dir().join(format!("spamaware-quickstart-{}", std::process::id()));
//! let server = LiveServer::start(LiveConfig::localhost(&spool, vec!["alice".into()]))?;
//! let mut greeting = String::new();
//! BufReader::new(TcpStream::connect(server.local_addr())?).read_line(&mut greeting)?;
//! assert!(greeting.starts_with("220 "));
//! server.shutdown();
//! std::fs::remove_dir_all(&spool)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod dnsbl_agent;
pub mod driver;
mod instruments;
mod linebuf;
mod live;
mod pool;
mod pop3;
pub mod posttrust;
pub mod pretrust;
pub mod reactor;

pub use instruments::{LiveSnapshot, LiveStats};
pub use linebuf::{LineBuffer, LineOverflow, MAX_LINE};
pub use live::{LiveConfig, LiveServer};
pub use pool::BufferPool;
pub use pop3::{Pop3Server, Pop3Stats};

// The store and dialogue types a caller of this crate (`spamawarectl`, the
// tests, the benchmark) names through it.
pub use spamaware_mfs::{fsck, MailStore, MfsStore, RealDir, ShardedStore, SyncBackend};
pub use spamaware_smtp::{Reply, TrustPoint};

use std::fmt;

/// Errors starting or running the live server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Invalid configuration.
    Config(String),
    /// Socket or storage I/O failure.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "invalid server configuration: {m}"),
            ServeError::Io(m) => write!(f, "server i/o error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
