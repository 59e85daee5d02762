#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // DESIGN.md §9
#![deny(clippy::unreachable)]
//! Spam-aware high-performance mail server — the public facade.
//!
//! Reproduction of Pathak, Jafri & Hu, *"The Case for Spam-Aware High
//! Performance Mail Server Architecture"* (ICDCS 2009). The paper's three
//! optimizations live in the substrate crates and are tied together here:
//!
//! | Optimization | Crate | Entry point |
//! |---|---|---|
//! | Fork-after-trust concurrency (§5) | `spamaware-server` | [`ServerConfig::hybrid`] |
//! | MFS single-copy mail store (§6) | `spamaware-mfs` | [`spamaware_mfs::MfsStore`] |
//! | Prefix-based DNSBL caching (§7) | `spamaware-dnsbl` | [`spamaware_dnsbl::CacheScheme::PerPrefix`] |
//!
//! This crate adds:
//!
//! * [`experiment`] — one runner per paper table/figure (the benchmark
//!   harness and the EXPERIMENTS.md numbers come from here);
//! * [`combined_workload`] — the §8 mixed workload builder;
//! * [`LiveServer`] — a real TCP SMTP server wiring all three
//!   optimizations together over real sockets and a real on-disk store.
//!
//! # Quickstart (simulation)
//!
//! ```
//! use spamaware_core::experiment::{combined, CombinedWorkload, Scale};
//!
//! let result = combined(Scale::quick(), CombinedWorkload::Spam);
//! // The three optimizations outperform vanilla postfix on a spam-heavy
//! // workload (the paper reports +40% at full scale).
//! assert!(result.throughput_gain() > 0.0);
//! ```

mod dnsbl_agent;
pub mod driver;
pub mod experiment;
mod instruments;
mod linebuf;
mod live;
mod mix;
mod pool;
mod pop3;
pub mod posttrust;
pub mod pretrust;
pub mod reactor;

pub use instruments::{LiveSnapshot, LiveStats};
pub use linebuf::{LineBuffer, LineOverflow, MAX_LINE};
pub use live::{LiveConfig, LiveServer};
pub use mix::combined_workload;
pub use pool::BufferPool;
pub use pop3::{Pop3Server, Pop3Stats};

// Re-export the workspace's main types so downstream users can depend on
// this crate alone.
pub use spamaware_dnsbl::{
    BlacklistDb, BreakerDecision, CacheScheme, CachingResolver, CircuitBreaker, DnsblServer,
    LatencyModel,
};
pub use spamaware_mfs::{
    fsck, FsckReport, Layout, MailId, MailStore, MfsStore, RealDir, ShardedStore, SyncBackend,
};
pub use spamaware_server::{
    run, Architecture, ClientModel, CostModel, DnsConfig, RunReport, ServerConfig, TrustPoint,
};
pub use spamaware_smtp::{Command, MailAddr, Reply, ServerSession, SessionConfig};
pub use spamaware_trace::{SinkholeConfig, Trace, TraceStats, UnivConfig};

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
