#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // DESIGN.md §9
#![deny(clippy::unreachable, clippy::iter_over_hash_type)]
//! The simulated mail server: vanilla process-per-connection and hybrid
//! fork-after-trust architectures (paper §5) over the DES kernel, with
//! integrated DNSBL lookups (§7) and pluggable mailbox storage (§6): each
//! run's [`SimStore`] holds the layout [`spamaware_mfs::Layout::build`]
//! makes, so the DES compiles against [`spamaware_mfs::MailStore`] alone
//! and reads each delivery's cost through the one [`spamaware_mfs::Meter`]
//! it shares with the layout's backend.
//!
//! # Example
//!
//! ```
//! use spamaware_server::{run, ClientModel, ServerConfig};
//! use spamaware_sim::Nanos;
//! use spamaware_trace::bounce_sweep_trace;
//!
//! let trace = bounce_sweep_trace(1, 500, 0.5, 400);
//! let report = run(
//!     &trace,
//!     ServerConfig::hybrid(),
//!     ClientModel::Closed { concurrency: 50 },
//!     Nanos::from_secs(10),
//! );
//! assert!(report.mails > 0);
//! assert!(report.bounces > 0);
//! ```

mod cost;
mod engine;
mod script;
mod storage;

pub use cost::CostModel;
pub use engine::{run, Architecture, ClientModel, DnsConfig, RunReport, ServerConfig};
pub use script::{build_script, guess_addr, rcpt_addr, Step};
pub use spamaware_smtp::TrustPoint;
pub use storage::SimStore;
