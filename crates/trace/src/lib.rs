#![deny(clippy::iter_over_hash_type)] // DESIGN.md §9
//! Workload models and trace generators for the spam-aware mail server
//! reproduction.
//!
//! The paper's evaluation drives a mail server with two real traces (a
//! spam-sinkhole trace and a university departmental trace) plus synthetic
//! derivations of them. None of those traces are publicly available, so
//! this crate provides calibrated generators:
//!
//! * [`SinkholeConfig`] / [`SinkholeTrace`] — the two-month spam sinkhole
//!   (Table 1 row 1, Figs. 4, 12, 13, 15).
//! * [`UnivConfig`] / [`UnivTrace`] — the one-month departmental workload
//!   (Table 1 row 2, §8).
//! * [`bounce_sweep_trace`] — the Fig. 8 synthetic bounce-ratio sweep.
//! * [`combined_workload`] — the §8 mix: a base trace plus bounce and
//!   unfinished connections at the ECN-measured levels.
//! * [`mfs_sequence_trace`] — the Figs. 10/11 storage workload.
//! * [`EcnSeries`] — the ECN daily bounce statistics (Fig. 3).
//! * [`TraceStats`] / [`SessionMix`] — Table 1 style summaries.
//!
//! All generators are deterministic per seed; calibration targets are
//! pinned by unit tests next to each generator.

mod ecn;
mod mix;
mod models;
mod records;
mod sinkhole;
mod stats;
mod synthetic;
mod univ;

pub use ecn::{EcnDay, EcnSeries};
pub use mix::combined_workload;
pub use models::{MailSizeModel, RcptCountModel};
pub use records::{ConnectionKind, ConnectionSpec, MailSpec, MailboxId, Trace};
pub use sinkhole::{SinkholeConfig, SinkholeTrace};
pub use stats::{SessionMix, TraceStats};
pub use synthetic::{bounce_sweep_trace, mfs_sequence_trace};
pub use univ::{UnivConfig, UnivTrace};

use rand::Rng;
use std::collections::HashSet;

/// Draws `count` distinct mailbox ids in `0..mailbox_count`.
///
/// Shared by the generators; exposed for custom workload construction.
///
/// # Panics
///
/// Panics if `count as u32 > mailbox_count`.
pub fn draw_distinct_mailboxes<R: Rng + ?Sized>(
    rng: &mut R,
    count: u8,
    mailbox_count: u32,
) -> Vec<MailboxId> {
    assert!(
        count as u32 <= mailbox_count,
        "cannot draw {count} distinct mailboxes from {mailbox_count}"
    );
    let mut set = HashSet::with_capacity(count as usize);
    while set.len() < count as usize {
        set.insert(rng.gen_range(0..mailbox_count));
    }
    let mut v: Vec<MailboxId> = set.into_iter().map(MailboxId).collect();
    v.sort_unstable();
    v
}
