#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // DESIGN.md §9
#![deny(clippy::unreachable)]
//! Mailbox storage engine: MFS (the paper's single-copy, record-oriented
//! mail file system, §6) plus the three baseline layouts it is evaluated
//! against, all running over pluggable byte-oriented backends.
//!
//! # Layers
//!
//! * **Backends** ([`Backend`]): [`MemFs`] (in-memory, hard links,
//!   optional size-only mode) and [`RealDir`] (`std::fs`); over either,
//!   one [`Intercept`] layer whose [`Policy`] fails, tears, prices or
//!   counts operations — [`Metered`] (cost/operation accounting under a
//!   [`DiskProfile`], the Ext3/Reiser models behind Figs. 10/11),
//!   [`FaultyBackend`], [`CrashBackend`].
//! * **Layouts** ([`MailStore`]): [`MboxStore`] (vanilla postfix),
//!   [`MaildirStore`], [`HardlinkStore`], and [`MfsStore`].
//! * **Paper API** (§6.2), by the methods that implement each call:
//!   `mail_nwrite` is [`MfsStore::nwrite`] (and [`ShardedStore::deliver`]);
//!   `mail_open`/`mail_seek`/`mail_read` are a [`MailboxEntry`] listing
//!   ([`ShardedStore::list_entries`]) plus one positioned read of the
//!   chosen mail ([`ShardedStore::read_entry`]); `mail_delete` is
//!   [`MailStore::delete`].
//!
//! # Example
//!
//! ```
//! use spamaware_mfs::{DiskProfile, MailId, MailStore, MemFs, Metered, MfsStore, MboxStore};
//! use spamaware_mfs::DataRef;
//!
//! // Same 15-recipient spam, two layouts, Ext3 cost model. The first
//! // delivery warms up the per-mailbox files; the second measures
//! // steady-state cost.
//! let boxes: Vec<String> = (0..15).map(|i| format!("user{i}")).collect();
//! let names: Vec<&str> = boxes.iter().map(String::as_str).collect();
//!
//! let mut mfs = MfsStore::new(Metered::new(MemFs::size_only(), DiskProfile::ext3()));
//! mfs.deliver(MailId(1), &names, DataRef::Zeros(4096))?;
//! mfs.backend_mut().reset_accounting();
//! mfs.deliver(MailId(2), &names, DataRef::Zeros(4096))?;
//! let mfs_cost = mfs.backend_mut().take_cost();
//!
//! let mut mbox = MboxStore::new(Metered::new(MemFs::size_only(), DiskProfile::ext3()));
//! mbox.deliver(MailId(1), &names, DataRef::Zeros(4096))?;
//! mbox.backend_mut().reset_accounting();
//! mbox.deliver(MailId(2), &names, DataRef::Zeros(4096))?;
//! let mbox_cost = mbox.backend_mut().take_cost();
//!
//! // The single-copy write is cheaper: that gap is Fig. 10's MFS gain.
//! assert!(mfs_cost < mbox_cost);
//! # Ok::<(), spamaware_mfs::StoreError>(())
//! ```

mod backend;
mod crash;
mod error;
mod faulty;
mod frame;
mod id;
mod intercept;
mod maildir;
mod mbox;
mod memfs;
mod mfs_store;
mod profile;
mod realdir;
mod sharded;
mod store;

pub use backend::{Backend, DataRef};
pub use crash::{CrashBackend, CrashPoint, CrashPolicy};
pub use error::{StoreError, StoreResult};
pub use faulty::{FaultPlan, FaultPolicy, FaultyBackend};
pub use id::MailId;
pub use intercept::{Call, Intercept, Op, Policy, Verdict};
pub use maildir::{HardlinkStore, MaildirStore};
pub use mbox::MboxStore;
pub use memfs::MemFs;
pub use mfs_store::fsck::{fsck, FsckReport};
pub use mfs_store::{check_mailbox_name, MailboxEntry, MfsStats, MfsStore};
pub use profile::{DiskProfile, Meter, Metered, OpCounts};
pub use realdir::RealDir;
pub use sharded::{ShardedStore, SyncBackend};
pub use store::{MailStore, StoredMail};

/// The storage layouts compared in Figs. 10/11, as a value for sweeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Vanilla postfix: one mbox file per mailbox.
    Mbox,
    /// One file per mail per mailbox.
    Maildir,
    /// Maildir with hard-linked duplicate bodies.
    Hardlink,
    /// The paper's single-copy mail file system.
    Mfs,
}

impl Layout {
    /// All four layouts in the paper's presentation order.
    pub const ALL: [Layout; 4] = [Layout::Mfs, Layout::Mbox, Layout::Maildir, Layout::Hardlink];

    /// Builds a boxed store of this layout over the given backend.
    pub fn build<B: Backend + 'static>(self, backend: B) -> Box<dyn MailStore> {
        match self {
            Layout::Mbox => Box::new(MboxStore::new(backend)),
            Layout::Maildir => Box::new(MaildirStore::new(backend)),
            Layout::Hardlink => Box::new(HardlinkStore::new(backend)),
            Layout::Mfs => Box::new(MfsStore::new(backend)),
        }
    }

    /// The paper's name for the layout (figure legends).
    pub fn paper_name(self) -> &'static str {
        match self {
            Layout::Mbox => "Postfix",
            Layout::Maildir => "maildir",
            Layout::Hardlink => "hard-link",
            Layout::Mfs => "MFS",
        }
    }
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    #[test]
    fn all_layouts_deliver_and_read_back() {
        for layout in Layout::ALL {
            let mut store = layout.build(MemFs::new());
            store
                .deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"hello"))
                .unwrap();
            for mb in ["a", "b"] {
                let mails = store.read_mailbox(mb).unwrap();
                assert_eq!(mails.len(), 1, "{layout}");
                assert_eq!(mails[0].body, b"hello", "{layout}");
            }
        }
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Layout::Mbox.to_string(), "Postfix");
        assert_eq!(Layout::Mfs.to_string(), "MFS");
        assert_eq!(Layout::Maildir.to_string(), "maildir");
        assert_eq!(Layout::Hardlink.to_string(), "hard-link");
    }
}
