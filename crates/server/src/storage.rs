//! Storage integration for the simulated server: the four mailbox layouts
//! over a metered in-memory backend, delivering size-only bodies.

use spamaware_mfs::{
    DataRef, DiskProfile, HardlinkStore, Layout, MailId, MailStore, MaildirStore, MboxStore, MemFs,
    Metered, MfsStore, OpCounts, StoreResult,
};
use spamaware_sim::Nanos;

enum Inner {
    Mbox(MboxStore<Metered<MemFs>>),
    Maildir(MaildirStore<Metered<MemFs>>),
    Hardlink(HardlinkStore<Metered<MemFs>>),
    // Boxed: MfsStore is much larger than the other layouts
    // (clippy::large_enum_variant).
    Mfs(Box<MfsStore<Metered<MemFs>>>),
}

/// A mailbox store wired for simulation: size-only bodies, per-delivery
/// virtual-time cost extraction, and mail-id allocation.
///
/// # Example
///
/// ```
/// use spamaware_mfs::{DiskProfile, Layout};
/// use spamaware_server::SimStore;
///
/// let mut store = SimStore::new(Layout::Mfs, DiskProfile::ext3());
/// let cost = store.deliver(&["user0", "user1"], 4096)?;
/// assert!(cost > spamaware_sim::Nanos::ZERO);
/// # Ok::<(), spamaware_mfs::StoreError>(())
/// ```
pub struct SimStore {
    inner: Inner,
    layout: Layout,
    /// The id [`SimStore::deliver`] assigns next; ids start at 1.
    next_id: u64,
}

impl std::fmt::Debug for SimStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimStore")
            .field("layout", &self.layout)
            .finish_non_exhaustive()
    }
}

impl SimStore {
    /// Creates a store of the given layout over a size-only in-memory
    /// backend metered with `profile`.
    pub fn new(layout: Layout, profile: DiskProfile) -> SimStore {
        SimStore::with_mfs_threshold(layout, profile, 2)
    }

    /// Like [`SimStore::new`], with an explicit MFS share threshold
    /// (minimum recipients routed through the shared mailbox; the
    /// `ablation_mfs_threshold` bench sweeps this).
    pub fn with_mfs_threshold(layout: Layout, profile: DiskProfile, threshold: usize) -> SimStore {
        let backend = || Metered::new(MemFs::size_only(), profile);
        let inner = match layout {
            Layout::Mbox => Inner::Mbox(MboxStore::new(backend())),
            Layout::Maildir => Inner::Maildir(MaildirStore::new(backend())),
            Layout::Hardlink => Inner::Hardlink(HardlinkStore::new(backend())),
            Layout::Mfs => Inner::Mfs(Box::new(
                MfsStore::new(backend()).with_share_threshold(threshold),
            )),
        };
        SimStore {
            inner,
            layout,
            next_id: 1,
        }
    }

    /// The layout in use.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Delivers one `size`-byte mail to `mailboxes`, returning the disk
    /// cost the delivery incurred.
    ///
    /// # Errors
    ///
    /// Propagates layout errors (should not occur with allocator-unique
    /// ids).
    pub fn deliver(&mut self, mailboxes: &[&str], size: u64) -> StoreResult<Nanos> {
        let id = MailId(self.next_id);
        self.next_id += 1;
        self.deliver_with_id(id, mailboxes, size)
    }

    /// Like [`SimStore::deliver`] with an explicit id (ablation harnesses).
    pub fn deliver_with_id(
        &mut self,
        id: MailId,
        mailboxes: &[&str],
        size: u64,
    ) -> StoreResult<Nanos> {
        let body = DataRef::Zeros(size);
        match &mut self.inner {
            Inner::Mbox(s) => {
                s.deliver(id, mailboxes, body)?;
                Ok(s.backend_mut().take_cost())
            }
            Inner::Maildir(s) => {
                s.deliver(id, mailboxes, body)?;
                Ok(s.backend_mut().take_cost())
            }
            Inner::Hardlink(s) => {
                s.deliver(id, mailboxes, body)?;
                Ok(s.backend_mut().take_cost())
            }
            Inner::Mfs(s) => {
                s.deliver(id, mailboxes, body)?;
                Ok(s.backend_mut().take_cost())
            }
        }
    }

    /// Pre-creates the steady-state mailbox structures (mbox files, MFS
    /// key/data files, the shared mailbox) and zeroes the accounting, so a
    /// run measures steady-state delivery cost rather than first-delivery
    /// file creation. Maildir-family layouts create a file per mail by
    /// design, so prewarming leaves their per-delivery cost unchanged.
    ///
    /// # Errors
    ///
    /// Propagates the first failed prewarm delivery (the in-memory
    /// backends cannot fail).
    pub fn prewarm(&mut self, mailboxes: &[&str]) -> StoreResult<()> {
        for mb in mailboxes {
            self.deliver(&[mb], 1)?;
        }
        if mailboxes.len() >= 2 {
            self.deliver(&mailboxes[..2], 1)?;
        }
        self.reset_accounting();
        Ok(())
    }

    /// Zeroes cost and operation counters.
    pub fn reset_accounting(&mut self) {
        match &mut self.inner {
            Inner::Mbox(s) => s.backend_mut().reset_accounting(),
            Inner::Maildir(s) => s.backend_mut().reset_accounting(),
            Inner::Hardlink(s) => s.backend_mut().reset_accounting(),
            Inner::Mfs(s) => s.backend_mut().reset_accounting(),
        }
    }

    /// Cumulative backend operation counts.
    pub fn op_counts(&self) -> OpCounts {
        match &self.inner {
            Inner::Mbox(s) => s.backend().counts(),
            Inner::Maildir(s) => s.backend().counts(),
            Inner::Hardlink(s) => s.backend().counts(),
            Inner::Mfs(s) => s.backend().counts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mfs_multi_recipient_cheaper_than_mbox() -> Result<(), Box<dyn std::error::Error>> {
        let boxes: Vec<String> = (0..15).map(|i| format!("user{i}")).collect();
        let names: Vec<&str> = boxes.iter().map(String::as_str).collect();
        let mut mfs = SimStore::new(Layout::Mfs, DiskProfile::ext3());
        let mut mbox = SimStore::new(Layout::Mbox, DiskProfile::ext3());
        mfs.prewarm(&names)?;
        mbox.prewarm(&names)?;
        let c_mfs = mfs.deliver(&names, 4096)?;
        let c_mbox = mbox.deliver(&names, 4096)?;
        assert!(
            c_mfs.as_nanos() * 3 < c_mbox.as_nanos() * 2,
            "mfs {c_mfs} vs mbox {c_mbox}"
        );
        Ok(())
    }

    #[test]
    fn maildir_on_ext3_is_catastrophic() -> Result<(), Box<dyn std::error::Error>> {
        let boxes: Vec<String> = (0..15).map(|i| format!("user{i}")).collect();
        let names: Vec<&str> = boxes.iter().map(String::as_str).collect();
        let mut maildir = SimStore::new(Layout::Maildir, DiskProfile::ext3());
        let mut mbox = SimStore::new(Layout::Mbox, DiskProfile::ext3());
        maildir.prewarm(&names)?;
        mbox.prewarm(&names)?;
        let c_maildir = maildir.deliver(&names, 4096)?;
        let c_mbox = mbox.deliver(&names, 4096)?;
        assert!(c_maildir > c_mbox * 3, "maildir {c_maildir} mbox {c_mbox}");
        Ok(())
    }

    #[test]
    fn hardlink_recovers_on_reiser() -> Result<(), Box<dyn std::error::Error>> {
        let boxes: Vec<String> = (0..15).map(|i| format!("user{i}")).collect();
        let names: Vec<&str> = boxes.iter().map(String::as_str).collect();
        let mut hl_ext3 = SimStore::new(Layout::Hardlink, DiskProfile::ext3());
        let mut hl_reiser = SimStore::new(Layout::Hardlink, DiskProfile::reiser());
        let a = hl_ext3.deliver(&names, 4096)?;
        let b = hl_reiser.deliver(&names, 4096)?;
        assert!(a > b * 3, "ext3 {a} vs reiser {b}");
        Ok(())
    }

    #[test]
    fn single_recipient_costs_are_close_across_mbox_and_mfs(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let mut mfs = SimStore::new(Layout::Mfs, DiskProfile::ext3());
        let mut mbox = SimStore::new(Layout::Mbox, DiskProfile::ext3());
        mfs.prewarm(&["alice"])?;
        mbox.prewarm(&["alice"])?;
        let c_mfs = mfs.deliver(&["alice"], 4096)?;
        let c_mbox = mbox.deliver(&["alice"], 4096)?;
        let ratio = c_mfs.as_secs_f64() / c_mbox.as_secs_f64();
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
        Ok(())
    }

    #[test]
    fn op_counts_accumulate() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = SimStore::new(Layout::Mbox, DiskProfile::ext3());
        s.deliver(&["a"], 100)?;
        s.deliver(&["a", "b"], 100)?;
        let c = s.op_counts();
        assert_eq!(c.appends, 3); // one vectored record write per mailbox delivery
        Ok(())
    }

    #[test]
    fn ids_are_unique_across_deliveries() -> Result<(), Box<dyn std::error::Error>> {
        // Regression guard: duplicate ids would make maildir delivery fail.
        let mut s = SimStore::new(Layout::Maildir, DiskProfile::ext3());
        for _ in 0..100 {
            s.deliver(&["a"], 10)?;
        }
        Ok(())
    }
}
