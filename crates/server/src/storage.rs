//! Storage integration for the simulated server: a mailbox layout, built
//! by [`Layout::build`], over a size-only in-memory backend whose meter
//! the store shares, delivering size-only bodies.

use spamaware_mfs::{
    DataRef, DiskProfile, Intercept, Layout, MailId, MailStore, MemFs, Meter, OpCounts, StoreResult,
};
use spamaware_sim::Nanos;
use std::cell::RefCell;
use std::rc::Rc;

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
    store: Box<dyn MailStore>,
    meter: Rc<RefCell<Meter>>,
    /// The id [`SimStore::deliver`] assigns next; ids start at 1.
    next_id: u64,
}

impl SimStore {
    /// Creates a store of the given layout over a size-only in-memory
    /// backend metered with `profile`.
    pub fn new(layout: Layout, profile: DiskProfile) -> SimStore {
        SimStore::with_store(profile, |disk| layout.build(disk))
    }

    /// Like [`SimStore::new`], with the store `build` makes over the
    /// size-only backend, whose [`Meter`] the [`SimStore`] shares (the
    /// `ablation_mfs_threshold` bench sets the MFS share threshold this
    /// way).
    pub fn with_store(
        profile: DiskProfile,
        build: impl FnOnce(Intercept<MemFs, Rc<RefCell<Meter>>>) -> Box<dyn MailStore>,
    ) -> SimStore {
        let meter = Rc::new(RefCell::new(Meter::new(profile)));
        let store = build(Intercept::with_policy(
            MemFs::size_only(),
            Rc::clone(&meter),
        ));
        SimStore {
            store,
            meter,
            next_id: 1,
        }
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
        self.store.deliver(id, mailboxes, DataRef::Zeros(size))?;
        Ok(self.meter.borrow_mut().take_cost())
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
        self.meter.borrow_mut().reset();
        Ok(())
    }

    /// Cumulative backend operation counts.
    pub fn op_counts(&self) -> OpCounts {
        self.meter.borrow().counts()
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

    /// One steady-state delivery of a 4 KiB mail to `user0..` of a store
    /// prewarmed with 15 mailboxes: the cost on Ext3 and on Reiser (ns),
    /// and the backend operations it took, which the profile does not
    /// change.
    #[test]
    fn steady_state_delivery_costs_are_pinned() -> Result<(), Box<dyn std::error::Error>> {
        // (layout, recipients, ext3 ns, reiser ns,
        //  [creates, appends, bytes_written, reads, bytes_read, links, deletes])
        let table: [(Layout, usize, u64, u64, [u64; 7]); 8] = [
            (Layout::Mfs, 1, 450_000, 450_000, [0, 2, 4_134, 0, 0, 0, 0]),
            (
                Layout::Mfs,
                15,
                2_700_000,
                2_700_000,
                [0, 17, 4_704, 0, 0, 0, 0],
            ),
            (Layout::Mbox, 1, 350_000, 350_000, [0, 1, 4_116, 0, 0, 0, 0]),
            (
                Layout::Mbox,
                15,
                5_250_000,
                5_250_000,
                [0, 15, 61_740, 0, 0, 0, 0],
            ),
            (
                Layout::Maildir,
                1,
                2_500_000,
                1_300_000,
                [1, 1, 4_096, 0, 0, 0, 0],
            ),
            (
                Layout::Maildir,
                15,
                37_500_000,
                19_500_000,
                [15, 15, 61_440, 0, 0, 0, 0],
            ),
            (
                Layout::Hardlink,
                1,
                2_500_000,
                1_300_000,
                [1, 1, 4_096, 0, 0, 0, 0],
            ),
            (
                Layout::Hardlink,
                15,
                27_700_000,
                5_220_000,
                [1, 1, 4_096, 0, 0, 14, 0],
            ),
        ];
        let boxes: Vec<String> = (0..15).map(|i| format!("user{i}")).collect();
        let names: Vec<&str> = boxes.iter().map(String::as_str).collect();
        for (layout, rcpts, ext3_ns, reiser_ns, ops) in table {
            for (fs, profile, ns) in [
                ("ext3", DiskProfile::ext3(), ext3_ns),
                ("reiser", DiskProfile::reiser(), reiser_ns),
            ] {
                let mut s = SimStore::new(layout, profile);
                s.prewarm(&names)?;
                let cost = s.deliver(&names[..rcpts], 4096)?;
                let c = s.op_counts();
                let counts = [
                    c.creates,
                    c.appends,
                    c.bytes_written,
                    c.reads,
                    c.bytes_read,
                    c.links,
                    c.deletes,
                ];
                let row = format!("{layout} x {rcpts} on {fs}");
                assert_eq!(cost.as_nanos(), ns, "{row}");
                assert_eq!(counts, ops, "{row}");
            }
        }
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
