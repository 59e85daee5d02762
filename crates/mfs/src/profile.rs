//! Disk cost profiles and the metering wrapper.
//!
//! Figs. 10/11 compare four mailbox layouts on Ext3-journal and ReiserFS.
//! The decisive difference between those file systems is the cost of
//! creating (and linking) small files versus appending to existing ones:
//! the benchmark the paper cites shows Ext3-journal performing poorly for
//! many-small-file workloads while Reiser excels. [`DiskProfile`] encodes
//! per-operation costs; [`Metered`] wraps any [`Backend`] and accumulates
//! both operation counts and total virtual time, which the DES charges to
//! the delivering process. Only operations that succeeded are counted or
//! charged.

use crate::intercept::{Call, Intercept, Op, Policy, Verdict};
use crate::Backend;
use spamaware_sim::Nanos;

/// Per-operation virtual-time costs of a file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskProfile {
    /// Creating a new file (inode allocation + journaled metadata).
    pub create_file: Nanos,
    /// Creating a hard link.
    pub link: Nanos,
    /// Fixed cost of an append (open/locate/journal transaction).
    pub append_setup: Nanos,
    /// Marginal cost per KiB written.
    pub write_per_kib: Nanos,
    /// Fixed cost of a positioned read.
    pub read_setup: Nanos,
    /// Marginal cost per KiB read.
    pub read_per_kib: Nanos,
    /// Removing a directory entry.
    pub delete: Nanos,
}

impl DiskProfile {
    /// Ext3 journal file system: cheap appends, very expensive small-file
    /// creation and linking (journaled metadata), per the benchmark cited
    /// in paper §6.3 ("for workloads consisting of multiple file creations
    /// of small sizes, Ext3-Journal performs poorly").
    pub fn ext3() -> DiskProfile {
        DiskProfile {
            create_file: Nanos::from_micros(2_200),
            link: Nanos::from_micros(1_800),
            append_setup: Nanos::from_micros(100),
            write_per_kib: Nanos::from_micros(50),
            read_setup: Nanos::from_micros(120),
            read_per_kib: Nanos::from_micros(25),
            delete: Nanos::from_micros(400),
        }
    }

    /// ReiserFS: small-file creation and linking are cheap; appends cost
    /// slightly more than Ext3 ("the Reiser Filesystem performs the best"
    /// for small-file creation, paper §6.3).
    pub fn reiser() -> DiskProfile {
        DiskProfile {
            create_file: Nanos::from_micros(1_000),
            link: Nanos::from_micros(280),
            append_setup: Nanos::from_micros(100),
            write_per_kib: Nanos::from_micros(50),
            read_setup: Nanos::from_micros(130),
            read_per_kib: Nanos::from_micros(28),
            delete: Nanos::from_micros(200),
        }
    }

    /// A zero-cost profile (functional testing without accounting).
    pub fn free() -> DiskProfile {
        DiskProfile {
            create_file: Nanos::ZERO,
            link: Nanos::ZERO,
            append_setup: Nanos::ZERO,
            write_per_kib: Nanos::ZERO,
            read_setup: Nanos::ZERO,
            read_per_kib: Nanos::ZERO,
            delete: Nanos::ZERO,
        }
    }

    fn write_cost(&self, bytes: u64) -> Nanos {
        self.append_setup + self.write_per_kib * bytes.div_ceil(1024)
    }

    fn read_cost(&self, bytes: u64) -> Nanos {
        self.read_setup + self.read_per_kib * bytes.div_ceil(1024)
    }
}

/// Operation counters accumulated by [`Metered`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Files created (explicitly or by first append).
    pub creates: u64,
    /// Append operations.
    pub appends: u64,
    /// Bytes appended.
    pub bytes_written: u64,
    /// Read operations.
    pub reads: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Hard links created.
    pub links: u64,
    /// Removals.
    pub deletes: u64,
}

/// Wraps a [`Backend`], accounting per-operation virtual-time costs and
/// operation counts.
///
/// # Example
///
/// ```
/// use spamaware_mfs::{Backend, DataRef, DiskProfile, MemFs, Metered};
/// let mut disk = Metered::new(MemFs::new(), DiskProfile::ext3());
/// disk.append("f", DataRef::Zeros(2048))?;
/// assert_eq!(disk.counts().appends, 1);
/// assert!(disk.cost() > spamaware_sim::Nanos::ZERO);
/// # Ok::<(), spamaware_mfs::StoreError>(())
/// ```
pub type Metered<B> = Intercept<B, Meter>;

/// The [`Policy`] of a [`Metered`] backend: the price list and the tally.
#[derive(Debug)]
pub struct Meter {
    profile: DiskProfile,
    counts: OpCounts,
    cost: Nanos,
}

impl Meter {
    /// A meter pricing by `profile`, its tally at zero.
    pub fn new(profile: DiskProfile) -> Meter {
        Meter {
            profile,
            counts: OpCounts::default(),
            cost: Nanos::ZERO,
        }
    }

    /// Accumulated operation counts.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Returns and resets the accumulated cost (the DES drains this after
    /// each delivery to charge the delivering process).
    pub fn take_cost(&mut self) -> Nanos {
        std::mem::replace(&mut self.cost, Nanos::ZERO)
    }

    /// Resets counts and cost to zero (after pre-warming steady-state
    /// structures like pre-existing mailbox files).
    pub fn reset(&mut self) {
        *self = Meter::new(self.profile);
    }

    fn wrote(&mut self, bytes: u64) {
        self.counts.appends += 1;
        self.counts.bytes_written += bytes;
        self.cost += self.profile.write_cost(bytes);
    }

    fn created_file(&mut self) {
        self.counts.creates += 1;
        self.cost += self.profile.create_file;
    }

    fn deleted(&mut self) {
        self.counts.deletes += 1;
        self.cost += self.profile.delete;
    }
}

impl Policy for Meter {
    const WANTS_CREATED: bool = true;

    fn before(&mut self, _call: Call<'_>) -> Verdict {
        Verdict::Pass
    }

    fn after(&mut self, call: Call<'_>, ok: bool, created: bool) {
        if !ok {
            return;
        }
        match call.op {
            Op::Create => self.created_file(),
            // A record is one vectored write: a single setup charge
            // covers header + body.
            Op::Append | Op::AppendRecord => {
                if created {
                    self.created_file();
                }
                self.wrote(call.len);
            }
            // Remove what was there, then write into a fresh file.
            Op::Replace => {
                if !created {
                    self.deleted();
                }
                self.created_file();
                self.wrote(call.len);
            }
            Op::ReadAt => {
                self.counts.reads += 1;
                self.counts.bytes_read += call.len;
                self.cost += self.profile.read_cost(call.len);
            }
            Op::Link => {
                self.counts.links += 1;
                self.cost += self.profile.link;
            }
            Op::Remove => self.deleted(),
            // Recovery-only metadata operation; charged like a removal.
            Op::Truncate => self.cost += self.profile.delete,
            Op::List => self.cost += self.profile.read_setup,
            Op::Len | Op::Exists => {}
        }
    }
}

impl<B: Backend> Metered<B> {
    /// Wraps `inner` with the given cost profile.
    pub fn new(inner: B, profile: DiskProfile) -> Metered<B> {
        Intercept::with_policy(inner, Meter::new(profile))
    }

    /// Accumulated operation counts.
    pub fn counts(&self) -> OpCounts {
        self.policy().counts()
    }

    /// Total accumulated virtual-time cost.
    pub fn cost(&self) -> Nanos {
        self.policy().cost
    }

    /// Returns and resets the accumulated cost.
    pub fn take_cost(&mut self) -> Nanos {
        self.policy_mut().take_cost()
    }

    /// Resets counts and cost to zero.
    pub fn reset_accounting(&mut self) {
        self.policy_mut().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataRef, MemFs};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn ext3_penalizes_creation_reiser_does_not() {
        let e = DiskProfile::ext3();
        let r = DiskProfile::reiser();
        // The Fig. 10/11 mechanism: creating a small file on Ext3 costs
        // several times a 4 KiB append; Reiser halves the creation cost
        // and makes links cheaper than a body append.
        let append_4k = e.write_cost(4096);
        assert!(e.create_file > append_4k * 4);
        assert!(r.create_file * 2 <= e.create_file);
        assert!(r.link < r.write_cost(4096));
        assert!(e.link > r.link * 3);
    }

    #[test]
    fn write_cost_scales_with_size() {
        let p = DiskProfile::ext3();
        let small = p.write_cost(100);
        let big = p.write_cost(100 * 1024);
        assert!(big > small * 10);
        // Setup dominates tiny writes.
        assert_eq!(p.write_cost(1), p.append_setup + p.write_per_kib);
    }

    #[test]
    fn metered_accumulates_counts_and_cost() -> Result<(), Box<dyn std::error::Error>> {
        let mut d = Metered::new(MemFs::new(), DiskProfile::ext3());
        d.create("a")?;
        d.append("a", DataRef::Zeros(2048))?;
        d.link("a", "b")?;
        d.read_at("a", 0, 1024)?;
        d.remove("b")?;
        let c = d.counts();
        assert_eq!(c.creates, 1);
        assert_eq!(c.appends, 1);
        assert_eq!(c.bytes_written, 2048);
        assert_eq!(c.links, 1);
        assert_eq!(c.reads, 1);
        assert_eq!(c.deletes, 1);
        let expected = DiskProfile::ext3().create_file
            + DiskProfile::ext3().write_cost(2048)
            + DiskProfile::ext3().link
            + DiskProfile::ext3().read_cost(1024)
            + DiskProfile::ext3().delete;
        assert_eq!(d.cost(), expected);
        Ok(())
    }

    #[test]
    fn implicit_creation_charged_once() -> Result<(), Box<dyn std::error::Error>> {
        let mut d = Metered::new(MemFs::new(), DiskProfile::reiser());
        d.append("fresh", DataRef::Zeros(10))?;
        d.append("fresh", DataRef::Zeros(10))?;
        assert_eq!(d.counts().creates, 1);
        assert_eq!(d.counts().appends, 2);
        Ok(())
    }

    #[test]
    fn a_replace_is_priced_as_the_removal_and_fresh_append_it_is(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let mut one = Metered::new(MemFs::new(), DiskProfile::ext3());
        let mut two = Metered::new(MemFs::new(), DiskProfile::ext3());
        for d in [&mut one, &mut two] {
            d.append("f", DataRef::Zeros(10))?;
        }
        one.replace("f", DataRef::Zeros(3000))?;
        one.replace("fresh", DataRef::Zeros(5))?;
        two.remove("f")?;
        two.append("f", DataRef::Zeros(3000))?;
        two.append("fresh", DataRef::Zeros(5))?;
        assert_eq!(one.counts(), two.counts());
        assert_eq!(one.cost(), two.cost());
        Ok(())
    }

    #[test]
    fn a_shared_meter_reads_what_its_backend_charged() -> Result<(), Box<dyn std::error::Error>> {
        let meter = Rc::new(RefCell::new(Meter::new(DiskProfile::ext3())));
        let mut shared = Intercept::with_policy(MemFs::new(), Rc::clone(&meter));
        let mut owned = Metered::new(MemFs::new(), DiskProfile::ext3());
        for d in [&mut shared as &mut dyn Backend, &mut owned] {
            d.append("f", DataRef::Zeros(2048))?;
            d.link("f", "g")?;
        }
        assert_eq!(meter.borrow().counts(), owned.counts());
        assert_eq!(meter.borrow_mut().take_cost(), owned.take_cost());
        assert_eq!(shared.policy().borrow().cost, Nanos::ZERO);
        Ok(())
    }

    #[test]
    fn take_cost_drains() -> Result<(), Box<dyn std::error::Error>> {
        let mut d = Metered::new(MemFs::new(), DiskProfile::ext3());
        d.append("f", DataRef::Zeros(1))?;
        let c = d.take_cost();
        assert!(c > Nanos::ZERO);
        assert_eq!(d.cost(), Nanos::ZERO);
        Ok(())
    }

    #[test]
    fn free_profile_costs_nothing() -> Result<(), Box<dyn std::error::Error>> {
        let mut d = Metered::new(MemFs::new(), DiskProfile::free());
        d.append("f", DataRef::Zeros(1 << 20))?;
        assert_eq!(d.cost(), Nanos::ZERO);
        Ok(())
    }

    #[test]
    fn failed_operations_cost_nothing() {
        let mut d = Metered::new(MemFs::new(), DiskProfile::ext3());
        assert!(d.read_at("missing", 0, 1).is_err());
        assert!(d.remove("missing").is_err());
        assert_eq!(d.cost(), Nanos::ZERO);
        assert_eq!(d.counts(), OpCounts::default());
    }
}
