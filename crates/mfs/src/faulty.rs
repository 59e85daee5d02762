//! Fault injection: a backend wrapper that fails on command, for testing
//! the error paths of every layout.

use crate::intercept::{Call, Intercept, Op, Policy, Verdict};
use crate::Backend;

/// Which backend operations to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Fail after this many more successful operations (None = no arming).
    pub fail_after: Option<u64>,
    /// Fail every write-side operation (create/append/link/remove).
    pub fail_writes: bool,
    /// Fail every read-side operation (read_at/len/list).
    pub fail_reads: bool,
}

/// A [`Backend`] wrapper that injects [`crate::StoreError::Io`] failures.
///
/// # Example
///
/// ```
/// use spamaware_mfs::{Backend, DataRef, FaultyBackend, MemFs};
/// let mut fs = FaultyBackend::new(MemFs::new());
/// fs.append("f", DataRef::Bytes(b"ok"))?;
/// fs.plan_mut().fail_writes = true;
/// assert!(fs.append("f", DataRef::Bytes(b"boom")).is_err());
/// # Ok::<(), spamaware_mfs::StoreError>(())
/// ```
pub type FaultyBackend<B> = Intercept<B, FaultPolicy>;

/// The [`Policy`] of a [`FaultyBackend`]: its plan and an operation count.
#[derive(Debug, Default)]
pub struct FaultPolicy {
    plan: FaultPlan,
    ops: u64,
}

impl Policy for FaultPolicy {
    fn before(&mut self, call: Call<'_>) -> Verdict {
        // `exists` cannot report an error, so it is neither failed nor
        // counted.
        if call.op == Op::Exists {
            return Verdict::Pass;
        }
        self.ops += 1;
        if let Some(n) = self.plan.fail_after {
            if n == 0 {
                return Verdict::Fail("injected fault (countdown)");
            }
            self.plan.fail_after = Some(n - 1);
        }
        match call.op.is_write() {
            true if self.plan.fail_writes => Verdict::Fail("injected write fault"),
            false if self.plan.fail_reads => Verdict::Fail("injected read fault"),
            _ => Verdict::Pass,
        }
    }
}

impl<B: Backend> FaultyBackend<B> {
    /// Wraps a backend with no faults armed.
    pub fn new(inner: B) -> FaultyBackend<B> {
        Intercept::with_policy(inner, FaultPolicy::default())
    }

    /// The current fault plan.
    pub fn plan_mut(&mut self) -> &mut FaultPlan {
        &mut self.policy_mut().plan
    }

    /// Total operations attempted (successful or failed).
    pub fn ops(&self) -> u64 {
        self.policy().ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        DataRef, HardlinkStore, Layout, MailId, MailStore, MaildirStore, MboxStore, MemFs,
        MfsStore, StoreError,
    };

    #[test]
    fn countdown_fault_fires_once_armed() {
        let mut fs = FaultyBackend::new(MemFs::new());
        fs.plan_mut().fail_after = Some(2);
        assert!(fs.append("a", DataRef::Bytes(b"1")).is_ok());
        assert!(fs.append("a", DataRef::Bytes(b"2")).is_ok());
        assert!(fs.append("a", DataRef::Bytes(b"3")).is_err());
        assert!(fs.append("a", DataRef::Bytes(b"4")).is_err());
    }

    #[test]
    fn all_layouts_surface_write_faults() {
        for layout in Layout::ALL {
            let mut fs = FaultyBackend::new(MemFs::new());
            fs.plan_mut().fail_writes = true;
            let mut store = layout.build(fs);
            let err = store
                .deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"x"))
                .unwrap_err();
            assert!(matches!(err, StoreError::Io(_)), "{layout}: {err}");
        }
    }

    /// Delivers to two mailboxes (MFS's shared path included), arms
    /// `fail_reads` through the store's own `backend_mut`, and requires
    /// the read to fail as `Io` rather than come back short or empty.
    fn read_fault_surfaces<S: MailStore>(
        layout: Layout,
        mut store: S,
        backend_mut: impl FnOnce(&mut S) -> &mut FaultyBackend<MemFs>,
    ) {
        store
            .deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"body"))
            .unwrap();
        assert_eq!(store.read_mailbox("a").unwrap().len(), 1, "{layout}");
        backend_mut(&mut store).plan_mut().fail_reads = true;
        let got = store.read_mailbox("a");
        assert!(matches!(got, Err(StoreError::Io(_))), "{layout}: {got:?}");
    }

    #[test]
    fn all_layouts_surface_read_faults() {
        let fs = || FaultyBackend::new(MemFs::new());
        read_fault_surfaces(Layout::Mbox, MboxStore::new(fs()), MboxStore::backend_mut);
        read_fault_surfaces(
            Layout::Maildir,
            MaildirStore::new(fs()),
            MaildirStore::backend_mut,
        );
        read_fault_surfaces(
            Layout::Hardlink,
            HardlinkStore::new(fs()),
            HardlinkStore::backend_mut,
        );
        read_fault_surfaces(Layout::Mfs, MfsStore::new(fs()), MfsStore::backend_mut);
    }

    #[test]
    fn mfs_partial_write_failure_is_recoverable() -> Result<(), Box<dyn std::error::Error>> {
        // Fail midway through a multi-recipient delivery, then recover by
        // replaying the key files: the store must come back self-consistent
        // (some recipients may have the mail, none may be corrupt).
        let mut fs = FaultyBackend::new(MemFs::new());
        fs.plan_mut().fail_after = Some(4);
        let mut store = MfsStore::new(fs);
        let _ = store.deliver(MailId(1), &["a", "b", "c", "d"], DataRef::Bytes(b"mail"));
        let inner =
            std::mem::replace(store.backend_mut(), FaultyBackend::new(MemFs::new())).into_inner();
        let mut recovered = MfsStore::open(inner)?;
        // Every mailbox either has the complete mail or nothing.
        for mb in ["a", "b", "c", "d"] {
            let mails = recovered.read_mailbox(mb)?;
            assert!(mails.len() <= 1, "{mb}");
            if let Some(m) = mails.first() {
                assert_eq!(m.body, b"mail", "{mb}");
            }
        }
        Ok(())
    }

    #[test]
    fn replay_surfaces_read_faults() -> Result<(), Box<dyn std::error::Error>> {
        let mut store = MfsStore::new(MemFs::new());
        store.deliver(MailId(1), &["a"], DataRef::Bytes(b"x"))?;
        let inner = std::mem::replace(store.backend_mut(), MemFs::new());
        let mut faulty = FaultyBackend::new(inner);
        faulty.plan_mut().fail_reads = true;
        assert!(MfsStore::open(faulty).is_err());
        Ok(())
    }
}
