//! Crash injection: a backend wrapper that dies mid-write, for proving
//! the store recovers from every possible torn write.
//!
//! [`FaultyBackend`](crate::FaultyBackend) models an I/O *error* — the
//! operation fails but the process keeps running. [`CrashBackend`] models
//! a *power cut*: at a chosen byte of a chosen write the backend persists
//! only a prefix of the data, the operation errors, and every subsequent
//! operation fails — exactly what the surviving files look like after
//! `kill -9`. The crash-point torture tests sweep every `(write, byte)`
//! pair of a scripted workload and reopen the store from the survivors.

use crate::intercept::{Call, Intercept, Policy, Verdict};
use crate::Backend;

/// Where to kill the store: the `byte`-th byte of the `write`-th
/// write-side operation (both 0-based). `byte == 0` loses the whole
/// write; `byte == size` persists it fully but still crashes before the
/// caller sees success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Index of the write-side operation to interrupt.
    pub write: u64,
    /// Bytes of that operation to let through before dying.
    pub byte: u64,
}

/// A [`Backend`] wrapper that simulates a crash at a [`CrashPoint`].
///
/// In *recording* mode (no crash point armed) it forwards everything and
/// logs the byte size of each write-side operation — the script for an
/// exhaustive sweep. Metadata operations (create/link/remove/truncate)
/// count as 1-byte writes: they either happened or they didn't. A framed
/// record (`append_record`) is one write of header plus body, so its cuts
/// leave a header prefix or the whole header and a body prefix.
///
/// # Example
///
/// ```
/// use spamaware_mfs::{Backend, CrashBackend, CrashPoint, DataRef, MemFs};
/// let mut fs = CrashBackend::with_plan(MemFs::new(), CrashPoint { write: 1, byte: 2 });
/// fs.append("f", DataRef::Bytes(b"ok"))?;
/// assert!(fs.append("f", DataRef::Bytes(b"doomed")).is_err());
/// assert!(fs.crashed());
/// // Only the first 2 bytes of the torn append survive.
/// let mut survivor = fs.into_inner();
/// assert_eq!(survivor.len("f")?, 4);
/// # Ok::<(), spamaware_mfs::StoreError>(())
/// ```
pub type CrashBackend<B> = Intercept<B, CrashPolicy>;

/// The [`Policy`] of a [`CrashBackend`]: the armed point, whether it has
/// fired, and the write log.
#[derive(Debug, Default)]
pub struct CrashPolicy {
    plan: Option<CrashPoint>,
    crashed: bool,
    write_log: Vec<u64>,
}

const DEAD: &str = "crashed store";

impl Policy for CrashPolicy {
    fn before(&mut self, call: Call<'_>) -> Verdict {
        if self.crashed {
            return Verdict::Fail(DEAD);
        }
        if !call.op.is_write() {
            return Verdict::Pass;
        }
        let size = if call.op.carries_data() { call.len } else { 1 };
        let index = self.write_log.len() as u64;
        self.write_log.push(size);
        match self.plan {
            Some(p) if p.write == index => {
                self.crashed = true;
                Verdict::Tear {
                    keep: p.byte,
                    reason: DEAD,
                }
            }
            _ => Verdict::Pass,
        }
    }
}

impl<B: Backend> CrashBackend<B> {
    /// Wraps a backend in recording mode: nothing fails, every write-side
    /// operation's byte size is logged.
    pub fn new(inner: B) -> CrashBackend<B> {
        Intercept::with_policy(inner, CrashPolicy::default())
    }

    /// Wraps a backend armed to crash at `point`.
    pub fn with_plan(inner: B, point: CrashPoint) -> CrashBackend<B> {
        let mut fs = CrashBackend::new(inner);
        fs.policy_mut().plan = Some(point);
        fs
    }

    /// Byte sizes of the write-side operations seen so far, in order.
    pub fn write_log(&self) -> &[u64] {
        &self.policy().write_log
    }

    /// Whether the crash point has fired.
    pub fn crashed(&self) -> bool {
        self.policy().crashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataRef, MailId, MailStore, MemFs, MfsStore};
    use std::collections::BTreeSet;

    #[test]
    fn recording_mode_logs_write_sizes() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = CrashBackend::new(MemFs::new());
        fs.append("f", DataRef::Bytes(b"abcd"))?;
        fs.create("g")?;
        fs.remove("g")?;
        fs.truncate("f", 2)?;
        assert_eq!(fs.write_log(), &[4, 1, 1, 1]);
        assert!(!fs.crashed());
        Ok(())
    }

    #[test]
    fn partial_append_persists_prefix_only() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = CrashBackend::with_plan(MemFs::new(), CrashPoint { write: 0, byte: 3 });
        assert!(fs.append("f", DataRef::Bytes(b"abcdef")).is_err());
        let mut survivor = fs.into_inner();
        assert_eq!(survivor.read_at("f", 0, 3)?, b"abc");
        assert_eq!(survivor.len("f")?, 3);
        Ok(())
    }

    #[test]
    fn zero_byte_cut_loses_the_write() {
        let mut fs = CrashBackend::with_plan(MemFs::new(), CrashPoint { write: 0, byte: 0 });
        assert!(fs.append("f", DataRef::Bytes(b"gone")).is_err());
        let mut survivor = fs.into_inner();
        assert!(!survivor.exists("f"));
    }

    #[test]
    fn full_cut_persists_but_still_errors() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = CrashBackend::with_plan(MemFs::new(), CrashPoint { write: 0, byte: 99 });
        assert!(fs.append("f", DataRef::Bytes(b"all")).is_err());
        let mut survivor = fs.into_inner();
        assert_eq!(survivor.read_at("f", 0, 3)?, b"all");
        Ok(())
    }

    #[test]
    fn everything_fails_after_the_crash() {
        let mut fs = CrashBackend::with_plan(MemFs::new(), CrashPoint { write: 0, byte: 0 });
        let _ = fs.append("f", DataRef::Bytes(b"x"));
        assert!(fs.append("g", DataRef::Bytes(b"y")).is_err());
        assert!(fs.read_at("f", 0, 1).is_err());
        assert!(fs.len("f").is_err());
        assert!(fs.list("").is_err());
        assert!(fs.create("h").is_err());
        assert!(!fs.exists("f"));
    }

    #[test]
    fn zeros_payload_cut_preserves_size_semantics() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = CrashBackend::with_plan(MemFs::size_only(), CrashPoint { write: 0, byte: 7 });
        assert!(fs.append("f", DataRef::Zeros(100)).is_err());
        let mut survivor = fs.into_inner();
        assert_eq!(survivor.len("f")?, 7);
        Ok(())
    }

    #[test]
    fn torn_key_append_recovers_on_reopen() -> Result<(), Box<dyn std::error::Error>> {
        // Find the key append for mailbox "a" by recording first.
        let mut rec = MfsStore::new(CrashBackend::new(MemFs::new()));
        rec.deliver(MailId(1), &["a"], DataRef::Bytes(b"mail"))?;
        let writes = rec.backend_mut().write_log().len() as u64;
        assert_eq!(writes, 2, "body append + key append");

        // Crash 5 bytes into the key append: the body survives whole, the
        // key record is torn; replay must drop it.
        let mut store = MfsStore::new(CrashBackend::with_plan(
            MemFs::new(),
            CrashPoint { write: 1, byte: 5 },
        ));
        assert!(store
            .deliver(MailId(1), &["a"], DataRef::Bytes(b"mail"))
            .is_err());
        let survivor =
            std::mem::replace(store.backend_mut(), CrashBackend::new(MemFs::new())).into_inner();
        let mut recovered = MfsStore::open(survivor)?;
        assert_eq!(recovered.recovered_records(), 1);
        assert!(recovered.read_mailbox("a")?.is_empty());
        // The store stays writable after recovery.
        recovered.deliver(MailId(1), &["a"], DataRef::Bytes(b"mail"))?;
        assert_eq!(recovered.read_mailbox("a")?.len(), 1);
        Ok(())
    }

    /// What `f` leaves of "f" at every crash point the recording run of
    /// `f` lists.
    fn survivors(f: impl Fn(&mut CrashBackend<MemFs>)) -> (Vec<u64>, BTreeSet<Vec<u8>>) {
        let mut rec = CrashBackend::new(MemFs::new());
        f(&mut rec);
        let log = rec.write_log().to_vec();
        let mut states = BTreeSet::new();
        for (write, &size) in log.iter().enumerate() {
            for byte in 0..=size {
                let write = write as u64;
                let mut fs = CrashBackend::with_plan(MemFs::new(), CrashPoint { write, byte });
                f(&mut fs);
                assert!(fs.crashed(), "{write}/{byte}");
                let mut fs = fs.into_inner();
                let len = fs.len("f").unwrap_or(0);
                states.insert(fs.read_at("f", 0, len).unwrap_or_default());
            }
        }
        (log, states)
    }

    /// A framed record is one intercepted write, and cutting it leaves
    /// exactly what cutting the trait's two-append default leaves: a
    /// header prefix, or the whole header and a body prefix.
    #[test]
    fn cuts_inside_one_record_leave_what_two_appends_left() {
        let (header, body) = (b"From x\n".as_slice(), b"body bytes".as_slice());
        let (one_log, one) = survivors(|fs| {
            let _ = fs.append_record("f", header, DataRef::Bytes(body));
        });
        let (two_log, two) = survivors(|fs| {
            let _ = fs
                .append("f", DataRef::Bytes(header))
                .and_then(|_| fs.append("f", DataRef::Bytes(body)));
        });
        assert_eq!(one_log, [17]);
        assert_eq!(two_log, [7, 10]);
        assert_eq!(one, two);
        let whole = [header, body].concat();
        let prefixes: BTreeSet<Vec<u8>> = (0..=whole.len()).map(|n| whole[..n].to_vec()).collect();
        assert_eq!(one, prefixes);
    }
}
