//! `mfsck` — offline repair for an MFS store.
//!
//! Strict replay ([`MfsStore::open`]) recovers from the one artifact a
//! crash can leave — a torn trailing record — and refuses anything else.
//! `fsck` repairs what replay won't, making every fix durable on disk:
//!
//! 1. **Torn tails** are truncated (same rule as replay).
//! 2. **Corrupt frames** (invalid bytes mid-file) truncate the key file at
//!    the corruption point, dropping everything after it.
//! 3. **Truncated bodies**: key records whose byte range runs past the end
//!    of their data file are dropped (the key file is rewritten without
//!    them — a by-id tombstone couldn't single out one of several
//!    same-id entries).
//! 4. **Dangling refs**: mailbox entries referencing a shared mail absent
//!    from the shmailbox log are dropped the same way.
//! 5. **Refcounts** are rebuilt from the mailbox key files: over-counts
//!    are clamped, under-counts raised, and orphaned shared bodies (zero
//!    live references) garbage-collected — all by appending corrective
//!    delta records to the shared key log.
//!
//! The report lists every repair in deterministic (path/id-sorted) order,
//! so repeated runs over identical stores print byte-identical reports —
//! pinned by the golden-fixture tests.

use super::{Held, KeyRecord, MailboxEntry, TailPolicy, SHARED};
use crate::frame;
use crate::{Backend, DataRef, MailId, MfsStore, StoreResult};
use std::collections::BTreeMap;
use std::fmt;

/// Everything [`fsck`] repaired, in deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Key files whose torn trailing bytes were truncated:
    /// `(path, bytes dropped)`.
    pub torn_tails: Vec<(String, u64)>,
    /// Key files truncated at a mid-file corrupt frame:
    /// `(path, offset, bytes dropped)`.
    pub corrupt_frames: Vec<(String, u64, u64)>,
    /// Key records dropped because their byte range ran past the end
    /// of the data file: `(mailbox, id)`; `shmailbox` entries lose the
    /// shared body for every referencing mailbox.
    pub truncated_bodies: Vec<(String, MailId)>,
    /// Mailbox entries dropped for referencing a shared mail that is
    /// not in the shmailbox log: `(mailbox, id)`.
    pub dangling_refs: Vec<(String, MailId)>,
    /// Shared refcounts lowered to the live reference count:
    /// `(id, from, to)`.
    pub clamped_refcounts: Vec<(MailId, i64, i64)>,
    /// Shared refcounts raised to cover live references (under-counting
    /// risks reclaiming a still-referenced body): `(id, from, to)`.
    pub raised_refcounts: Vec<(MailId, i64, i64)>,
    /// Shared bodies with zero live references garbage-collected:
    /// `(id, reclaimable bytes)`.
    pub orphans_reclaimed: Vec<(MailId, u64)>,
}

impl FsckReport {
    /// Total repairs made.
    pub fn repairs(&self) -> u64 {
        (self.torn_tails.len()
            + self.corrupt_frames.len()
            + self.truncated_bodies.len()
            + self.dangling_refs.len()
            + self.clamped_refcounts.len()
            + self.raised_refcounts.len()
            + self.orphans_reclaimed.len()) as u64
    }

    /// Key files whose tail (torn or corrupt) was truncated — the
    /// record-level recovery count reported as `live.recovered_records`.
    pub fn recovered_records(&self) -> u64 {
        (self.torn_tails.len() + self.corrupt_frames.len()) as u64
    }

    /// Whether the store needed no repair.
    pub fn is_clean(&self) -> bool {
        self.repairs() == 0
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "mfsck: clean");
        }
        writeln!(f, "mfsck: {} repair(s)", self.repairs())?;
        for (path, bytes) in &self.torn_tails {
            writeln!(f, "  torn tail: {path} ({bytes} bytes dropped)")?;
        }
        for (path, offset, bytes) in &self.corrupt_frames {
            writeln!(
                f,
                "  corrupt frame: {path} at offset {offset} ({bytes} bytes dropped)"
            )?;
        }
        for (mb, id) in &self.truncated_bodies {
            writeln!(f, "  truncated body: {mb}/{id} dropped")?;
        }
        for (mb, id) in &self.dangling_refs {
            writeln!(f, "  dangling shared ref: {mb}/{id} dropped")?;
        }
        for (id, from, to) in &self.clamped_refcounts {
            writeln!(f, "  refcount clamped: mail {id}: {from} -> {to}")?;
        }
        for (id, from, to) in &self.raised_refcounts {
            writeln!(f, "  refcount raised: mail {id}: {from} -> {to}")?;
        }
        for (id, bytes) in &self.orphans_reclaimed {
            writeln!(
                f,
                "  orphan shared body: mail {id} ({bytes} bytes reclaimed)"
            )?;
        }
        Ok(())
    }
}

fn len_or_zero<B: Backend>(backend: &mut B, path: &str) -> StoreResult<u64> {
    if backend.exists(path) {
        backend.len(path)
    } else {
        Ok(0)
    }
}

/// Repairs an MFS store in place and opens it, returning the usable store
/// plus a deterministic report of every repair. Running `fsck` on the
/// resulting files again reports clean.
///
/// # Errors
///
/// Propagates backend I/O failures; unlike [`MfsStore::open`], corrupt
/// key files are repaired (truncated at the corruption point), not
/// reported as errors.
pub fn fsck<B: Backend>(backend: B) -> StoreResult<(MfsStore<B>, FsckReport)> {
    let mut report = FsckReport::default();
    let mut store = MfsStore::new(backend);

    // 1+2. Replay every key file, cutting each back to its longest valid
    // frame prefix as it is read. Refcounts stay as logged, so every
    // discrepancy is still visible for reporting. The shared log and the
    // mailboxes' entries live here, for the repairs below, and not in the
    // store.
    let mut boxes: BTreeMap<String, Vec<MailboxEntry>> = BTreeMap::new();
    let mut log = store.replay(TailPolicy::Repair(&mut report), |mb, entries| {
        boxes.insert(mb.to_owned(), entries);
    })?;

    // 3a. Shared entries whose body range runs past the shared data file:
    // the body is unreadable, so zero the refcount out of the log.
    let shared_data_len = len_or_zero(store.backend_mut(), &MfsStore::<B>::data_path(SHARED))?;
    let (cut, kept): (BTreeMap<_, _>, _) = std::mem::take(&mut log.bodies)
        .into_iter()
        .partition(|(_, e)| e.offset.saturating_add(e.len) > shared_data_len);
    log.bodies = kept;
    for (id, e) in cut {
        store.append_key(
            SHARED,
            KeyRecord {
                id,
                offset: e.offset,
                len: e.len,
                delta: -e.refs,
            },
        )?;
        report.truncated_bodies.push((SHARED.to_owned(), id));
    }

    // 3b+4. Mailbox entries that are unreadable (own body range past the
    // data file) or dangling (shared mail absent from the log). A by-id
    // tombstone can't single out one of several same-id entries, so the
    // repair rewrites the key file from the surviving entries instead —
    // the one place fsck replaces a log rather than appending to it.
    for (mb, entries) in &mut boxes {
        let data_len = len_or_zero(store.backend_mut(), &MfsStore::<B>::data_path(mb))?;
        let mut keep = Vec::with_capacity(entries.len());
        for e in entries.iter() {
            // A shared entry's range was checked in 3a, against the body
            // all its references share.
            if e.shared && !log.bodies.contains_key(&e.id) {
                report.dangling_refs.push((mb.clone(), e.id));
            } else if !e.shared && e.offset.saturating_add(e.len) > data_len {
                report.truncated_bodies.push((mb.clone(), e.id));
            } else {
                keep.push(*e);
            }
        }
        if keep.len() != entries.len() {
            let mut bytes = Vec::with_capacity(keep.len() * frame::FRAME_LEN);
            for e in &keep {
                bytes.extend_from_slice(&frame::encode(
                    &KeyRecord {
                        id: e.id,
                        offset: e.offset,
                        len: e.len,
                        delta: if e.shared { -1 } else { 1 },
                    }
                    .encode(),
                ));
            }
            store
                .backend_mut()
                .replace(&MfsStore::<B>::key_path(mb), DataRef::Bytes(&bytes))?;
            *entries = keep;
        }
    }

    // 5. Rebuild shmailbox refcounts from the surviving mailbox entries.
    let mut held = Held::default();
    for entries in boxes.values() {
        held.count(entries);
    }
    for (&id, e) in &mut log.bodies {
        let live = held.of(id);
        if e.refs == live {
            continue;
        }
        store.append_key(
            SHARED,
            KeyRecord {
                id,
                offset: e.offset,
                len: e.len,
                delta: live - e.refs,
            },
        )?;
        if live == 0 {
            report.orphans_reclaimed.push((id, e.len));
        } else if e.refs > live {
            report.clamped_refcounts.push((id, e.refs, live));
        } else {
            report.raised_refcounts.push((id, e.refs, live));
        }
        e.refs = live;
    }
    log.bodies.retain(|_, e| e.refs > 0);

    // The highest mailbox id a replay of the repaired files finds; the
    // shared log's is replay's, since repairs only append to it.
    store.max_id = boxes.values().flatten().map(|e| e.id).max();
    log.debug_check(&held);
    Ok((store, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataRef, MailStore, MemFs, StoreError};

    fn backend_of(store: MfsStore<MemFs>) -> MemFs {
        let mut store = store;
        std::mem::replace(store.backend_mut(), MemFs::new())
    }

    #[test]
    fn clean_store_reports_clean() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(MemFs::new());
        s.deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"shared"))?;
        s.deliver(MailId(2), &["a"], DataRef::Bytes(b"own"))?;
        let (mut repaired, report) = fsck(backend_of(s))?;
        assert!(report.is_clean());
        assert_eq!(report.to_string(), "mfsck: clean\n");
        assert_eq!(repaired.read_mailbox("a")?.len(), 2);
        Ok(())
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(MemFs::new());
        s.deliver(MailId(1), &["a"], DataRef::Bytes(b"mail"))?;
        let mut fs = backend_of(s);
        fs.append("mfs/a.key", DataRef::Bytes(&[0x01, 0x20, 0xAB]))?;
        let (mut repaired, report) = fsck(fs)?;
        assert_eq!(report.torn_tails, vec![("mfs/a.key".to_owned(), 3)]);
        assert_eq!(repaired.read_mailbox("a")?.len(), 1);
        // Second run is clean.
        let (_, again) = fsck(backend_of(repaired))?;
        assert!(again.is_clean());
        Ok(())
    }

    #[test]
    fn corrupt_frame_truncates_at_corruption_point() -> Result<(), Box<dyn std::error::Error>> {
        // Flip a byte inside the first frame: strict open refuses, fsck
        // truncates both records away (the second follows the corruption).
        let build = || -> Result<MemFs, StoreError> {
            let mut s = MfsStore::new(MemFs::new());
            s.deliver(MailId(1), &["a"], DataRef::Bytes(b"one"))?;
            s.deliver(MailId(2), &["a"], DataRef::Bytes(b"two"))?;
            let mut fs = backend_of(s);
            let total = fs.len("mfs/a.key")?;
            let mut bytes = fs.read_at("mfs/a.key", 0, total)?;
            bytes[10] ^= 0xFF;
            fs.replace("mfs/a.key", DataRef::Bytes(&bytes))?;
            Ok(fs)
        };
        assert!(matches!(
            MfsStore::open(build()?),
            Err(StoreError::CorruptRecord(_))
        ));
        let (mut repaired, report) = fsck(build()?)?;
        assert_eq!(report.corrupt_frames.len(), 1);
        assert_eq!(report.corrupt_frames[0].1, 0, "corruption at offset 0");
        assert!(repaired.read_mailbox("a")?.is_empty());
        Ok(())
    }

    #[test]
    fn over_counted_refcount_is_clamped_on_disk() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(MemFs::new());
        s.deliver(MailId(5), &["a", "b"], DataRef::Bytes(b"body"))?;
        let mut fs = backend_of(s);
        // Simulate a crash after the shared-log append but before any
        // attach: an extra +3 delta with no matching mailbox entries.
        let extra = frame::encode(
            &KeyRecord {
                id: MailId(5),
                offset: 0,
                len: 4,
                delta: 3,
            }
            .encode(),
        );
        fs.append("mfs/shmailbox.key", DataRef::Bytes(&extra))?;
        let (mut repaired, report) = fsck(fs)?;
        assert_eq!(report.clamped_refcounts, vec![(MailId(5), 5, 2)]);
        assert_eq!(repaired.stats().shared_mails, 1);
        // The clamp is durable: a strict reopen agrees without clamping.
        let (mut reopened, again) = fsck(backend_of(repaired))?;
        assert!(again.is_clean());
        assert_eq!(reopened.stats().shared_mails, 1);
        Ok(())
    }

    #[test]
    fn orphan_shared_body_is_reclaimed() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(MemFs::new());
        s.deliver(MailId(9), &["x", "y"], DataRef::Bytes(b"orphan"))?;
        let mut fs = backend_of(s);
        // Lose both mailbox key files: the shared body has no referents.
        fs.remove("mfs/x.key")?;
        fs.remove("mfs/y.key")?;
        let (mut repaired, report) = fsck(fs)?;
        assert_eq!(report.orphans_reclaimed, vec![(MailId(9), 6)]);
        assert_eq!(repaired.stats().shared_mails, 0);
        assert_eq!(repaired.stats().freed_shared_bytes, 6);
        Ok(())
    }

    #[test]
    fn dangling_ref_is_tombstoned() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(MemFs::new());
        s.deliver(MailId(3), &["a", "b"], DataRef::Bytes(b"body"))?;
        let mut fs = backend_of(s);
        // Lose the shared key log: both mailbox refs now dangle.
        fs.remove("mfs/shmailbox.key")?;
        let (mut repaired, report) = fsck(fs)?;
        assert_eq!(
            report.dangling_refs,
            vec![("a".to_owned(), MailId(3)), ("b".to_owned(), MailId(3))]
        );
        assert!(repaired.read_mailbox("a")?.is_empty());
        assert!(repaired.read_mailbox("b")?.is_empty());
        let (_, again) = fsck(backend_of(repaired))?;
        assert!(again.is_clean());
        Ok(())
    }

    #[test]
    fn under_counted_refcount_is_raised() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(MemFs::new());
        s.deliver(MailId(4), &["a", "b", "c"], DataRef::Bytes(b"body"))?;
        let mut fs = backend_of(s);
        // A hostile -2 delta: refcount drops to 1 with 3 live refs.
        let rogue = frame::encode(
            &KeyRecord {
                id: MailId(4),
                offset: 0,
                len: 4,
                delta: -2,
            }
            .encode(),
        );
        fs.append("mfs/shmailbox.key", DataRef::Bytes(&rogue))?;
        let (mut repaired, report) = fsck(fs)?;
        assert_eq!(report.raised_refcounts, vec![(MailId(4), 1, 3)]);
        // All three mailboxes still read the body.
        for mb in ["a", "b", "c"] {
            assert_eq!(repaired.read_mailbox(mb)?[0].body, b"body");
        }
        Ok(())
    }

    #[test]
    fn truncated_own_body_is_tombstoned() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(MemFs::new());
        s.deliver(MailId(1), &["a"], DataRef::Bytes(b"short"))?;
        s.deliver(MailId(2), &["a"], DataRef::Bytes(b"casualty"))?;
        let mut fs = backend_of(s);
        // Data file loses its tail (e.g. restored from a short backup).
        fs.truncate("mfs/a.data", 5)?;
        let (mut repaired, report) = fsck(fs)?;
        assert_eq!(report.truncated_bodies, vec![("a".to_owned(), MailId(2))]);
        let mails = repaired.read_mailbox("a")?;
        assert_eq!(mails.len(), 1);
        assert_eq!(mails[0].body, b"short");
        Ok(())
    }

    /// One image needing every kind of repair: what `fsck` repaired in
    /// memory — the highest ids, which [`ShardedStore::open_with_fsck`]
    /// deals to the shared partition — must be what a replay of the
    /// repaired files finds, and every mailbox must list the same and
    /// count the same.
    #[test]
    fn repaired_index_equals_a_replay_of_the_repaired_files(
    ) -> Result<(), Box<dyn std::error::Error>> {
        use crate::{ShardedStore, SyncBackend};
        let delta_frame = |id, len, delta| {
            let rec = KeyRecord {
                id: MailId(id),
                offset: 0,
                len,
                delta,
            };
            frame::encode(&rec.encode())
        };
        let mut s = MfsStore::new(MemFs::new());
        s.deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"over"))?;
        s.deliver(MailId(2), &["c", "d", "e"], DataRef::Bytes(b"under"))?;
        s.deliver(MailId(3), &["x", "y"], DataRef::Bytes(b"orphan"))?;
        s.deliver(MailId(4), &["f"], DataRef::Bytes(b"short"))?;
        s.deliver(MailId(5), &["f"], DataRef::Bytes(b"casualty"))?;
        s.deliver(MailId(6), &["g", "h"], DataRef::Bytes(b"cut off"))?;
        s.deliver(MailId(7), &["i"], DataRef::Bytes(b"one"))?;
        s.deliver(MailId(8), &["i"], DataRef::Bytes(b"two"))?;
        let mut fs = backend_of(s);
        fs.append("mfs/shmailbox.key", DataRef::Bytes(&delta_frame(1, 4, 3)))?;
        fs.append("mfs/shmailbox.key", DataRef::Bytes(&delta_frame(2, 5, -2)))?;
        fs.remove("mfs/x.key")?;
        fs.remove("mfs/y.key")?;
        fs.truncate("mfs/f.data", 5)?;
        let shared_data = fs.len("mfs/shmailbox.data")?;
        fs.truncate("mfs/shmailbox.data", shared_data - 1)?;
        fs.append("mfs/a.key", DataRef::Bytes(&[0x01, 0x20, 0xAB]))?;
        let total = fs.len("mfs/i.key")?;
        let mut bytes = fs.read_at("mfs/i.key", 0, total)?;
        bytes[10] ^= 0xFF;
        fs.replace("mfs/i.key", DataRef::Bytes(&bytes))?;

        let fs = SyncBackend::new(fs);
        let (dealt, report) = ShardedStore::open_with_fsck(3, || Ok(fs.clone()))?;
        assert_eq!(report.torn_tails.len(), 1, "{report}");
        assert_eq!(report.corrupt_frames.len(), 1, "{report}");
        assert_eq!(report.truncated_bodies.len(), 2, "{report}");
        assert_eq!(report.dangling_refs.len(), 2, "{report}");
        assert_eq!(report.clamped_refcounts.len(), 1, "{report}");
        assert_eq!(report.raised_refcounts.len(), 1, "{report}");
        assert_eq!(report.orphans_reclaimed.len(), 1, "{report}");
        let replayed = ShardedStore::open_with(3, || Ok(fs.clone()))?;
        for mb in ["a", "b", "c", "d", "e", "f", "g", "h", "i", "x", "y"] {
            assert_eq!(dealt.list_mailbox(mb), replayed.list_mailbox(mb), "{mb}");
        }
        assert_eq!(dealt.stats(), replayed.stats());
        assert_eq!(dealt.max_mail_id(), replayed.max_mail_id());
        assert_eq!(dealt.stats().own_records, 1);
        assert_eq!(dealt.stats().shared_references, 5);
        Ok(())
    }

    #[test]
    fn report_display_is_deterministic() -> Result<(), Box<dyn std::error::Error>> {
        let build = || -> StoreResult<MemFs> {
            let mut s = MfsStore::new(MemFs::new());
            s.deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"one"))?;
            s.deliver(MailId(2), &["c", "d"], DataRef::Bytes(b"two"))?;
            let mut fs = backend_of(s);
            fs.remove("mfs/a.key")?;
            fs.append("mfs/c.key", DataRef::Bytes(&[0x01]))?;
            Ok(fs)
        };
        let (_, r1) = fsck(build()?)?;
        let (_, r2) = fsck(build()?)?;
        assert_eq!(r1, r2);
        assert_eq!(r1.to_string(), r2.to_string());
        assert!(r1.repairs() > 0);
        Ok(())
    }
}
