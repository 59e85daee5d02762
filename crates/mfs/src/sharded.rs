//! Sharded concurrent facade over [`MfsStore`] — per-mailbox lock striping.
//!
//! The live server originally serialized every delivery and retrieval
//! behind one `Mutex<MfsStore>`: POP3 reading mailbox A blocked SMTP
//! delivering to mailbox B, so worker threads bought nothing once DATA
//! volume rose. [`ShardedStore`] restores the scaling the paper's §5
//! architecture promises by partitioning the store:
//!
//! * **N mailbox shards**, selected by FNV-1a hash of the mailbox name.
//!   Each shard is a full [`MfsStore`] that alone appends to its
//!   mailboxes' files. It keeps no index of them: a listing, a read by id
//!   or a delete reads the mailbox's key file under the shard's lock, and
//!   the shard remembers only the one mailbox it read last; a read of an
//!   entry a listing returned reads the body alone. Operations on
//!   different shards never contend.
//! * **One shared partition** holding the §6.1 `shmailbox` state (the
//!   single-copy bodies and the refcount log).
//!
//! How a mail is placed, deleted, scanned and counted is written once,
//! in `mfs_store.rs`, as steps that each touch one partition's files;
//! this layer only chooses the lock each step runs under.
//!
//! # Lock ordering (deadlock freedom)
//!
//! No thread ever holds two partition locks at once: each step takes one
//! lock and releases it before the next (a shared delivery's body append
//! is over before any recipient's shard is taken), so no cycle can
//! form. The type says so: a partition is only reachable through
//! `with_part`/`peek`, which run a closure under the lock and hand no
//! guard out, and in debug builds `SoleHold` panics when a thread enters
//! one of them while inside another. The files stay consistent without
//! cross-lock critical sections because every MFS file is append-only
//! and a shared body's `(offset, len)` is only published to shards
//! *after* its append completed.
//!
//! All partitions must observe the same underlying files: with
//! [`crate::RealDir`] each partition opens its own handle onto the same
//! directory; for in-memory backends, [`SyncBackend`] turns one
//! [`crate::MemFs`] into cloneable handles.

use crate::backend::DataRef;
use crate::mfs_store::{self, Part, Parts, ShardMetrics, StoreMetrics, SHARE_THRESHOLD};
use crate::{Backend, MailId, MailboxEntry, MfsStats, MfsStore, StoreResult, StoredMail};
use spamaware_metrics::{lock, Registry};
use std::sync::{Arc, Mutex, PoisonError};

#[cfg(debug_assertions)]
use sole_hold::SoleHold;

/// Debug builds only.
#[cfg(debug_assertions)]
mod sole_hold {
    use std::cell::Cell;

    thread_local! {
        static HOLDS_A_PARTITION: Cell<bool> = const { Cell::new(false) };
    }

    /// Marks this thread as inside a partition hold for as long as the
    /// value lives, and panics on a second hold under the first — the one
    /// way left to deadlock a store whose locks never leave a closure.
    pub(super) struct SoleHold;

    impl SoleHold {
        pub(super) fn enter() -> SoleHold {
            assert!(
                !HOLDS_A_PARTITION.replace(true),
                "ShardedStore: partition lock requested while this thread already holds one"
            );
            SoleHold
        }
    }

    impl Drop for SoleHold {
        fn drop(&mut self) {
            HOLDS_A_PARTITION.set(false);
        }
    }
}

/// FNV-1a shard selection: stable across runs and platforms, so a store
/// reopened with the same shard count deals each mailbox to the same
/// shard that wrote it.
fn shard_index(mailbox: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in mailbox.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// A concurrent MFS store: `&self` delivery/retrieval/deletion with
/// per-mailbox lock striping.
///
/// Observationally equivalent to a single-lock [`MfsStore`] (enforced by
/// the `sharded_prop` proptest); the difference is purely which operations
/// can proceed in parallel.
///
/// # Example
///
/// ```
/// use spamaware_mfs::{DataRef, MailId, MemFs, ShardedStore, SyncBackend};
///
/// let fs = SyncBackend::new(MemFs::new());
/// let store = ShardedStore::open_with(4, || Ok(fs.clone()))?;
/// // &self: no outer mutex needed, share via Arc across worker threads.
/// store.deliver(MailId(1), &["a", "b", "c"], DataRef::Bytes(b"spam!"))?;
/// assert_eq!(store.read_mailbox("b")?[0].body, b"spam!");
/// assert_eq!(store.stats().shared_mails, 1);
/// # Ok::<(), spamaware_mfs::StoreError>(())
/// ```
#[derive(Debug)]
pub struct ShardedStore<B> {
    /// The `shmailbox` partition: single-copy bodies + refcount log.
    shared: Mutex<MfsStore<B>>,
    /// Mailbox partitions, indexed by [`shard_index`].
    shards: Vec<Mutex<MfsStore<B>>>,
    /// The clone of the partitions' group this layer records deliveries
    /// and deletes in, and its own contention span.
    metrics: Option<(StoreMetrics, ShardMetrics)>,
}

impl<B: Backend> ShardedStore<B> {
    /// Opens a sharded store with `shards` mailbox partitions, calling
    /// `make` once per partition (the shared one included, plus once for
    /// the replay) to produce backend handles that all view the same files
    /// — e.g. `|| RealDir::new(&root)` or `|| Ok(sync_memfs.clone())`.
    ///
    /// Existing MFS files are replayed exactly once, through the first
    /// handle, by [`MfsStore::open`], and what it keeps — the highest ids
    /// and the recovery count — becomes the shared partition; the mailbox
    /// shards start empty and read their key files when asked.
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures and
    /// [`crate::StoreError::CorruptRecord`] from replay.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn open_with(
        shards: usize,
        mut make: impl FnMut() -> StoreResult<B>,
    ) -> StoreResult<ShardedStore<B>> {
        assert!(shards >= 1, "shard count must be at least 1");
        Self::deal(MfsStore::open(make()?)?, shards, make)
    }

    /// Opens a sharded store with a durable repair pass first: runs
    /// [`crate::fsck`] over the first backend handle (truncating torn
    /// tails, dropping corrupt frames, rebuilding shmailbox refcounts on
    /// disk), then deals what it keeps to the shared partition. This is
    /// how the live server restarts after a crash.
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures; unlike
    /// [`ShardedStore::open_with`], corrupt key files are repaired rather
    /// than reported.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn open_with_fsck(
        shards: usize,
        mut make: impl FnMut() -> StoreResult<B>,
    ) -> StoreResult<(ShardedStore<B>, crate::FsckReport)> {
        assert!(shards >= 1, "shard count must be at least 1");
        let (whole, report) = crate::fsck(make()?)?;
        Ok((Self::deal(whole, shards, make)?, report))
    }

    /// Partitions a replayed store: `whole` — holding the highest ids
    /// and the recovery count, and nothing per mail — becomes the shared
    /// partition, and `shards` fresh stores the mailbox partitions.
    fn deal(
        mut whole: MfsStore<B>,
        shards: usize,
        mut make: impl FnMut() -> StoreResult<B>,
    ) -> StoreResult<ShardedStore<B>> {
        // The handle that read the spool still holds the mailboxes' files
        // open, as many as its table takes, and the shared partition uses
        // none of them: a server keeps its descriptors for its shards
        // (DESIGN.md §11 *Boot*).
        *whole.backend_mut() = make()?;
        let mut parts = Vec::with_capacity(shards);
        for _ in 0..shards {
            parts.push(Mutex::new(MfsStore::new(make()?)));
        }
        Ok(ShardedStore {
            shared: Mutex::new(whole),
            shards: parts,
            metrics: None,
        })
    }

    /// The highest [`MailId`] anywhere in the store (see
    /// [`MfsStore::max_mail_id`]); the live server seeds its allocator
    /// above this on restart so ids are never reused.
    pub fn max_mail_id(&self) -> Option<MailId> {
        let parts = std::iter::once(&self.shared).chain(&self.shards);
        parts
            .filter_map(|part| Self::peek(part, |p| p.max_mail_id()))
            .max()
    }

    /// Torn trailing key records truncated away by the replay in
    /// [`ShardedStore::open_with`] (see [`MfsStore::recovered_records`]);
    /// the store that replayed is the shared partition.
    pub fn recovered_records(&self) -> u64 {
        Self::peek(&self.shared, |p| p.recovered_records())
    }

    /// Records every row of [`crate::INSTRUMENTS`] into `registry`: the
    /// group is registered once, and each partition gets a clone of its
    /// handles. Deliveries and deletes are timed in this layer's clone,
    /// one span per logical operation however many partitions it touches;
    /// reads and the byte and refcount counters are recorded by the
    /// partitions.
    pub fn with_metrics(mut self, registry: &Registry) -> ShardedStore<B> {
        let store = StoreMetrics::register(registry);
        for part in std::iter::once(&mut self.shared).chain(&mut self.shards) {
            let part = part.get_mut().unwrap_or_else(PoisonError::into_inner);
            part.metrics = Some(store.clone());
        }
        self.metrics = Some((store, ShardMetrics::register(registry)));
        self
    }

    /// Runs one store operation, `f`, under the lock of the partition
    /// `at` names, charging the wait for it to `shard_contention_ns` when
    /// metrics are on. The guard never leaves this function, so a hold
    /// ends where its closure ends; it cannot reach a loop's next turn or
    /// a later match arm.
    fn with_part<R>(&self, at: Part<'_>, f: impl FnOnce(&mut MfsStore<B>) -> R) -> R {
        #[cfg(debug_assertions)]
        let _sole = SoleHold::enter();
        let part = self.part(at);
        let mut guard = match &self.metrics {
            Some((_, shard)) => {
                let start = shard.contention_ns.now();
                let guard = lock(part);
                shard.contention_ns.record_since(start);
                guard
            }
            None => lock(part),
        };
        f(&mut guard)
    }

    /// [`ShardedStore::with_part`] for the reporting paths: not a store
    /// operation, so it stays out of the contention histogram.
    fn peek<R>(part: &Mutex<MfsStore<B>>, f: impl FnOnce(&mut MfsStore<B>) -> R) -> R {
        #[cfg(debug_assertions)]
        let _sole = SoleHold::enter();
        f(&mut lock(part))
    }

    fn part(&self, at: Part<'_>) -> &Mutex<MfsStore<B>> {
        match at {
            Part::Mailbox(mailbox) => &self.shards[shard_index(mailbox, self.shards.len())],
            Part::Shared => &self.shared,
        }
    }

    /// Delivers one mail to all `mailboxes` — the concurrent
    /// `mail_nwrite`, [`MfsStore::nwrite`]'s rule with each step under
    /// its own lock: the shared body's append is over before any
    /// recipient's shard is taken.
    ///
    /// # Errors
    ///
    /// Same surface as [`MfsStore::nwrite`], including
    /// [`crate::StoreError::MailIdCollision`] for the §6.4 defence.
    pub fn deliver(&self, id: MailId, mailboxes: &[&str], body: DataRef<'_>) -> StoreResult<()> {
        mfs_store::deliver(self, id, mailboxes, body)
    }

    /// Mailbox listing: every live mail, in delivery order, under one
    /// hold of the mailbox's shard for one key-file read — none when the
    /// shard's memo holds the mailbox — and no body read.
    ///
    /// # Errors
    ///
    /// Backend failures reading the key file, and
    /// [`crate::StoreError::CorruptRecord`] for a frame that fails
    /// validation.
    pub fn list_entries(&self, mailbox: &str) -> StoreResult<Vec<MailboxEntry>> {
        self.with_part(Part::Mailbox(mailbox), |p| p.list_entries(mailbox))
    }

    /// `(id, body length)` per live mail ([`ShardedStore::list_entries`]),
    /// listing a mailbox whose key file cannot be read as empty.
    pub fn list_mailbox(&self, mailbox: &str) -> Vec<(MailId, u64)> {
        self.with_part(Part::Mailbox(mailbox), |p| p.list_mailbox(mailbox))
    }

    /// Reads one mail under one short shard hold (see
    /// [`MfsStore::read_mail`]).
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::NotFound`] when the mailbox has no live mail
    /// with this id; backend read failures.
    pub fn read_mail(&self, mailbox: &str, id: MailId) -> StoreResult<StoredMail> {
        self.with_part(Part::Mailbox(mailbox), |p| p.read_mail(mailbox, id))
    }

    /// Reads the body of `entry`, from a listing of `mailbox`, under one
    /// short shard hold: one body read, and no key-file read whatever the
    /// shard read since. Data files only grow while the store is open, so
    /// a mail deleted after the listing still reads as the listing saw it
    /// — a POP3 session's `RETR` serves the mailbox as its login listed
    /// it.
    ///
    /// # Errors
    ///
    /// Backend read failures.
    pub fn read_entry(&self, mailbox: &str, entry: &MailboxEntry) -> StoreResult<StoredMail> {
        self.with_part(Part::Mailbox(mailbox), |p| p.read_entry(mailbox, entry))
    }

    /// Reads every live mail in a mailbox, in delivery order, with no
    /// hold across the scan: one hold lists the key file, then each body
    /// is read by the listing's coordinates under its own, so deliveries
    /// on the same stripe interleave instead of waiting out O(mailbox)
    /// disk reads. A mail deleted after the listing is returned as
    /// listed, as [`ShardedStore::read_entry`] serves it.
    ///
    /// # Errors
    ///
    /// Propagates backend read failures.
    pub fn read_mailbox(&self, mailbox: &str) -> StoreResult<Vec<StoredMail>> {
        mfs_store::scan(self, mailbox)
    }

    /// Deletes one mail from one mailbox: tombstone under the shard lock,
    /// then — only if the mail was shared — a refcount release under the
    /// shared lock (never both at once).
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::NotFound`] when the mailbox or id is unknown.
    pub fn delete(&self, mailbox: &str, id: MailId) -> StoreResult<()> {
        mfs_store::delete(self, mailbox, id)
    }

    /// Aggregate statistics (see [`MfsStore::stats`]): the shared key log
    /// read under the shared partition's lock, and every mailbox's key
    /// file under its shard's. Consistent only when quiescent (locks are
    /// taken one partition at a time, so a concurrent delivery may be
    /// half-counted — fine for reporting).
    pub fn stats(&self) -> MfsStats {
        mfs_store::stats(self)
    }
}

impl<B: Backend> Parts for &ShardedStore<B> {
    type Backend = B;

    fn step<R>(&mut self, at: Part<'_>, f: impl FnOnce(&mut MfsStore<B>) -> R) -> R {
        self.with_part(at, f)
    }

    fn peek<R>(&mut self, at: Part<'_>, f: impl FnOnce(&mut MfsStore<B>) -> R) -> R {
        ShardedStore::peek(self.part(at), f)
    }

    fn metrics(&self) -> Option<&StoreMetrics> {
        self.metrics.as_ref().map(|(store, _)| store)
    }

    fn share_threshold(&self) -> usize {
        SHARE_THRESHOLD
    }
}

/// Clonable, thread-safe handle wrapping a single [`Backend`]: every clone
/// locks the same underlying file system for each operation.
///
/// This is how an in-memory backend (one [`crate::MemFs`]) serves all
/// [`ShardedStore`] partitions in tests and benches; [`crate::RealDir`]
/// doesn't need it because independent handles onto one directory already
/// share the files.
#[derive(Debug)]
pub struct SyncBackend<B> {
    inner: Arc<Mutex<B>>,
}

impl<B> SyncBackend<B> {
    /// Wraps a backend for shared multi-handle access.
    pub fn new(backend: B) -> SyncBackend<B> {
        SyncBackend {
            inner: Arc::new(Mutex::new(backend)),
        }
    }
}

impl<B> Clone for SyncBackend<B> {
    fn clone(&self) -> SyncBackend<B> {
        SyncBackend {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<B: Backend> Backend for SyncBackend<B> {
    fn create(&mut self, path: &str) -> StoreResult<()> {
        lock(&self.inner).create(path)
    }

    fn append(&mut self, path: &str, data: DataRef<'_>) -> StoreResult<u64> {
        lock(&self.inner).append(path, data)
    }

    fn read_at(&mut self, path: &str, offset: u64, len: u64) -> StoreResult<Vec<u8>> {
        lock(&self.inner).read_at(path, offset, len)
    }

    fn len(&mut self, path: &str) -> StoreResult<u64> {
        lock(&self.inner).len(path)
    }

    fn link(&mut self, src: &str, dst: &str) -> StoreResult<()> {
        lock(&self.inner).link(src, dst)
    }

    fn remove(&mut self, path: &str) -> StoreResult<()> {
        lock(&self.inner).remove(path)
    }

    fn truncate(&mut self, path: &str, len: u64) -> StoreResult<()> {
        lock(&self.inner).truncate(path, len)
    }

    fn exists(&mut self, path: &str) -> bool {
        lock(&self.inner).exists(path)
    }

    fn list(&mut self, prefix: &str) -> StoreResult<Vec<String>> {
        lock(&self.inner).list(prefix)
    }

    // The defaults would take the lock twice, letting another handle's
    // write interleave inside one logical operation; hold it once instead.
    fn replace(&mut self, path: &str, data: DataRef<'_>) -> StoreResult<()> {
        lock(&self.inner).replace(path, data)
    }

    fn append_record(&mut self, path: &str, header: &[u8], body: DataRef<'_>) -> StoreResult<u64> {
        lock(&self.inner).append_record(path, header, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Call, Intercept, MemFs, Op, Policy, Verdict};

    fn sharded(n: usize) -> ShardedStore<SyncBackend<MemFs>> {
        let fs = SyncBackend::new(MemFs::new());
        ShardedStore::open_with(n, || Ok(fs.clone())).unwrap()
    }

    #[test]
    fn reopen_replays_each_mailbox_into_its_shard() {
        let fs = SyncBackend::new(MemFs::new());
        {
            let s = ShardedStore::open_with(4, || Ok(fs.clone())).unwrap();
            s.deliver(MailId(1), &["alice"], DataRef::Bytes(b"own"))
                .unwrap();
            s.deliver(MailId(2), &["a", "b", "c"], DataRef::Bytes(b"shared"))
                .unwrap();
            s.delete("b", MailId(2)).unwrap();
        }
        // A torn append on a mailbox's key file is cut off and counted.
        fs.clone()
            .append("mfs/alice.key", DataRef::Bytes(&[0x01, 0x20, 0xAB]))
            .unwrap();
        // Different shard count: every mailbox must still be found.
        let s = ShardedStore::open_with(7, || Ok(fs.clone())).unwrap();
        assert_eq!(s.recovered_records(), 1);
        assert_eq!(s.read_mailbox("alice").unwrap()[0].body, b"own");
        assert_eq!(s.read_mailbox("a").unwrap()[0].body, b"shared");
        assert!(s.read_mailbox("b").unwrap().is_empty());
        let stats = s.stats();
        assert_eq!(stats.shared_mails, 1);
        assert_eq!(stats.shared_references, 2);
        assert_eq!(stats.own_records, 1);
    }

    /// [`MfsStore`]'s failed-attach case through the partitions: the
    /// shared `+3` lands under the shared lock, b's attach fails under its
    /// shard's, and once a's reference is deleted the statistics free the
    /// body, equal to a reopen's.
    #[test]
    fn a_failed_attach_frees_the_body_with_its_last_landed_reference() {
        let fs = SyncBackend::new(crate::FaultyBackend::new(MemFs::new()));
        let s = ShardedStore::open_with(3, || Ok(fs.clone())).unwrap();
        lock(&fs.inner).plan_mut().fail_after = Some(3);
        assert!(s
            .deliver(MailId(1), &["a", "b", "c"], DataRef::Bytes(b"body"))
            .is_err());
        lock(&fs.inner).plan_mut().fail_after = None;
        assert_eq!(s.list_mailbox("a"), [(MailId(1), 4)]);
        s.delete("a", MailId(1)).unwrap();
        let stats = s.stats();
        assert_eq!(stats.shared_mails, 0);
        assert_eq!(stats.freed_shared_bytes, 4);
        let reopened = ShardedStore::open_with(3, || Ok(fs.clone())).unwrap();
        assert_eq!(reopened.stats(), stats);
    }

    /// Counts the calls a boot is budgeted in.
    #[derive(Default)]
    struct CallCounts {
        lists: u64,
        reads: u64,
    }

    impl Policy for CallCounts {
        fn before(&mut self, call: Call<'_>) -> Verdict {
            match call.op {
                Op::List => self.lists += 1,
                Op::ReadAt => self.reads += 1,
                _ => {}
            }
            Verdict::Pass
        }
    }

    type Counting = Intercept<MemFs, CallCounts>;

    #[test]
    fn boot_lists_the_spool_once_and_reads_each_key_file_once() {
        let fs = SyncBackend::new(Counting::with_policy(MemFs::new(), CallCounts::default()));
        {
            let s = ShardedStore::open_with(8, || Ok(fs.clone())).unwrap();
            for i in 0..20u64 {
                let own = format!("own{i}");
                s.deliver(MailId(2 * i), &[own.as_str()], DataRef::Bytes(b"own"))
                    .unwrap();
                s.deliver(
                    MailId(2 * i + 1),
                    &["a", "b", "c"],
                    DataRef::Bytes(b"shared"),
                )
                .unwrap();
            }
            s.delete("b", MailId(1)).unwrap();
        }
        let key_files = 20 + 3 + 1;
        let calls = |fs: &SyncBackend<Counting>| {
            let counts = std::mem::take(lock(&fs.inner).policy_mut());
            (counts.lists, counts.reads)
        };
        calls(&fs);
        let replayed = ShardedStore::open_with(8, || Ok(fs.clone())).unwrap();
        assert_eq!(calls(&fs), (1, key_files), "open_with");
        let (dealt, report) = ShardedStore::open_with_fsck(8, || Ok(fs.clone())).unwrap();
        assert_eq!(calls(&fs), (1, key_files), "open_with_fsck");
        assert!(report.is_clean());
        assert_eq!(dealt.stats(), replayed.stats());
        assert_eq!(dealt.stats().own_records, 20);
        assert_eq!(dealt.stats().shared_references, 59);
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 8, 13] {
            for mb in ["alice", "bob", "carol", "shmailbox-not", ""] {
                let i = shard_index(mb, n);
                assert!(i < n);
                assert_eq!(i, shard_index(mb, n), "deterministic");
            }
        }
    }

    #[test]
    fn illegal_mailbox_name_rejected() {
        let s = sharded(2);
        for name in ["shmailbox", "", "a/b"] {
            assert!(
                s.deliver(MailId(1), &[name], DataRef::Bytes(b"x")).is_err(),
                "{name:?}"
            );
        }
    }

    /// A POP3 scan must not keep a stripe for O(mailbox) disk reads: one
    /// hold lists the key file and each mail is read under its own, so a
    /// mailbox of n mails costs n + 1 acquisitions. Calling
    /// `MfsStore::read_mailbox` under a single hold makes it 1.
    #[test]
    fn read_mailbox_takes_one_short_hold_per_mail() {
        let registry = Registry::with_wall_clock();
        let s = sharded(4).with_metrics(&registry);
        let n = 5;
        for i in 0..n {
            s.deliver(MailId(i), &["alice"], DataRef::Bytes(b"own"))
                .unwrap();
        }
        let holds = || registry.histogram_count("mfs.shard_contention_ns").unwrap();
        let before = holds();
        assert_eq!(s.read_mailbox("alice").unwrap().len() as u64, n);
        assert_eq!(holds() - before, n + 1);
    }

    /// Every body read is one `read_ns` sample, the listing-driven
    /// `read_entry` a POP3 `RETR` makes included.
    #[test]
    fn each_body_read_is_one_read_span() -> Result<(), Box<dyn std::error::Error>> {
        let registry = Registry::with_wall_clock();
        let s = sharded(4).with_metrics(&registry);
        s.deliver(MailId(1), &["alice"], DataRef::Bytes(b"own"))?;
        let reads = || registry.histogram_count("mfs.read_ns").unwrap_or(0);
        let listing = s.list_entries("alice")?;
        let before = reads();
        assert_eq!(s.read_entry("alice", &listing[0])?.body, b"own");
        assert_eq!(reads(), before + 1, "read_entry");
        s.read_mail("alice", MailId(1))?;
        assert_eq!(reads(), before + 2, "read_mail");
        Ok(())
    }

    /// The key files are the index: no partition holds a mailbox's
    /// entries until it reads that mailbox, and then only that one's.
    #[test]
    fn a_partition_holds_only_the_mailbox_it_read_last() {
        let s = sharded(4);
        let held = || -> usize {
            std::iter::once(&s.shared)
                .chain(&s.shards)
                .map(|part| ShardedStore::peek(part, |p| p.held_entries()))
                .sum()
        };
        let a = "alice";
        let b = (0..)
            .map(|i| format!("user{i}"))
            .find(|mb| shard_index(mb, 4) == shard_index(a, 4))
            .unwrap();
        let (mut in_a, mut in_b) = (0, 0);
        for i in 0..10_000u64 {
            let to: &[&str] = match i % 4 {
                0 => &[a, &b],
                1 | 2 => &[a],
                _ => &[&b],
            };
            in_a += usize::from(to.contains(&a));
            in_b += usize::from(to.contains(&b.as_str()));
            s.deliver(MailId(i + 1), to, DataRef::Bytes(b"m")).unwrap();
        }
        assert_eq!(held(), 0, "deliveries read no mailbox");
        assert_eq!(s.list_mailbox(a).len(), in_a);
        assert_eq!(held(), in_a);
        assert_eq!(s.list_mailbox(&b).len(), in_b);
        assert_eq!(held(), in_b, "the second listing replaced the first");
        s.delete(&b, MailId(4)).unwrap();
        assert_eq!(held(), in_b - 1, "a delete keeps the memo equal");
    }

    /// What `SoleHold` is for: a second partition under the first is the
    /// only way this store can deadlock, and it dies in every debug test
    /// instead of once in production.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already holds one")]
    fn second_partition_under_a_hold_panics() {
        let s = sharded(2);
        s.with_part(Part::Shared, |_| s.with_part(Part::Mailbox("a"), |_| ()));
    }

    /// A record stays whole on a shared backend only if every layer above
    /// the lock forwards `append_record` as the one call it is: spelled as
    /// two appends, the lock drops between header and body and another
    /// handle's bytes land there.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn a_metered_record_over_a_shared_backend_is_never_split() {
        const RECORDS: usize = 20_000;
        let fs = SyncBackend::new(MemFs::new());
        let mut other = fs.clone();
        let noise = std::thread::spawn(move || {
            for _ in 0..RECORDS {
                other.append("mbox", DataRef::Bytes(b"!")).unwrap();
            }
        });
        let mut metered = crate::Metered::new(fs.clone(), crate::DiskProfile::free());
        for _ in 0..RECORDS {
            metered
                .append_record("mbox", b"<", DataRef::Bytes(b">"))
                .unwrap();
        }
        noise.join().unwrap();
        assert_eq!(metered.counts().appends, RECORDS as u64);
        let bytes = lock(&fs.inner)
            .read_at("mbox", 0, 3 * RECORDS as u64)
            .unwrap();
        let split = bytes.windows(2).filter(|w| w == b"<!").count();
        assert_eq!(split, 0, "headers followed by another handle's byte");
    }

    // The test's own thread joins its writers; crates/mfs/clippy.toml is
    // about code that may run under a partition.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn parallel_disjoint_mailboxes_do_not_interfere() {
        let s = std::sync::Arc::new(sharded(8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mb = format!("user{t}");
                for i in 0..50u64 {
                    s.deliver(MailId(t * 1000 + i), &[mb.as_str()], DataRef::Bytes(b"m"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            assert_eq!(s.read_mailbox(&format!("user{t}")).unwrap().len(), 50);
        }
        assert_eq!(s.stats().own_records, 200);
    }
}
