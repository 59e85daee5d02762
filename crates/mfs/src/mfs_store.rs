//! MFS — the single-copy, record-oriented mail file system (paper §6).
//!
//! Every mailbox is a pair of conventional files: a **key file** of
//! `(mail-id, offset, len, refcount)` tuples and a **data file** holding
//! the bodies of single-recipient mails. Multi-recipient mails are written
//! exactly once into a special shared mailbox (`shmailbox`), and each
//! recipient's key file gets a tuple with refcount `-1` pointing into the
//! shared data file (Fig. 9).
//!
//! Deviations from the paper, both documented in DESIGN.md:
//!
//! * tuples carry an explicit record length (the paper derives it from
//!   neighbouring offsets, which breaks under deletion);
//! * shared-mailbox refcount updates are log-structured — a delta tuple is
//!   appended rather than patched in place — keeping every file
//!   append-only, which is what a mail server wants from its I/O pattern.

use crate::backend::DataRef;
use crate::frame::{self, Tail};
use crate::{Backend, FsckReport, MailId, MailStore, StoreError, StoreResult, StoredMail};
use spamaware_metrics::{Counter, Registry, SpanHandle};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

pub(crate) mod fsck;

/// Registry-backed store instrumentation (see [`MfsStore::with_metrics`]).
#[derive(Debug)]
struct StoreMetrics {
    write_ns: SpanHandle,
    read_ns: SpanHandle,
    delete_ns: SpanHandle,
    /// Body bytes that landed in the shared data file (written once).
    shared_bytes: Arc<Counter>,
    /// Body bytes written into per-mailbox (private) data files.
    private_bytes: Arc<Counter>,
    /// Shared-refcount delta records appended to the shared key log.
    refcount_ops: Arc<Counter>,
}

const RECORD_LEN: u64 = 32;
pub(crate) const SHARED: &str = "shmailbox";

/// How many of the newest `shmailbox` records' ids a store remembers.
/// Workers take an id before they wait for the shared partition, so a
/// fresh id can reach it after a larger one: under `multi_rcpt_large`
/// 11 of 15,000 deliveries did, each one record late.
const RECENT_SHARED: usize = 64;

/// The rule every mailbox name the store writes passes: not empty, no
/// `/`, and not `shmailbox`, the shared log's own name.
pub fn check_mailbox_name(mailbox: &str) -> StoreResult<()> {
    if mailbox == SHARED || mailbox.is_empty() || mailbox.contains('/') {
        return Err(StoreError::Io(format!("illegal mailbox name: {mailbox:?}")));
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyRecord {
    pub(crate) id: MailId,
    pub(crate) offset: u64,
    pub(crate) len: u64,
    /// Mailbox key files: `1` own record, `-1` shared reference, `0`
    /// tombstone. Shared key file: signed refcount delta. Private, like
    /// [`SharedBody::refs`]: §6.1's "a shared record cannot be deleted
    /// until it is deleted from all MFS files that share it" is kept by
    /// this module and its child [`fsck`] and by nothing else.
    delta: i64,
}

impl KeyRecord {
    pub(crate) fn encode(self) -> [u8; RECORD_LEN as usize] {
        let mut b = [0u8; RECORD_LEN as usize];
        b[..8].copy_from_slice(&self.id.0.to_be_bytes());
        b[8..16].copy_from_slice(&self.offset.to_be_bytes());
        b[16..24].copy_from_slice(&self.len.to_be_bytes());
        b[24..32].copy_from_slice(&self.delta.to_be_bytes());
        b
    }

    /// The inverse of [`KeyRecord::encode`]: a frame's payload is always
    /// one whole record, so this cannot fail.
    pub(crate) fn decode(b: &[u8; RECORD_LEN as usize]) -> KeyRecord {
        let word = |at: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[at..at + 8]);
            w
        };
        KeyRecord {
            id: MailId(u64::from_be_bytes(word(0))),
            offset: u64::from_be_bytes(word(8)),
            len: u64::from_be_bytes(word(16)),
            delta: i64::from_be_bytes(word(24)),
        }
    }
}

/// One live mail of a mailbox, as its key file lists it: the id and body
/// length, and where the body lies. A listing hands these out so that a
/// later read of the same mail is one body read
/// ([`crate::ShardedStore::read_entry`]); only the store makes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxEntry {
    /// The mail's id.
    pub id: MailId,
    /// Body length in bytes.
    pub len: u64,
    pub(crate) offset: u64,
    /// In the shared data file rather than the mailbox's own.
    pub(crate) shared: bool,
}

/// What a read does with a key file whose frames stop validating before
/// the file ends.
pub(crate) enum TailPolicy<'a> {
    /// A live read of one mailbox: any invalid frame is an error, and
    /// nothing is cut — only replay and fsck change a key file's length.
    Refuse,
    /// Strict open: truncate a torn tail (counted in
    /// [`MfsStore::recovered_records`]), refuse corruption.
    Strict,
    /// [`crate::fsck`]: truncate at the first invalid frame whatever
    /// follows it, and list the cut in the report.
    Repair(&'a mut FsckReport),
}

/// One mailbox key file's records folded to its live entries, in delivery
/// order. One tombstone deletes one entry — the first live match, exactly
/// like the live `delete_local` path, so a mailbox holding duplicate ids
/// replays to the same contents the writer saw. The entries a given id's
/// tombstones delete are therefore always the first of that id, which
/// makes the fold two linear passes: count each tombstoned id's effective
/// tombstones, then drop that many of its leading entries. Only the ids a
/// tombstone names are tracked, sorted and searched: a mailbox deletes
/// few of its mails.
fn live_entries(records: &[KeyRecord]) -> Vec<MailboxEntry> {
    // Per tombstoned id, by id: (id, entries seen so far, tombstones that
    // found one to delete).
    let mut deleted: Vec<(MailId, u64, u64)> = records
        .iter()
        .filter(|r| r.delta == 0)
        .map(|r| (r.id, 0, 0))
        .collect();
    deleted.sort_unstable_by_key(|d| d.0);
    deleted.dedup_by_key(|d| d.0);
    let tracked = |deleted: &[(MailId, u64, u64)], id: MailId| {
        deleted.binary_search_by_key(&id, |d| d.0).ok()
    };
    let mut live = records.iter().filter(|r| r.delta != 0).count();
    for rec in records {
        if let Some(at) = tracked(&deleted, rec.id) {
            let (_, seen, dead) = &mut deleted[at];
            if rec.delta != 0 {
                *seen += 1;
            } else if dead < seen {
                *dead += 1;
                live -= 1;
            }
        }
    }
    let mut entries = Vec::with_capacity(live);
    for rec in records.iter().filter(|r| r.delta != 0) {
        if let Some(at) = tracked(&deleted, rec.id) {
            let dead = &mut deleted[at].2;
            if *dead > 0 {
                *dead -= 1;
                continue;
            }
        }
        entries.push(MailboxEntry {
            id: rec.id,
            offset: rec.offset,
            len: rec.len,
            shared: rec.delta < 0,
        });
    }
    entries
}

/// One shared body as a fold of the `shmailbox` log finds it.
#[derive(Debug, Clone, Copy)]
struct SharedBody {
    offset: u64,
    len: u64,
    /// The refcount: the sum of the body's logged deltas, until
    /// [`SharedLog::clamp`] lowers it to the live references.
    refs: i64,
}

/// The `shmailbox` key log folded: each body whose refcount is positive,
/// by id, and the bytes of those whose refcount reached zero. Whoever
/// asks builds one and drops it on return; the store keeps none, so no
/// memory grows with the shared mails (DESIGN.md §11 *What the store
/// holds*).
#[derive(Debug, Default)]
pub(crate) struct SharedLog {
    bodies: BTreeMap<MailId, SharedBody>,
    freed_bytes: u64,
}

impl SharedLog {
    /// Folds the log's refcount deltas in order. A body whose count
    /// reaches zero is freed, and a later positive delta under its id
    /// names a new body; a delta for an id with no body is ignored.
    fn fold(records: &[KeyRecord]) -> SharedLog {
        let mut log = SharedLog::default();
        for rec in records {
            match log.bodies.get_mut(&rec.id) {
                Some(body) => {
                    body.refs += rec.delta;
                    if body.refs <= 0 {
                        log.freed_bytes += body.len;
                        log.bodies.remove(&rec.id);
                    }
                }
                None if rec.delta > 0 => {
                    let body = SharedBody {
                        offset: rec.offset,
                        len: rec.len,
                        refs: rec.delta,
                    };
                    log.bodies.insert(rec.id, body);
                }
                None => {}
            }
        }
        log
    }

    /// Lowers every refcount to the live references `held` counts, and
    /// frees the bodies no mailbox holds: a body's refcount is the least
    /// of its logged deltas and its references. A crash or a failed
    /// attach between the shared append and the last recipient's key
    /// append leaves the log high; without the clamp those bodies would
    /// never be reclaimed. [`crate::fsck`] makes the same repair on disk.
    fn clamp(&mut self, held: &Held) {
        let freed = &mut self.freed_bytes;
        self.bodies.retain(|&id, body| {
            body.refs = body.refs.min(held.of(id));
            if body.refs <= 0 {
                *freed += body.len;
            }
            body.refs > 0
        });
    }

    /// The whole store's statistics, from this log and the mailboxes'
    /// counts, with the refcounts clamped.
    pub(crate) fn stats(mut self, held: &Held) -> MfsStats {
        self.clamp(held);
        MfsStats {
            shared_mails: self.bodies.len() as u64,
            shared_bytes: self.bodies.values().map(|b| b.len).sum(),
            freed_shared_bytes: self.freed_bytes,
            own_records: held.own,
            shared_references: held.refs.values().sum::<i64>() as u64,
        }
    }

    /// Debug-build check of §6.1's refcounting, run where the whole
    /// store was just read (open, fsck, compact): every live mailbox
    /// reference points at a body the log holds, with at least as many
    /// logged references as mailboxes hold. Under-counting would reclaim
    /// the single stored copy while mailboxes still reference it (data
    /// loss); over-counting is clamped when read and repaired on disk by
    /// [`crate::fsck`]. Compiles to a no-op in release builds.
    fn debug_check(&self, held: &Held) {
        if !cfg!(debug_assertions) {
            return;
        }
        for (id, &live) in &held.refs {
            let refs = self.bodies.get(id).map(|b| b.refs);
            debug_assert!(
                refs.is_some(),
                "live mailbox reference to reclaimed shared mail {id}"
            );
            debug_assert!(
                refs >= Some(live),
                "shared refcount for {id} under-counts live references: {refs:?} < {live}"
            );
        }
    }
}

/// The mailbox key files counted: the live references per shared id, and
/// the own records.
#[derive(Debug, Default)]
pub(crate) struct Held {
    refs: BTreeMap<MailId, i64>,
    own: u64,
}

impl Held {
    /// Adds one mailbox's live entries.
    fn count(&mut self, entries: &[MailboxEntry]) {
        for e in entries {
            if e.shared {
                *self.refs.entry(e.id).or_insert(0) += 1;
            } else {
                self.own += 1;
            }
        }
    }

    /// The live references to shared mail `id`.
    fn of(&self, id: MailId) -> i64 {
        self.refs.get(&id).copied().unwrap_or(0)
    }
}

/// Aggregate MFS statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MfsStats {
    /// Live multi-recipient mails in the shared mailbox.
    pub shared_mails: u64,
    /// Live bytes in the shared data file.
    pub shared_bytes: u64,
    /// Bytes in the shared data file whose refcount dropped to zero
    /// (reclaimable by compaction).
    pub freed_shared_bytes: u64,
    /// Live single-recipient records across all mailboxes.
    pub own_records: u64,
    /// Live shared references across all mailboxes.
    pub shared_references: u64,
}

/// The MFS mail store.
///
/// The key files are the whole index (§6): in memory the store keeps the
/// entries of the one mailbox it read last, the highest id it knows, and
/// of the shared key log the ids of its newest 64 records and the highest
/// id of the rest — nothing that grows per mail. A shared body's refcount
/// is read from `shmailbox.key` by whoever asks for it (DESIGN.md §11
/// *What the store holds*).
///
/// # Example
///
/// ```
/// use spamaware_mfs::{MailId, MailStore, MemFs, MfsStore};
/// let mut store = MfsStore::new(MemFs::new());
/// // A 3-recipient spam: body hits the disk once.
/// store.deliver(MailId(1), &["a", "b", "c"], b"spam!".as_slice().into())?;
/// assert_eq!(store.stats().shared_mails, 1);
/// assert_eq!(store.read_mailbox("b")?[0].body, b"spam!");
/// # Ok::<(), spamaware_mfs::StoreError>(())
/// ```
#[derive(Debug)]
pub struct MfsStore<B> {
    backend: B,
    /// The live entries of the mailbox this store read last, and of no
    /// other. Always equal to that mailbox's key file: every append to
    /// the file goes through this store (one appender per file, DESIGN.md
    /// §11 *Open files*), which pushes or removes the same entry here, and
    /// an append that fails empties it. A POP3 session's listing and its
    /// deletes name one mailbox, as do a listing and the reads by id that
    /// follow it, so each folds the key file once.
    memo: Option<(String, Vec<MailboxEntry>)>,
    /// The highest id replay found live in a mailbox, raised by every
    /// mailbox append since.
    max_id: Option<MailId>,
    /// The ids the newest `shmailbox` records name, oldest first, at most
    /// [`RECENT_SHARED`]; each is pushed before its append.
    recent_shared: VecDeque<MailId>,
    /// The highest id any older `shmailbox` record names. An id above it
    /// and not in `recent_shared` is new to the log, so
    /// [`MfsStore::shared_acquire`] reads nothing.
    older_shared_max: Option<MailId>,
    share_threshold: usize,
    metrics: Option<StoreMetrics>,
    /// Torn trailing records truncated away while replaying key files.
    recovered: u64,
}

impl<B: Backend> MfsStore<B> {
    /// Creates a fresh store over a backend, reading nothing.
    ///
    /// For a backend that already contains MFS files, use
    /// [`MfsStore::open`], which replays the key files.
    pub fn new(backend: B) -> MfsStore<B> {
        MfsStore {
            backend,
            memo: None,
            max_id: None,
            recent_shared: VecDeque::new(),
            older_shared_max: None,
            share_threshold: 2,
            metrics: None,
            recovered: 0,
        }
    }

    /// Reports storage latency and byte/refcount accounting into
    /// `registry` under `<prefix>.write_ns`, `<prefix>.read_ns`,
    /// `<prefix>.delete_ns`, `<prefix>.shared_bytes`,
    /// `<prefix>.private_bytes`, and `<prefix>.refcount_ops`. Durations
    /// come from the registry's injected clock, so simulated stores stay
    /// deterministic.
    pub fn with_metrics(mut self, registry: &Registry, prefix: &str) -> MfsStore<B> {
        self.metrics = Some(StoreMetrics {
            write_ns: registry.span(&format!("{prefix}.write_ns")),
            read_ns: registry.span(&format!("{prefix}.read_ns")),
            delete_ns: registry.span(&format!("{prefix}.delete_ns")),
            shared_bytes: registry.counter(&format!("{prefix}.shared_bytes")),
            private_bytes: registry.counter(&format!("{prefix}.private_bytes")),
            refcount_ops: registry.counter(&format!("{prefix}.refcount_ops")),
        });
        self
    }

    /// Sets the minimum recipient count at which a mail is routed through
    /// the shared mailbox (default 2 — the paper shares exactly the
    /// multi-recipient mails). `1` shares everything, which trades an
    /// extra refcount record per single-recipient mail for a unified data
    /// path; the `ablation_mfs_threshold` bench quantifies the trade.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn with_share_threshold(mut self, threshold: usize) -> MfsStore<B> {
        assert!(threshold >= 1, "threshold must be at least 1");
        self.share_threshold = threshold;
        self
    }

    /// Opens a store over an existing backend, replaying every key file
    /// once (crash recovery).
    ///
    /// A torn trailing record in any key file — an append interrupted by a
    /// crash — is truncated away and counted in
    /// [`MfsStore::recovered_records`]. Shared refcounts are not kept, so
    /// one a crash left over-counted needs no repair here: every fold of
    /// the log clamps it to the live reference count.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptRecord`] if a key file is corrupt
    /// (an invalid frame *followed by* valid data — something no crash can
    /// produce). Run [`crate::fsck`] to repair such a store.
    pub fn open(backend: B) -> StoreResult<MfsStore<B>> {
        let mut store = MfsStore::new(backend);
        let mut held = Held::default();
        let log = store.replay(TailPolicy::Strict, |_, entries| held.count(&entries))?;
        log.debug_check(&held);
        Ok(store)
    }

    /// Torn trailing key records truncated away by replay (see
    /// [`MfsStore::open`]).
    pub fn recovered_records(&self) -> u64 {
        self.recovered
    }

    /// The highest [`MailId`] this store has known — every live mailbox
    /// entry replay found, every id the shared key log names, and every id
    /// written since (a delete does not lower it) — or `None` when there
    /// is none. A reopened server seeds its id allocator above this, so
    /// recovery never reuses an id a surviving record names, and its
    /// shared deliveries all take the fast path.
    pub fn max_mail_id(&self) -> Option<MailId> {
        let recent = self.recent_shared.iter().copied().max();
        self.max_id.max(self.older_shared_max).max(recent)
    }

    /// The underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the underlying backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Current statistics, by reading every key file — a scan of the
    /// spool, for tests and `spamawarectl stats`; the server never asks.
    /// A shared body counts as live while a mailbox still references it,
    /// so one whose last landed reference is deleted is reclaimable at
    /// once, whatever its logged refcount says. A key file that cannot be
    /// read counts as empty, as in [`MfsStore::list_mailbox`]. The memo
    /// is left as it was.
    pub fn stats(&mut self) -> MfsStats {
        let log = self.shared_log().unwrap_or_default();
        let mut held = Held::default();
        for mailbox in self.mailbox_names().unwrap_or_default() {
            self.count_mailbox(&mailbox, &mut held);
        }
        log.stats(&held)
    }

    /// Adds `mailbox`'s live entries to `held`, read from its key file
    /// (an unreadable one adds nothing).
    pub(crate) fn count_mailbox(&mut self, mailbox: &str, held: &mut Held) {
        held.count(&self.read_entries(mailbox).unwrap_or_default());
    }

    /// Every mailbox that has a key file, sorted.
    pub(crate) fn mailbox_names(&mut self) -> StoreResult<Vec<String>> {
        Ok(self
            .backend
            .list("mfs/")?
            .iter()
            .filter_map(|path| Self::key_stem(path))
            .filter(|&stem| stem != SHARED)
            .map(str::to_owned)
            .collect())
    }

    pub(crate) fn key_path(mailbox: &str) -> String {
        format!("mfs/{mailbox}.key")
    }

    pub(crate) fn data_path(mailbox: &str) -> String {
        format!("mfs/{mailbox}.data")
    }

    /// Bytes in `mailbox`'s data file; 0 when it has none yet.
    pub(crate) fn data_len(&mut self, mailbox: &str) -> StoreResult<u64> {
        let path = Self::data_path(mailbox);
        if self.backend.exists(&path) {
            self.backend.len(&path)
        } else {
            Ok(0)
        }
    }

    /// Replaces `mailbox`'s key file with one record per entry, in order:
    /// how [`MfsStore::compact`] and [`crate::fsck`] rewrite a key log
    /// instead of appending to it.
    pub(crate) fn rewrite_key_file(
        &mut self,
        mailbox: &str,
        entries: &[MailboxEntry],
    ) -> StoreResult<()> {
        let mut bytes = Vec::with_capacity(entries.len() * frame::FRAME_LEN);
        for e in entries {
            let rec = KeyRecord {
                id: e.id,
                offset: e.offset,
                len: e.len,
                delta: if e.shared { -1 } else { 1 },
            };
            bytes.extend_from_slice(&frame::encode(&rec.encode()));
        }
        self.backend
            .replace(&Self::key_path(mailbox), DataRef::Bytes(&bytes))
    }

    /// The mailbox (or `shmailbox`) whose key file `path` is.
    fn key_stem(path: &str) -> Option<&str> {
        path.strip_prefix("mfs/")
            .and_then(|p| p.strip_suffix(".key"))
    }

    pub(crate) fn append_key(&mut self, mailbox: &str, rec: KeyRecord) -> StoreResult<()> {
        if mailbox == SHARED {
            // Before the append: one that fails may still have landed.
            self.recent_shared.push_back(rec.id);
            if self.recent_shared.len() > RECENT_SHARED {
                let older = self.recent_shared.pop_front();
                self.older_shared_max = self.older_shared_max.max(older);
            }
        }
        let path = Self::key_path(mailbox);
        let appended = self
            .backend
            .append(&path, DataRef::Bytes(&frame::encode(&rec.encode())));
        if appended.is_err() {
            self.cut_torn_frame(mailbox, &path);
        }
        appended.map(drop)
    }

    /// After a failed key append: cuts whatever part of its frame landed,
    /// so the file stays whole frames — readable now, and not corrupt
    /// mid-file once the next append lands after it — and forgets the
    /// memo of `mailbox`, since whether the whole frame landed is unknown.
    /// Online, a key file is whole frames up to that append: replay cut
    /// any torn tail, and its partition is its one appender. A cut that
    /// fails too leaves the tail for the next boot's replay, and reads of
    /// the mailbox refuse the file until then.
    fn cut_torn_frame(&mut self, mailbox: &str, path: &str) {
        if self.memo_of(mailbox).is_some() {
            self.memo = None;
        }
        if let Ok(len) = self.backend.len(path) {
            let torn = len % frame::FRAME_LEN as u64;
            if torn > 0 {
                let _ = self.backend.truncate(path, len - torn);
            }
        }
    }

    /// Replays the key files: one directory listing, each key file read
    /// and checksummed once. Sets the maximum ids, hands each
    /// mailbox's live entries to `visit` — which keeps what it needs; the
    /// store keeps none of them — and returns the shared log folded with
    /// its refcounts as logged, for the caller to check or repair.
    pub(crate) fn replay(
        &mut self,
        mut tails: TailPolicy<'_>,
        mut visit: impl FnMut(&str, Vec<MailboxEntry>),
    ) -> StoreResult<SharedLog> {
        self.memo = None;
        self.max_id = None;
        self.recent_shared.clear();
        self.older_shared_max = None;
        let mut log = SharedLog::default();
        for path in self.backend.list("mfs/")? {
            let Some(stem) = Self::key_stem(&path) else {
                continue;
            };
            let records = self.read_key_records(&path, &mut tails)?;
            if stem == SHARED {
                self.older_shared_max = records.iter().map(|r| r.id).max();
                log = SharedLog::fold(&records);
            } else {
                let entries = live_entries(&records);
                self.max_id = self.max_id.max(entries.iter().map(|e| e.id).max());
                visit(stem, entries);
            }
        }
        Ok(log)
    }

    /// Reads and validates one key file's frames: `len`, one `read_at`,
    /// every frame's CRC checked. Under [`TailPolicy::Refuse`] any invalid
    /// frame is an error; under [`TailPolicy::Strict`] a torn trailing
    /// frame is truncated away and a corrupt frame mid-file is an error;
    /// under [`TailPolicy::Repair`] both are truncated away.
    fn read_key_records(
        &mut self,
        path: &str,
        tails: &mut TailPolicy<'_>,
    ) -> StoreResult<Vec<KeyRecord>> {
        let total = self.backend.len(path)?;
        let bytes = self.backend.read_at(path, 0, total)?;
        let (payloads, tail) = frame::scan(&bytes);
        match (tail, tails) {
            (Tail::Clean, _) => {}
            (Tail::Torn { offset, .. }, TailPolicy::Strict) => {
                self.backend.truncate(path, offset)?;
                self.recovered += 1;
            }
            (
                Tail::Torn { offset, fault } | Tail::Corrupt { offset, fault },
                TailPolicy::Refuse,
            )
            | (Tail::Corrupt { offset, fault }, TailPolicy::Strict) => {
                return Err(StoreError::CorruptRecord(format!(
                    "{path}: {fault} at offset {offset}"
                )));
            }
            (Tail::Torn { offset, .. }, TailPolicy::Repair(report)) => {
                self.backend.truncate(path, offset)?;
                report.torn_tails.push((path.to_owned(), total - offset));
            }
            (Tail::Corrupt { offset, .. }, TailPolicy::Repair(report)) => {
                self.backend.truncate(path, offset)?;
                report
                    .corrupt_frames
                    .push((path.to_owned(), offset, total - offset));
            }
        }
        Ok(payloads.iter().map(KeyRecord::decode).collect())
    }

    /// Reads the key file of `stem`, a mailbox or `shmailbox`, refusing
    /// any invalid frame. No key file holds no records.
    fn read_key_file(&mut self, stem: &str) -> StoreResult<Vec<KeyRecord>> {
        match self.read_key_records(&Self::key_path(stem), &mut TailPolicy::Refuse) {
            Err(StoreError::NotFound(_)) => Ok(Vec::new()),
            read => read,
        }
    }

    /// Reads one mailbox's live entries from its key file, with the fold
    /// replay uses. No key file is an empty mailbox, and so is a name no
    /// mailbox can have.
    fn read_entries(&mut self, mailbox: &str) -> StoreResult<Vec<MailboxEntry>> {
        if check_mailbox_name(mailbox).is_err() {
            return Ok(Vec::new());
        }
        Ok(live_entries(&self.read_key_file(mailbox)?))
    }

    /// Reads `shmailbox.key` and folds it, refcounts as logged.
    pub(crate) fn shared_log(&mut self) -> StoreResult<SharedLog> {
        Ok(SharedLog::fold(&self.read_key_file(SHARED)?))
    }

    /// `mailbox`'s live entries: the memo's when it holds that mailbox,
    /// else read from its key file into the memo, in place of the mailbox
    /// it held.
    fn entries(&mut self, mailbox: &str) -> StoreResult<&mut Vec<MailboxEntry>> {
        let memo = match self.memo.take() {
            Some((held, entries)) if held == mailbox => (held, entries),
            _ => (mailbox.to_owned(), self.read_entries(mailbox)?),
        };
        Ok(&mut self.memo.insert(memo).1)
    }

    /// The memo's entries, if it holds `mailbox`.
    fn memo_of(&mut self, mailbox: &str) -> Option<&mut Vec<MailboxEntry>> {
        match &mut self.memo {
            Some((held, entries)) if held == mailbox => Some(entries),
            _ => None,
        }
    }

    /// Records an entry whose key tuple was just appended to `mailbox`:
    /// in the memo if it holds that mailbox, and in the running maximum.
    fn note_entry(&mut self, mailbox: &str, entry: MailboxEntry) {
        self.max_id = self.max_id.max(Some(entry.id));
        if let Some(entries) = self.memo_of(mailbox) {
            entries.push(entry);
        }
    }

    /// Mailbox entries this store holds in memory: the memo's, no others.
    #[cfg(test)]
    pub(crate) fn held_entries(&self) -> usize {
        self.memo.as_ref().map_or(0, |(_, entries)| entries.len())
    }

    /// The paper's `mail_nwrite`: writes one mail to `n` mailboxes with a
    /// single body write when `n > 1`.
    ///
    /// # Errors
    ///
    /// [`StoreError::MailIdCollision`] if `id` already names shared content
    /// of a different size — the §6.4 random-guessing attack defence.
    pub fn nwrite(&mut self, id: MailId, mailboxes: &[&str], body: DataRef<'_>) -> StoreResult<()> {
        let _span = self.metrics.as_ref().map(|m| m.write_ns.start());
        for mb in mailboxes {
            check_mailbox_name(mb)?;
        }
        match mailboxes {
            [] => Ok(()),
            mbs if mbs.len() < self.share_threshold => {
                // Below the share threshold (single recipient under the
                // paper's default): each mailbox gets its own copy in its
                // own data file.
                for mb in mbs {
                    self.write_own(mb, id, body)?;
                }
                Ok(())
            }
            _ => {
                let (offset, len) = self.shared_acquire(id, body, mailboxes.len() as i64)?;
                for mb in mailboxes {
                    self.attach_shared(mb, id, offset, len)?;
                }
                Ok(())
            }
        }
    }

    /// Writes one mail as a mailbox-private copy: body appended to the
    /// mailbox's own data file plus an own-record (`delta = 1`) key tuple.
    ///
    /// Sharding primitive — the caller is responsible for the write span
    /// and mailbox-name validation; everything it touches belongs to one
    /// mailbox, so a [`crate::ShardedStore`] may call it under that
    /// mailbox's shard lock alone.
    pub(crate) fn write_own(
        &mut self,
        mailbox: &str,
        id: MailId,
        body: DataRef<'_>,
    ) -> StoreResult<()> {
        let offset = self.backend.append(&Self::data_path(mailbox), body)?;
        if let Some(m) = &self.metrics {
            m.private_bytes.add(body.len());
        }
        self.append_key(
            mailbox,
            KeyRecord {
                id,
                offset,
                len: body.len(),
                delta: 1,
            },
        )?;
        self.note_entry(
            mailbox,
            MailboxEntry {
                id,
                offset,
                len: body.len(),
                shared: false,
            },
        );
        Ok(())
    }

    /// Acquires `n` references to shared content `id`, writing the body to
    /// the shared data file only if the id is new, and appending one
    /// refcount-delta tuple to the shared key log. Returns the body's
    /// `(offset, len)` in the shared data file.
    ///
    /// An id the log cannot name — above every id of its older records
    /// and not among its newest — is new to it: two appends and no read,
    /// the path of every delivery whose ids are allocated upward, however
    /// the workers that took them race. Any other id folds the log to find
    /// its body. The logged refcount decides, not the clamped one, because
    /// the next fold adds this record's delta to whatever body the log
    /// holds under the id.
    ///
    /// Sharding primitive — touches only `shmailbox` state, so a
    /// [`crate::ShardedStore`] calls it under the short-hold shared lock
    /// and releases that lock before touching any recipient shard.
    ///
    /// # Errors
    ///
    /// [`StoreError::MailIdCollision`] if `id` already names shared content
    /// of a different size — the §6.4 random-guessing attack defence.
    pub(crate) fn shared_acquire(
        &mut self,
        id: MailId,
        body: DataRef<'_>,
        n: i64,
    ) -> StoreResult<(u64, u64)> {
        let fresh = Some(id) > self.older_shared_max && !self.recent_shared.contains(&id);
        let logged = if fresh {
            None
        } else {
            self.shared_log()?.bodies.get(&id).copied()
        };
        let (offset, len) = match logged {
            // "The file system skips the steps of writing data ... if it
            // finds that mail-id already exists" (§6.2) — but content of
            // a different size under an existing id is the §6.4 attack.
            Some(b) if b.len != body.len() => {
                return Err(StoreError::MailIdCollision(id.to_string()));
            }
            Some(b) => (b.offset, b.len),
            None => (
                self.backend.append(&Self::data_path(SHARED), body)?,
                body.len(),
            ),
        };
        self.append_key(
            SHARED,
            KeyRecord {
                id,
                offset,
                len,
                delta: n,
            },
        )?;
        if let Some(m) = &self.metrics {
            if logged.is_none() {
                m.shared_bytes.add(len);
            }
            m.refcount_ops.inc();
        }
        Ok((offset, len))
    }

    /// Records one shared reference in a mailbox: a `delta = -1` key tuple
    /// pointing at `(offset, len)` in the shared data file.
    ///
    /// Sharding primitive — touches only the named mailbox, so it runs
    /// under that mailbox's shard lock; the matching refcount must already
    /// be held via [`MfsStore::shared_acquire`].
    pub(crate) fn attach_shared(
        &mut self,
        mailbox: &str,
        id: MailId,
        offset: u64,
        len: u64,
    ) -> StoreResult<()> {
        self.append_key(
            mailbox,
            KeyRecord {
                id,
                offset,
                len,
                delta: -1,
            },
        )?;
        self.note_entry(
            mailbox,
            MailboxEntry {
                id,
                offset,
                len,
                shared: true,
            },
        );
        Ok(())
    }

    /// Removes one mail from a mailbox: appends the tombstone (`delta =
    /// 0`) key tuple, which deletes the first live entry with this id.
    /// Returns `Some((offset, len))` if the removed entry referenced
    /// shared content — the caller must then release that reference via
    /// [`MfsStore::shared_release`].
    ///
    /// Sharding primitive — touches only the named mailbox, so it runs
    /// under that mailbox's shard lock alone.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the mailbox holds no live mail with
    /// this id; key-file read and append failures.
    pub(crate) fn delete_local(
        &mut self,
        mailbox: &str,
        id: MailId,
    ) -> StoreResult<Option<(u64, u64)>> {
        let entries = self.entries(mailbox)?;
        let idx = entries
            .iter()
            .position(|e| e.id == id)
            .ok_or_else(|| StoreError::NotFound(format!("{mailbox}/{id}")))?;
        let entry = entries.remove(idx);
        self.append_key(
            mailbox,
            KeyRecord {
                id,
                offset: 0,
                len: 0,
                delta: 0,
            },
        )?;
        Ok(entry.shared.then_some((entry.offset, entry.len)))
    }

    /// Releases one reference to shared content `id`: a `delta = -1`
    /// tuple on the shared key log, and nothing else.
    ///
    /// "A shared record cannot be deleted until it is deleted from all MFS
    /// files that share it" (§6.1): the body is reclaimable once a fold of
    /// the log finds its refcount at zero, and only compaction reclaims it.
    ///
    /// Sharding primitive — touches only `shmailbox` state, so a
    /// [`crate::ShardedStore`] calls it under the short-hold shared lock,
    /// after [`MfsStore::delete_local`] returned the shared coordinates.
    pub(crate) fn shared_release(&mut self, id: MailId, offset: u64, len: u64) -> StoreResult<()> {
        self.append_key(
            SHARED,
            KeyRecord {
                id,
                offset,
                len,
                delta: -1,
            },
        )?;
        if let Some(m) = &self.metrics {
            m.refcount_ops.inc();
        }
        Ok(())
    }

    /// Mailbox listing: every live mail, in delivery order, from the
    /// mailbox's key file — one `read_at` and a fold, or nothing at all
    /// when the memo already holds the mailbox. No body is read, so a
    /// caller holding a partition lock holds it for one key file, not for
    /// an O(mailbox) body scan. Fails on backend failures reading the key
    /// file, and with [`StoreError::CorruptRecord`] on a frame that fails
    /// validation.
    pub fn list_entries(&mut self, mailbox: &str) -> StoreResult<Vec<MailboxEntry>> {
        Ok(self.entries(mailbox)?.clone())
    }

    /// Mailbox listing: `(id, body length)` per live mail, in delivery
    /// order, from the mailbox's key file — one `read_at` and a fold, or
    /// nothing at all when the memo already holds the mailbox. A mailbox
    /// whose key file cannot be read lists as empty.
    pub fn list_mailbox(&mut self, mailbox: &str) -> Vec<(MailId, u64)> {
        match self.entries(mailbox) {
            Ok(entries) => entries.iter().map(|e| (e.id, e.len)).collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Reads one mail's body: a single positioned `read_at` against the
    /// private or shared data file, after the key file's when the memo
    /// holds another mailbox.
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::NotFound`] when the mailbox has no live mail
    /// with this id (for example, deleted since a
    /// [`MfsStore::list_mailbox`] snapshot); backend read failures.
    pub fn read_mail(&mut self, mailbox: &str, id: MailId) -> StoreResult<StoredMail> {
        let _span = self.metrics.as_ref().map(|m| m.read_ns.start());
        let e = self
            .entries(mailbox)?
            .iter()
            .find(|e| e.id == id)
            .copied()
            .ok_or_else(|| StoreError::NotFound(format!("{mailbox}/{id}")))?;
        self.read_body(mailbox, &e)
    }

    /// [`MfsStore::read_body`] timed as one `read_ns` span: the one read a
    /// POP3 `RETR` makes ([`crate::ShardedStore::read_entry`]), and each
    /// body of a [`MailStore::read_mailbox`] scan, so a sample is one body
    /// on either store.
    pub(crate) fn read_entry(
        &mut self,
        mailbox: &str,
        entry: &MailboxEntry,
    ) -> StoreResult<StoredMail> {
        let _span = self.metrics.as_ref().map(|m| m.read_ns.start());
        self.read_body(mailbox, entry)
    }

    /// Reads the body `entry`, listed from `mailbox`, points at: one
    /// `read_at`, and no key-file read. Data files only grow while the
    /// store is open — [`MfsStore::compact`] runs on a stopped spool — so
    /// the coordinates a listing gave stay good, and a mail deleted since
    /// still reads as the listing saw it.
    pub(crate) fn read_body(
        &mut self,
        mailbox: &str,
        entry: &MailboxEntry,
    ) -> StoreResult<StoredMail> {
        let data_file = if entry.shared {
            Self::data_path(SHARED)
        } else {
            Self::data_path(mailbox)
        };
        let body = self.backend.read_at(&data_file, entry.offset, entry.len)?;
        Ok(StoredMail { id: entry.id, body })
    }
}

impl<B: Backend> MailStore for MfsStore<B> {
    fn deliver(&mut self, id: MailId, mailboxes: &[&str], body: DataRef<'_>) -> StoreResult<()> {
        self.nwrite(id, mailboxes, body)
    }

    fn read_mailbox(&mut self, mailbox: &str) -> StoreResult<Vec<StoredMail>> {
        let entries = self.entries(mailbox)?.clone();
        entries
            .iter()
            .map(|e| self.read_entry(mailbox, e))
            .collect()
    }

    fn delete(&mut self, mailbox: &str, id: MailId) -> StoreResult<()> {
        let _span = self.metrics.as_ref().map(|m| m.delete_ns.start());
        if let Some((offset, len)) = self.delete_local(mailbox, id)? {
            self.shared_release(id, offset, len)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Call, Intercept, MemFs, Op, Policy, Verdict};

    fn store() -> MfsStore<MemFs> {
        MfsStore::new(MemFs::new())
    }

    #[test]
    fn multi_recipient_body_stored_once() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["a", "b", "c"], DataRef::Bytes(b"spam body"))?;
        // Shared data file holds one copy; key files hold framed tuples.
        assert_eq!(
            s.backend_mut().len("mfs/shmailbox.data")?,
            9,
            "one body copy"
        );
        for mb in ["a", "b", "c"] {
            let mails = s.read_mailbox(mb)?;
            assert_eq!(mails.len(), 1);
            assert_eq!(mails[0].body, b"spam body");
        }
        let stats = s.stats();
        assert_eq!(stats.shared_mails, 1);
        assert_eq!(stats.shared_references, 3);
        assert_eq!(stats.own_records, 0);
        Ok(())
    }

    #[test]
    fn single_recipient_goes_to_own_data_file() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["alice"], DataRef::Bytes(b"private"))?;
        assert_eq!(s.backend_mut().len("mfs/alice.data")?, 7);
        assert!(!s.backend_mut().exists("mfs/shmailbox.data"));
        assert_eq!(s.stats().own_records, 1);
        Ok(())
    }

    #[test]
    fn repeated_nwrite_same_id_skips_body_write() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"body"))?;
        let before = s.backend_mut().len("mfs/shmailbox.data")?;
        // Remaining recipients delivered later under the same id.
        s.deliver(MailId(1), &["c", "d"], DataRef::Bytes(b"body"))?;
        let after = s.backend_mut().len("mfs/shmailbox.data")?;
        assert_eq!(before, after, "no second body write");
        assert_eq!(s.read_mailbox("d")?[0].body, b"body");
        assert_eq!(s.stats().shared_references, 4);
        Ok(())
    }

    #[test]
    fn mail_id_collision_is_rejected_as_attack() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(7), &["a", "b"], DataRef::Bytes(b"original"))?;
        // Attacker guesses id 7 and tries to bind junk of another size.
        let err = s
            .deliver(MailId(7), &["evil1", "evil2"], DataRef::Bytes(b"junk"))
            .unwrap_err();
        assert!(matches!(err, StoreError::MailIdCollision(_)));
        // Victim's mailboxes untouched.
        assert_eq!(s.read_mailbox("a")?[0].body, b"original");
        assert!(s.read_mailbox("evil1")?.is_empty());
        Ok(())
    }

    #[test]
    fn delete_decrements_shared_refcount() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["a", "b", "c"], DataRef::Bytes(b"xyz"))?;
        s.delete("a", MailId(1))?;
        assert_eq!(s.stats().shared_mails, 1, "still referenced");
        assert_eq!(s.stats().freed_shared_bytes, 0);
        s.delete("b", MailId(1))?;
        s.delete("c", MailId(1))?;
        let stats = s.stats();
        assert_eq!(stats.shared_mails, 0);
        assert_eq!(stats.freed_shared_bytes, 3);
        Ok(())
    }

    #[test]
    fn delete_own_record() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["a"], DataRef::Bytes(b"one"))?;
        s.deliver(MailId(2), &["a"], DataRef::Bytes(b"two"))?;
        s.delete("a", MailId(1))?;
        let mails = s.read_mailbox("a")?;
        assert_eq!(mails.len(), 1);
        assert_eq!(mails[0].id, MailId(2));
        Ok(())
    }

    #[test]
    fn delete_missing_errors() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        assert!(matches!(
            s.delete("ghost", MailId(1)),
            Err(StoreError::NotFound(_))
        ));
        s.deliver(MailId(1), &["a"], DataRef::Bytes(b"x"))?;
        assert!(matches!(
            s.delete("a", MailId(2)),
            Err(StoreError::NotFound(_))
        ));
        Ok(())
    }

    /// Counts the body reads that reach the backend.
    #[derive(Default)]
    struct ReadAts(u64);

    impl Policy for ReadAts {
        fn before(&mut self, call: Call<'_>) -> Verdict {
            if call.op == Op::ReadAt && call.path.ends_with(".data") {
                self.0 += 1;
            }
            Verdict::Pass
        }
    }

    /// A delete finds its mail through the key file and reads no body.
    #[test]
    fn delete_reads_no_body() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(Intercept::with_policy(MemFs::new(), ReadAts::default()));
        for i in 1..=3u64 {
            s.deliver(MailId(i), &["inbox"], DataRef::Bytes(&[i as u8]))?;
        }
        s.delete("inbox", MailId(1))?;
        assert_eq!(s.backend_mut().policy().0, 0);
        let left: Vec<MailId> = s.list_mailbox("inbox").iter().map(|&(id, _)| id).collect();
        assert_eq!(left, [MailId(2), MailId(3)]);
        Ok(())
    }

    #[test]
    fn mixed_own_and_shared_read_in_delivery_order() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["a"], DataRef::Bytes(b"own1"))?;
        s.deliver(MailId(2), &["a", "b"], DataRef::Bytes(b"shared"))?;
        s.deliver(MailId(3), &["a"], DataRef::Bytes(b"own2"))?;
        let mails = s.read_mailbox("a")?;
        let ids: Vec<u64> = mails.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(mails[1].body, b"shared");
        Ok(())
    }

    #[test]
    fn replay_recovers_full_state() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"shared"))?;
        s.deliver(MailId(2), &["a"], DataRef::Bytes(b"own"))?;
        s.deliver(MailId(3), &["b", "c"], DataRef::Bytes(b"gone"))?;
        s.delete("b", MailId(3))?;
        s.delete("c", MailId(3))?;
        let backend = std::mem::replace(s.backend_mut(), MemFs::new());

        let mut recovered = MfsStore::open(backend)?;
        assert_eq!(recovered.read_mailbox("a")?.len(), 2);
        assert_eq!(recovered.read_mailbox("a")?[0].body, b"shared");
        assert_eq!(recovered.read_mailbox("b")?.len(), 1);
        assert!(recovered.read_mailbox("c")?.is_empty());
        let stats = recovered.stats();
        assert_eq!(stats.shared_mails, 1);
        assert_eq!(stats.freed_shared_bytes, 4);
        Ok(())
    }

    /// The fold `live_entries` replaced: each tombstone searches for and
    /// removes its first match, O(entries) apiece.
    fn live_entries_by_search(records: &[KeyRecord]) -> Vec<MailboxEntry> {
        let mut entries: Vec<MailboxEntry> = Vec::new();
        for rec in records {
            match rec.delta {
                0 => {
                    if let Some(idx) = entries.iter().position(|e| e.id == rec.id) {
                        entries.remove(idx);
                    }
                }
                d => entries.push(MailboxEntry {
                    id: rec.id,
                    offset: rec.offset,
                    len: rec.len,
                    shared: d < 0,
                }),
            }
        }
        entries
    }

    proptest::proptest! {
        /// Few ids, so duplicates, tombstones ahead of their entry and
        /// tombstones with nothing left to delete all occur; the offset
        /// tells same-id entries apart.
        #[test]
        fn linear_tombstone_fold_equals_search_and_remove(
            script in proptest::collection::vec((0u64..6, -1i64..2), 0..80),
        ) {
            let records: Vec<KeyRecord> = script
                .iter()
                .enumerate()
                .map(|(at, &(id, delta))| KeyRecord {
                    id: MailId(id),
                    offset: at as u64,
                    len: 1,
                    delta,
                })
                .collect();
            let fold = |entries: Vec<MailboxEntry>| -> Vec<(MailId, u64, bool)> {
                entries.iter().map(|e| (e.id, e.offset, e.shared)).collect()
            };
            proptest::prop_assert_eq!(
                fold(live_entries(&records)),
                fold(live_entries_by_search(&records))
            );
        }
    }

    /// Tears the next key-file append after `keep` bytes once armed, as a
    /// full disk does mid-`write`; passes everything else.
    struct TearNextKeyAppend(Option<u64>);

    impl Policy for TearNextKeyAppend {
        fn before(&mut self, call: Call<'_>) -> Verdict {
            match self.0 {
                Some(keep) if call.op == Op::Append && call.path.ends_with(".key") => {
                    self.0 = None;
                    Verdict::Tear {
                        keep,
                        reason: "injected torn append",
                    }
                }
                _ => Verdict::Pass,
            }
        }
    }

    /// A key append that fails partway leaves no torn frame behind: the
    /// mailbox keeps listing what it held — the failed delivery and the
    /// failed delete changed nothing — later appends land on whole frames,
    /// and a reopen finds nothing to recover.
    #[test]
    fn a_torn_key_append_is_cut_and_the_mailbox_stays_readable(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(Intercept::with_policy(
            MemFs::new(),
            TearNextKeyAppend(None),
        ));
        let ids = |s: &mut MfsStore<_>| -> StoreResult<Vec<u64>> {
            Ok(s.list_entries("a")?.iter().map(|e| e.id.0).collect())
        };
        s.deliver(MailId(1), &["a"], DataRef::Bytes(b"one"))?;
        assert_eq!(ids(&mut s)?, [1], "the memo holds a");
        s.backend_mut().policy_mut().0 = Some(5);
        assert!(s
            .deliver(MailId(2), &["a"], DataRef::Bytes(b"two"))
            .is_err());
        assert_eq!(s.backend_mut().len("mfs/a.key")?, frame::FRAME_LEN as u64);
        assert_eq!(ids(&mut s)?, [1]);
        s.deliver(MailId(3), &["a"], DataRef::Bytes(b"three"))?;
        s.backend_mut().policy_mut().0 = Some(frame::FRAME_LEN as u64 - 1);
        assert!(s.delete("a", MailId(1)).is_err());
        assert_eq!(ids(&mut s)?, [1, 3]);
        assert_eq!(s.read_mail("a", MailId(3))?.body, b"three");
        let fs = std::mem::replace(
            s.backend_mut(),
            Intercept::with_policy(MemFs::new(), TearNextKeyAppend(None)),
        );
        let mut reopened = MfsStore::open(fs.into_inner())?;
        assert_eq!(reopened.recovered_records(), 0);
        assert_eq!(reopened.list_mailbox("a"), [(MailId(1), 3), (MailId(3), 5)]);
        Ok(())
    }

    /// Records every call that reaches the backend.
    #[derive(Default)]
    struct Calls(Vec<(Op, String)>);

    impl Policy for Calls {
        fn before(&mut self, call: Call<'_>) -> Verdict {
            self.0.push((call.op, call.path.to_owned()));
            Verdict::Pass
        }
    }

    type Recorded = MfsStore<Intercept<MemFs, Calls>>;

    /// The calls since the last time this was asked, in order.
    fn calls(s: &mut Recorded) -> Vec<(Op, String)> {
        std::mem::take(&mut s.backend_mut().policy_mut().0)
    }

    fn shared_calls(calls: &[(Op, String)]) -> Vec<(Op, &str)> {
        calls
            .iter()
            .filter(|(_, path)| path.starts_with("mfs/shmailbox."))
            .map(|(op, path)| (*op, path.as_str()))
            .collect()
    }

    const SEVEN: [&str; 7] = ["a", "b", "c", "d", "e", "f", "g"];

    /// A fresh id appends the body and its `+n` record and reads
    /// nothing: the nine calls of a steady-state 7-recipient delivery the
    /// repo benchmark counts. So does one that arrives after a larger id,
    /// as a worker that took its id first but lost the race to the shared
    /// partition delivers it.
    #[test]
    fn a_fresh_shared_id_appends_twice_and_reads_nothing() -> StoreResult<()> {
        let mut s = MfsStore::new(Intercept::with_policy(MemFs::new(), Calls::default()));
        s.nwrite(MailId(1), &SEVEN, DataRef::Bytes(b"first"))?;
        calls(&mut s);
        for id in [3, 2] {
            s.nwrite(MailId(id), &SEVEN, DataRef::Bytes(b"fresh"))?;
            let made = calls(&mut s);
            assert_eq!(
                shared_calls(&made),
                [
                    (Op::Append, "mfs/shmailbox.data"),
                    (Op::Append, "mfs/shmailbox.key")
                ]
            );
            assert_eq!(made.len(), 9, "{made:?}");
            assert!(made.iter().all(|(op, _)| *op == Op::Append), "{made:?}");
        }
        Ok(())
    }

    /// An id the shared log already names folds the log: a live one of
    /// the same size skips the body write (§6.2) — also once newer
    /// records have pushed it out of the ids the store remembers — one of
    /// another size is the §6.4 collision, and one reclaimed before a
    /// reopen is stored afresh.
    #[test]
    fn a_logged_shared_id_folds_the_log() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(Intercept::with_policy(MemFs::new(), Calls::default()));
        s.nwrite(MailId(1), &SEVEN, DataRef::Bytes(b"body"))?;
        s.nwrite(MailId(2), &["x", "y"], DataRef::Bytes(b"gone"))?;
        for id in 3..3 + RECENT_SHARED as u64 {
            s.nwrite(MailId(id), &["l", "m"], DataRef::Bytes(b"newer"))?;
        }
        calls(&mut s);
        s.nwrite(MailId(1), &["h", "i"], DataRef::Bytes(b"same"))?;
        let reads = [
            (Op::Len, "mfs/shmailbox.key"),
            (Op::ReadAt, "mfs/shmailbox.key"),
        ];
        let deduped = [reads[0], reads[1], (Op::Append, "mfs/shmailbox.key")];
        assert_eq!(shared_calls(&calls(&mut s)), deduped);
        assert_eq!(s.read_mailbox("i")?[0].body, b"body");
        calls(&mut s);
        let err = s.nwrite(MailId(1), &["j", "k"], DataRef::Bytes(b"bigger"));
        assert!(matches!(err, Err(StoreError::MailIdCollision(_))));
        assert_eq!(
            calls(&mut s).iter().map(|c| c.0).collect::<Vec<_>>(),
            [Op::Len, Op::ReadAt]
        );

        s.delete("x", MailId(2))?;
        s.delete("y", MailId(2))?;
        let fs = std::mem::replace(
            s.backend_mut(),
            Intercept::with_policy(MemFs::new(), Calls::default()),
        );
        let mut s = MfsStore::open(fs)?;
        assert_eq!(s.max_mail_id(), Some(MailId(2 + RECENT_SHARED as u64)));
        calls(&mut s);
        s.nwrite(MailId(2), &["x", "z"], DataRef::Bytes(b"a new size"))?;
        let fresh = [
            reads[0],
            reads[1],
            (Op::Append, "mfs/shmailbox.data"),
            (Op::Append, "mfs/shmailbox.key"),
        ];
        assert_eq!(shared_calls(&calls(&mut s)), fresh);
        assert_eq!(s.read_mailbox("z")?[0].body, b"a new size");
        Ok(())
    }

    /// A delivery whose second attach fails leaves the shared `+3` on the
    /// log with one reference landed. Deleting that reference frees the
    /// body at once, as a reopen of the same bytes reports it.
    #[test]
    fn a_failed_attach_frees_the_body_with_its_last_landed_reference(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(crate::FaultyBackend::new(MemFs::new()));
        // Body, `+3` record, a's attach; b's attach fails.
        s.backend_mut().plan_mut().fail_after = Some(3);
        assert!(s
            .nwrite(MailId(1), &["a", "b", "c"], DataRef::Bytes(b"body"))
            .is_err());
        s.backend_mut().plan_mut().fail_after = None;
        assert_eq!(s.list_mailbox("a"), [(MailId(1), 4)]);
        assert!(s.list_mailbox("b").is_empty());
        s.delete("a", MailId(1))?;
        let stats = s.stats();
        assert_eq!(stats.shared_mails, 0);
        assert_eq!(stats.freed_shared_bytes, 4);
        let fs = std::mem::replace(s.backend_mut(), crate::FaultyBackend::new(MemFs::new()));
        assert_eq!(MfsStore::open(fs.into_inner())?.stats(), stats);
        Ok(())
    }

    #[test]
    fn shared_mailbox_name_is_reserved() {
        let mut s = store();
        let err = s
            .deliver(MailId(1), &["shmailbox"], DataRef::Bytes(b"x"))
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }

    #[test]
    fn empty_recipient_list_is_noop() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &[], DataRef::Bytes(b"x"))?;
        assert_eq!(s.stats(), MfsStats::default());
        Ok(())
    }

    #[test]
    fn registry_metrics_account_bytes_and_refcounts() -> Result<(), Box<dyn std::error::Error>> {
        use spamaware_metrics::{ManualClock, Registry};
        let clock = ManualClock::new();
        let registry = Registry::new(std::sync::Arc::new(clock.clone()));
        let mut s = MfsStore::new(MemFs::new()).with_metrics(&registry, "mfs");
        s.deliver(MailId(1), &["a", "b", "c"], DataRef::Bytes(b"spam body"))?;
        s.deliver(MailId(2), &["a"], DataRef::Bytes(b"own"))?;
        clock.advance(500);
        s.read_mailbox("a")?;
        s.delete("b", MailId(1))?;
        assert_eq!(registry.counter_value("mfs.shared_bytes"), Some(9));
        assert_eq!(registry.counter_value("mfs.private_bytes"), Some(3));
        // One delta record on shared delivery, one on the shared delete.
        assert_eq!(registry.counter_value("mfs.refcount_ops"), Some(2));
        assert_eq!(registry.histogram_count("mfs.write_ns"), Some(2));
        // One span per body read: mailbox "a" holds two mails.
        assert_eq!(registry.histogram_count("mfs.read_ns"), Some(2));
        assert_eq!(registry.histogram_count("mfs.delete_ns"), Some(1));
        Ok(())
    }

    #[test]
    fn size_only_bodies_supported() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["a", "b"], DataRef::Zeros(4096))?;
        let mails = s.read_mailbox("a")?;
        assert_eq!(mails[0].body, vec![0; 4096]);
        // A size-only backend keeps lengths, not bytes: it takes the
        // writes the simulation prices, but the key files are the index,
        // so nothing reads back.
        let mut s = MfsStore::new(MemFs::size_only());
        s.deliver(MailId(1), &["a", "b"], DataRef::Zeros(4096))?;
        assert_eq!(s.backend_mut().len("mfs/shmailbox.data")?, 4096);
        assert!(matches!(
            s.read_mailbox("a"),
            Err(StoreError::CorruptRecord(_))
        ));
        Ok(())
    }
}

impl<B: Backend> MfsStore<B> {
    /// Compacts the store: rewrites the shared data file without dead
    /// bytes — a body no mailbox references is dead, whatever its logged
    /// refcount — collapses the log-structured shared key file to one
    /// record per live mail, its refcount clamped, and rewrites every
    /// mailbox key file without tombstones. Each mailbox key file is read
    /// twice, to count its references and to rewrite it, one file at a
    /// time. Returns the number of shared-data bytes reclaimed.
    ///
    /// This is the maintenance pass implied by §6.1's refcounting ("a
    /// shared record cannot be deleted until it is deleted from all MFS
    /// files that share it") — deletion only marks; compaction reclaims.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors and key files that fail validation;
    /// on error the on-disk files may be partially rewritten (run
    /// [`MfsStore::open`] to recover).
    pub fn compact(&mut self) -> StoreResult<u64> {
        // Shared offsets move under every mailbox: nothing read before
        // stays true.
        self.memo = None;
        // 1. Fold the whole store: the shared log, clamped to the
        //    references the mailboxes hold.
        let mut log = self.shared_log()?;
        let mut held = Held::default();
        for mb in self.mailbox_names()? {
            held.count(&self.read_entries(&mb)?);
        }
        log.clamp(&held);
        log.debug_check(&held);
        // 2. Rewrite shared data, moving each live body's offset.
        let sh_data = Self::data_path(SHARED);
        let old_len = self.data_len(SHARED)?;
        let mut new_data: Vec<u8> = Vec::new();
        for e in log.bodies.values_mut() {
            let body = self.backend.read_at(&sh_data, e.offset, e.len)?;
            e.offset = new_data.len() as u64;
            new_data.extend_from_slice(&body);
        }
        let reclaimed = old_len.saturating_sub(new_data.len() as u64);
        self.backend.replace(&sh_data, DataRef::Bytes(&new_data))?;
        // 3. Collapse the shared key log.
        let mut key_bytes = Vec::with_capacity(log.bodies.len() * frame::FRAME_LEN);
        for (&id, e) in &log.bodies {
            key_bytes.extend_from_slice(&frame::encode(
                &KeyRecord {
                    id,
                    offset: e.offset,
                    len: e.len,
                    delta: e.refs,
                }
                .encode(),
            ));
        }
        self.backend
            .replace(&Self::key_path(SHARED), DataRef::Bytes(&key_bytes))?;
        // 4. Rewrite each mailbox key file from its live entries, patching
        //    shared offsets.
        for mb in self.mailbox_names()? {
            let mut entries = self.read_entries(&mb)?;
            for e in entries.iter_mut().filter(|e| e.shared) {
                if let Some(moved) = log.bodies.get(&e.id) {
                    e.offset = moved.offset;
                }
            }
            self.rewrite_key_file(&mb, &entries)?;
        }
        Ok(reclaimed)
    }
}

#[cfg(test)]
mod compact_tests {
    use super::*;
    use crate::MemFs;

    fn populated() -> MfsStore<MemFs> {
        let mut s = MfsStore::new(MemFs::new());
        s.deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"keep-shared"))
            .unwrap();
        s.deliver(MailId(2), &["a", "b", "c"], DataRef::Bytes(b"drop-me"))
            .unwrap();
        s.deliver(MailId(3), &["a"], DataRef::Bytes(b"own"))
            .unwrap();
        for mb in ["a", "b", "c"] {
            s.delete(mb, MailId(2)).unwrap();
        }
        s
    }

    #[test]
    fn compact_reclaims_dead_shared_bytes() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = populated();
        assert_eq!(s.stats().freed_shared_bytes, 7);
        let before = s.backend_mut().len("mfs/shmailbox.data")?;
        let reclaimed = s.compact()?;
        assert_eq!(reclaimed, 7);
        let after = s.backend_mut().len("mfs/shmailbox.data")?;
        assert_eq!(before - after, 7);
        assert_eq!(s.stats().freed_shared_bytes, 0);
        Ok(())
    }

    #[test]
    fn compact_preserves_mailbox_contents() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = populated();
        let before_a = s.read_mailbox("a")?;
        let before_b = s.read_mailbox("b")?;
        s.compact()?;
        assert_eq!(s.read_mailbox("a")?, before_a);
        assert_eq!(s.read_mailbox("b")?, before_b);
        assert!(s.read_mailbox("c")?.is_empty());
        Ok(())
    }

    #[test]
    fn compact_collapses_key_logs() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = populated();
        let key_before = s.backend_mut().len("mfs/shmailbox.key")?;
        s.compact()?;
        let key_after = s.backend_mut().len("mfs/shmailbox.key")?;
        assert!(key_after < key_before);
        // One live shared mail -> exactly one framed record.
        assert_eq!(key_after, crate::frame::FRAME_LEN as u64);
        Ok(())
    }

    #[test]
    fn recovery_after_compaction_is_faithful() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = populated();
        s.compact()?;
        let expected_a = s.read_mailbox("a")?;
        let backend = std::mem::replace(s.backend_mut(), MemFs::new());
        let mut recovered = MfsStore::open(backend)?;
        assert_eq!(recovered.read_mailbox("a")?, expected_a);
        assert_eq!(recovered.stats().shared_mails, 1);
        Ok(())
    }

    #[test]
    fn deliveries_after_compaction_work() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = populated();
        s.compact()?;
        s.deliver(MailId(4), &["b", "c"], DataRef::Bytes(b"fresh"))?;
        assert_eq!(s.read_mailbox("c")?[0].body, b"fresh");
        assert_eq!(s.stats().shared_mails, 2);
        Ok(())
    }

    #[test]
    fn compact_on_empty_store_is_noop() -> Result<(), Box<dyn std::error::Error>> {
        let mut s: MfsStore<MemFs> = MfsStore::new(MemFs::new());
        assert_eq!(s.compact()?, 0);
        Ok(())
    }
}
