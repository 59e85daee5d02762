//! Shared machinery for the store property tests: a small scripted-op
//! vocabulary over a fixed mailbox universe (used by `sharded_prop` for
//! observational equivalence and by `crash_prop`/`crash_sweep` for the
//! crash-point torture runs), plus the crash-recovery checker itself.

use proptest::prelude::*;
use spamaware_mfs::{
    fsck, CrashBackend, CrashPoint, DataRef, MailId, MailStore, MemFs, MfsStore, ShardedStore,
    StoredMail, SyncBackend,
};

pub const MAILBOXES: [&str; 5] = ["alice", "bob", "carol", "dave", "erin"];

/// Decoded op: deliver to a recipient subset or delete from a mailbox.
#[derive(Debug, Clone)]
pub enum Op {
    Deliver { id: u64, first: usize, count: usize },
    Delete { mailbox: usize, id: u64 },
}

#[allow(dead_code)]
pub fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..8, 0usize..MAILBOXES.len(), 1usize..=MAILBOXES.len())
            .prop_map(|(id, first, count)| Op::Deliver { id, first, count }),
        (0usize..MAILBOXES.len(), 0u64..8).prop_map(|(mailbox, id)| Op::Delete { mailbox, id }),
    ]
}

/// Recipient slice for a deliver op: `count` mailboxes starting at
/// `first`, wrapping around — exercises both single-recipient (own copy)
/// and multi-recipient (shared copy) paths across shard boundaries.
pub fn recipients(first: usize, count: usize) -> Vec<&'static str> {
    (0..count)
        .map(|i| MAILBOXES[(first + i) % MAILBOXES.len()])
        .collect()
}

/// Body for a deliver op — varies with id so collision checks have teeth.
pub fn body_for(id: u64) -> Vec<u8> {
    vec![b'x'; 4 + (id as usize % 3)]
}

/// Applies one op to a store, ignoring the per-op outcome (legitimate
/// failures like id collisions and not-found deletes are part of the
/// script; both the model and the real store fail them identically).
#[allow(dead_code)]
pub fn apply(store: &mut dyn MailStore, op: &Op) {
    match *op {
        Op::Deliver { id, first, count } => {
            let mbs = recipients(first, count);
            let _ = store.deliver(MailId(id), &mbs, DataRef::Bytes(&body_for(id)));
        }
        Op::Delete { mailbox, id } => {
            let _ = store.delete(MAILBOXES[mailbox], MailId(id));
        }
    }
}

/// The per-mailbox view of a model store after `ops[..n]`.
#[allow(dead_code)]
fn model_view(ops: &[Op], n: usize) -> Vec<Vec<StoredMail>> {
    let mut model = MfsStore::new(MemFs::new());
    for op in &ops[..n] {
        apply(&mut model, op);
    }
    MAILBOXES
        .iter()
        .map(|mb| model.read_mailbox(mb).expect("model read"))
        .collect()
}

/// Records the write-side byte sizes of the full script — the schedule an
/// exhaustive sweep enumerates crash points over.
#[allow(dead_code)]
pub fn record_write_log(ops: &[Op]) -> Vec<u64> {
    let mut store = MfsStore::new(CrashBackend::new(MemFs::new()));
    for op in ops {
        apply(&mut store, op);
    }
    store.backend().write_log().to_vec()
}

/// Boots the files behind `fs` the way the live server restarts —
/// [`ShardedStore::open_with_fsck`], which deals the shared index `fsck`
/// repaired in memory to the shared partition without reading the files
/// again — and checks it against a plain replay of the repaired bytes:
/// per mailbox the same listing, and the same statistics and highest id.
/// Nothing else cross-checks fsck's in-memory repairs against the ones it
/// wrote.
/// Returns the dealt store.
#[allow(dead_code)]
pub fn dealt_equals_replayed(
    fs: &SyncBackend<MemFs>,
    shards: usize,
) -> ShardedStore<SyncBackend<MemFs>> {
    let (dealt, _) =
        ShardedStore::open_with_fsck(shards, || Ok(fs.clone())).expect("repairing reopen");
    let replayed =
        ShardedStore::open_with(shards, || Ok(fs.clone())).expect("replay of the repaired files");
    for mb in MAILBOXES {
        assert_eq!(
            dealt.list_mailbox(mb),
            replayed.list_mailbox(mb),
            "restart diverged from replay for {mb}"
        );
    }
    assert_eq!(dealt.stats(), replayed.stats());
    assert_eq!(dealt.max_mail_id(), replayed.max_mail_id());
    dealt
}

/// Runs `ops` into a store that crashes at `point`, reboots from the
/// surviving bytes, and checks every crash-consistency promise:
///
/// * recovery succeeds (via `fsck`) and the repair is idempotent — a
///   second `fsck` over the repaired files reports clean;
/// * the fsck report is deterministic — byte-identical across two
///   independent repairs of the same survivors;
/// * each mailbox reads back as the model after all acknowledged ops,
///   except mailboxes the *crashed* op touched, which may also show it
///   fully applied (a torn multi-recipient delivery legitimately lands in
///   the shards it reached before the cut);
/// * a strict partitioned reopen ([`ShardedStore::open_with`]) of the
///   survivors shows exactly the same mailbox contents, and the same
///   statistics as a strict [`MfsStore::open`] — shared refcounts a
///   crash left high are clamped by both;
/// * so does [`ShardedStore::open_with_fsck`] — the live server's restart
///   path — whose dealt shared index must equal a replay of the bytes it
///   repaired (see [`dealt_equals_replayed`]);
/// * the repaired store stays writable.
///
/// Panics (with context) on any violation.
#[allow(dead_code)]
pub fn check_crash_point(ops: &[Op], point: CrashPoint) {
    let mut store = MfsStore::new(CrashBackend::with_plan(MemFs::new(), point));
    let mut acked = ops.len();
    for (i, op) in ops.iter().enumerate() {
        apply(&mut store, op);
        if store.backend().crashed() {
            acked = i;
            break;
        }
    }
    let survivor =
        std::mem::replace(store.backend_mut(), CrashBackend::new(MemFs::new())).into_inner();
    drop(store);

    // Three independent views of the same surviving bytes.
    let (mut repaired, report) = fsck(survivor.clone()).expect("fsck after crash");
    let (_, report2) = fsck(survivor.clone()).expect("second independent fsck");
    assert_eq!(
        report.to_string(),
        report2.to_string(),
        "fsck report must be deterministic at {point:?}"
    );
    let (_, rerun) = fsck(repaired.backend().clone()).expect("fsck of repaired store");
    assert!(
        rerun.is_clean(),
        "fsck must be idempotent at {point:?}; second run: {rerun}"
    );

    // Per-mailbox: the k-op model, or — for mailboxes the crashed op
    // touched — the (k+1)-op model (cut after the bytes landed).
    let before = model_view(ops, acked);
    let after = model_view(ops, (acked + 1).min(ops.len()));
    let dealt = dealt_equals_replayed(&SyncBackend::new(survivor.clone()), 3);
    let sync = SyncBackend::new(survivor);
    let sharded =
        ShardedStore::open_with(3, || Ok(sync.clone())).expect("partitioned reopen after crash");
    let mut plain = MfsStore::open(sync.clone()).expect("strict reopen after crash");
    assert_eq!(
        sharded.stats(),
        plain.stats(),
        "the two strict opens disagree at {point:?}"
    );
    for (i, mb) in MAILBOXES.iter().enumerate() {
        let got = repaired.read_mailbox(mb).expect("read after fsck");
        assert!(
            got == before[i] || got == after[i],
            "mailbox {mb} at {point:?}: got {got:?},\n  expected {:?}\n  or {:?}",
            before[i],
            after[i]
        );
        let via_shards = sharded.read_mailbox(mb).expect("sharded read");
        assert_eq!(
            got, via_shards,
            "partitioned reopen diverged from fsck view for {mb} at {point:?}"
        );
        assert_eq!(
            got,
            dealt.read_mailbox(mb).expect("dealt read"),
            "restart path diverged from fsck view for {mb} at {point:?}"
        );
    }

    // The repaired store accepts new mail.
    repaired
        .deliver(MailId(9_999), &MAILBOXES, DataRef::Bytes(b"fresh"))
        .expect("repaired store must stay writable");
    for mb in MAILBOXES {
        let mails = repaired.read_mailbox(mb).expect("read fresh");
        assert_eq!(
            mails.last().map(|m| m.id),
            Some(MailId(9_999)),
            "fresh delivery visible in {mb}"
        );
    }
}
