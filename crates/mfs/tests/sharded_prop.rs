//! Observational-equivalence property test: a [`ShardedStore`] driven
//! through an arbitrary op sequence must be indistinguishable from a
//! single-lock [`MfsStore`] given the same sequence — same listings, same
//! mails read one by one, same error/success outcomes, and after every
//! step the same contents in every mailbox, the same aggregate statistics
//! and the same again from a fresh replay of the files. Sharding may only
//! change *which operations can run in parallel*, never what any observer
//! reads back.
//!
//! Neither store keeps an index: each partition holds the entries of the
//! one mailbox it read last. Listings of a second mailbox between a
//! listing and its reads make that memo churn — in the same shard
//! whenever the two names hash together, which five names over one to
//! eight shards do often.

mod common;

use common::{body_for, dealt_equals_replayed, op_strategy, recipients, Op, MAILBOXES};
use proptest::prelude::*;
use spamaware_mfs::{DataRef, MailId, MailStore, MemFs, MfsStore, ShardedStore, SyncBackend};

/// One step of a script: a write from the shared vocabulary, or a read.
#[derive(Debug, Clone)]
enum Step {
    Write(Op),
    List {
        mailbox: usize,
    },
    Read {
        mailbox: usize,
        id: u64,
    },
    /// What a POP3 session does — list, then read each listed mail — with
    /// a listing of `other` in between.
    ListThenRead {
        mailbox: usize,
        other: usize,
    },
}

/// Half writes, half reads.
fn step_strategy() -> impl Strategy<Value = Step> {
    let mailbox = || 0usize..MAILBOXES.len();
    let write = || op_strategy().prop_map(Step::Write);
    prop_oneof![
        write(),
        write(),
        write(),
        mailbox().prop_map(|mailbox| Step::List { mailbox }),
        (mailbox(), 0u64..8).prop_map(|(mailbox, id)| Step::Read { mailbox, id }),
        (mailbox(), mailbox()).prop_map(|(mailbox, other)| Step::ListThenRead { mailbox, other }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn sharded_store_is_observationally_equivalent_to_single_lock(
        steps in proptest::collection::vec(step_strategy(), 1..80),
        shards in 1usize..9,
    ) {
        let mut single = MfsStore::new(MemFs::new());
        let fs = SyncBackend::new(MemFs::new());
        let sharded = ShardedStore::open_with(shards, || Ok(fs.clone()))
            .expect("open sharded");

        for (at, step) in steps.iter().enumerate() {
            match *step {
                Step::Write(Op::Deliver { id, first, count }) => {
                    let mbs = recipients(first, count);
                    // Body varies with id so a collision check has teeth.
                    let body = body_for(id);
                    let a = single.deliver(MailId(id), &mbs, DataRef::Bytes(&body));
                    let b = sharded.deliver(MailId(id), &mbs, DataRef::Bytes(&body));
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "deliver outcome diverged: {:?}", step);
                }
                Step::Write(Op::Delete { mailbox, id }) => {
                    let mb = MAILBOXES[mailbox];
                    let a = single.delete(mb, MailId(id));
                    let b = sharded.delete(mb, MailId(id));
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "delete outcome diverged: {:?}", step);
                }
                Step::List { mailbox } => {
                    let mb = MAILBOXES[mailbox];
                    prop_assert_eq!(single.list_mailbox(mb), sharded.list_mailbox(mb), "{}", mb);
                }
                Step::Read { mailbox, id } => {
                    let mb = MAILBOXES[mailbox];
                    let a = single.read_mail(mb, MailId(id));
                    let b = sharded.read_mail(mb, MailId(id));
                    prop_assert_eq!(a, b, "read of {}/{} diverged", mb, id);
                }
                Step::ListThenRead { mailbox, other } => {
                    let (mb, other) = (MAILBOXES[mailbox], MAILBOXES[other]);
                    let listing = sharded.list_mailbox(mb);
                    prop_assert_eq!(&single.list_mailbox(mb), &listing, "{}", mb);
                    prop_assert_eq!(
                        single.list_mailbox(other),
                        sharded.list_mailbox(other),
                        "{}",
                        other
                    );
                    for (id, len) in listing {
                        let a = single.read_mail(mb, id).expect("single read");
                        let b = sharded.read_mail(mb, id).expect("listed mail reads");
                        prop_assert_eq!(b.body.len() as u64, len);
                        prop_assert_eq!(a, b, "read of listed {}/{} diverged", mb, id);
                    }
                }
            }
            // After every step: an identical view through every mailbox,
            // in the order opposite to the last step's, so each store
            // reads first the mailbox its memo holds — as the last check
            // and this step left it — before another evicts it...
            let mut order = MAILBOXES;
            if at % 2 == 1 {
                order.reverse();
            }
            let replayed = ShardedStore::open_with(shards, || Ok(fs.clone())).expect("replay");
            for mb in order {
                let a = single.read_mailbox(mb).expect("single read");
                let b = sharded.read_mailbox(mb).expect("sharded read");
                prop_assert_eq!(&a, &b, "mailbox {} diverged", mb);
                // ...the same from a fresh replay of the files, which
                // touches neither running store...
                let c = replayed.read_mailbox(mb).expect("replayed read");
                prop_assert_eq!(&a, &c, "replay of {} diverged", mb);
            }
            // ...and identical aggregate accounting.
            prop_assert_eq!(single.stats(), sharded.stats());
            prop_assert_eq!(replayed.stats(), sharded.stats());
        }

        // A restart over these files deals the shared partition what the
        // running store holds.
        let dealt = dealt_equals_replayed(&fs, shards);
        for mb in MAILBOXES {
            prop_assert_eq!(dealt.list_mailbox(mb), sharded.list_mailbox(mb));
        }
        prop_assert_eq!(dealt.stats(), sharded.stats());
    }
}
