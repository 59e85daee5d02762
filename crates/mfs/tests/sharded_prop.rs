//! Observational-equivalence property test: a [`ShardedStore`] driven
//! through an arbitrary op sequence must be indistinguishable from a
//! single-lock [`MfsStore`] given the same sequence — same mailbox
//! contents (ids, bodies, order), same error/success outcomes, same
//! aggregate statistics. Sharding may only change *which operations can
//! run in parallel*, never what any observer reads back.

mod common;

use common::{body_for, dealt_equals_replayed, op_strategy, recipients, Op, MAILBOXES};
use proptest::prelude::*;
use spamaware_mfs::{DataRef, MailId, MailStore, MemFs, MfsStore, ShardedStore, SyncBackend};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn sharded_store_is_observationally_equivalent_to_single_lock(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        shards in 1usize..9,
    ) {
        let mut single = MfsStore::new(MemFs::new());
        let fs = SyncBackend::new(MemFs::new());
        let sharded = ShardedStore::open_with(shards, || Ok(fs.clone()))
            .expect("open sharded");

        for op in &ops {
            match *op {
                Op::Deliver { id, first, count } => {
                    let mbs = recipients(first, count);
                    // Body varies with id so a collision check has teeth.
                    let body = body_for(id);
                    let a = single.deliver(MailId(id), &mbs, DataRef::Bytes(&body));
                    let b = sharded.deliver(MailId(id), &mbs, DataRef::Bytes(&body));
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "deliver outcome diverged: {:?}", op);
                }
                Op::Delete { mailbox, id } => {
                    let mb = MAILBOXES[mailbox];
                    let a = single.delete(mb, MailId(id));
                    let b = sharded.delete(mb, MailId(id));
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "delete outcome diverged: {:?}", op);
                }
            }

            // After every op: identical view through every mailbox...
            for mb in MAILBOXES {
                let a = single.read_mailbox(mb).expect("single read");
                let b = sharded.read_mailbox(mb).expect("sharded read");
                prop_assert_eq!(a, b, "mailbox {} diverged", mb);
            }
            // ...and identical aggregate accounting.
            prop_assert_eq!(single.stats(), sharded.stats());
        }

        // A restart over these files deals the shards the index the
        // running store holds.
        let dealt = dealt_equals_replayed(&fs, shards);
        for mb in MAILBOXES {
            prop_assert_eq!(dealt.list_mailbox(mb), sharded.list_mailbox(mb));
        }
        prop_assert_eq!(dealt.stats(), sharded.stats());
    }
}
