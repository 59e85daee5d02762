//! Property test for MFS shared-mailbox refcounting (paper §6.1).
//!
//! Random interleavings of `mail_nwrite` and `mail_delete` must keep the
//! store's statistics — folded from the key files after every step — in
//! lockstep with an independent model, and must record a shared record's
//! bytes as reclaimable exactly when its last reference is deleted. A
//! refcount driven to zero early would show as a freed body the model
//! still references.

use proptest::prelude::*;
use spamaware_mfs::{DataRef, MailId, MailStore, MemFs, MfsStore};
use std::collections::HashMap;

const BODY: &[u8] = b"mailbody";
const MAILBOXES: [&str; 4] = ["a", "b", "c", "d"];

/// One live reference in the model: (mailbox index, mail id, shared?).
type ModelRef = (usize, u64, bool);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn interleaved_writes_and_deletes_keep_refcounts_consistent(
        ops in proptest::collection::vec((0u8..3, 0u64..6, 1usize..5), 1..50)
    ) {
        let mut store = MfsStore::new(MemFs::new());
        // Model: every live reference, plus expected reclaimable bytes.
        let mut live: Vec<ModelRef> = Vec::new();
        let mut freed_expect: u64 = 0;

        for (op, id, n) in ops {
            match op {
                // Multi-recipient write: one shared copy, n references.
                0 => {
                    let n = n.clamp(2, MAILBOXES.len());
                    let mbs: Vec<&str> = MAILBOXES[..n].to_vec();
                    store
                        .deliver(MailId(id), &mbs, DataRef::Bytes(BODY))
                        .expect("shared deliver");
                    for mb in 0..n {
                        live.push((mb, id, true));
                    }
                }
                // Single-recipient write: own copy in the mailbox's file.
                // Own ids live in a disjoint range so a delete-by-id in the
                // store picks the same record kind the model picked.
                1 => {
                    let mb = n % MAILBOXES.len();
                    store
                        .deliver(MailId(id + 1000), &[MAILBOXES[mb]], DataRef::Bytes(BODY))
                        .expect("own deliver");
                    live.push((mb, id + 1000, false));
                }
                // Delete one model-chosen live reference.
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let pick = (id as usize + n) % live.len();
                    let (mb, del_id, shared) = live.remove(pick);
                    store.delete(MAILBOXES[mb], MailId(del_id)).expect("delete");
                    // Was that the last reference to the shared copy?
                    if shared && !live.iter().any(|&(_, i, s)| s && i == del_id) {
                        freed_expect += BODY.len() as u64;
                    }
                }
            }

            let stats = store.stats();
            let shared_refs = live.iter().filter(|&&(_, _, s)| s).count();
            let own_refs = live.len() - shared_refs;
            let mut shared_ids: HashMap<u64, ()> = HashMap::new();
            for &(_, i, s) in &live {
                if s {
                    shared_ids.insert(i, ());
                }
            }
            prop_assert_eq!(stats.shared_references as usize, shared_refs);
            prop_assert_eq!(stats.own_records as usize, own_refs);
            prop_assert_eq!(stats.shared_mails as usize, shared_ids.len());
            prop_assert_eq!(stats.freed_shared_bytes, freed_expect);
        }
    }
}
