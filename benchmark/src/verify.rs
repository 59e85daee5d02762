//! After the drain: reopen the spool and check it against what the
//! senders were told.

use crate::script::{seed_key, Bodies, Script, SMALL_MAIL};
use spamaware_mfs::{DataRef, MailId, RealDir, ShardedStore};
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// Partitions the spool is opened with, here and (by its default) in the
/// server.
const STORE_SHARDS: usize = 8;

/// A store error as the `io::Error` the benchmark reports.
pub fn store_error(e: spamaware_mfs::StoreError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Opens the spool the way the server does, without its repair pass: a
/// corrupt record is an error here, not something to mend.
pub fn open(spool: &Path) -> io::Result<ShardedStore<RealDir>> {
    ShardedStore::open_with(STORE_SHARDS, || RealDir::new(spool)).map_err(store_error)
}

/// Id the `k`-th mail pre-seeded into `mailbox` is stored under.
pub fn seed_id(script: &Script, mailbox: u32, k: u32) -> u64 {
    u64::from(k) * u64::from(script.mailboxes) + u64::from(mailbox) + 1
}

/// Delivers the script's pre-seeded mails straight into `spool`, before
/// any server runs on it.
pub fn preseed(spool: &Path, script: &Script, bodies: &Bodies) -> io::Result<()> {
    if script.seed_mails == 0 {
        return Ok(());
    }
    let store = open(spool)?;
    let mut body = Vec::new();
    for k in 0..script.seed_mails {
        for mailbox in 0..script.mailboxes {
            body.clear();
            bodies.write_body(seed_key(mailbox, k), SMALL_MAIL, &mut body);
            store
                .deliver(
                    MailId(seed_id(script, mailbox, k)),
                    &[&format!("user{mailbox}")],
                    DataRef::Bytes(&body),
                )
                .map_err(store_error)?;
        }
    }
    Ok(())
}

/// What the generator knows when the run ends.
pub struct Evidence<'a> {
    /// The script that ran.
    pub script: &'a Script,
    /// Its bodies.
    pub bodies: &'a Bodies,
    /// `(key, server id)` of every mail acked with `250`.
    pub acked: &'a [(u64, u64)],
    /// `(mailbox, key)` of every mail a completed POP3 session deleted.
    pub deleted: &'a [(u32, u64)],
    /// Keys of sessions that failed after their body was sent: their mail
    /// may be stored without an ack, and only theirs.
    pub unacked: &'a [u64],
}

/// Problems found, each one a failed operation; `messages` holds the
/// first few for the log.
#[derive(Debug, Default)]
pub struct Verdict {
    /// How many checks failed.
    pub problems: u64,
    /// The first of them, described.
    pub messages: Vec<String>,
}

impl Verdict {
    fn problem(&mut self, message: impl FnOnce() -> String) {
        self.problems += 1;
        if self.messages.len() < 8 {
            self.messages.push(message());
        }
    }
}

/// Checks the drained spool: every acked or pre-seeded mail that was not
/// deleted is listed exactly once in each of its recipients' mailboxes
/// with the right length, deleted mails are gone, and nothing else is
/// there beyond mail in flight when a session failed. Bodies are compared
/// byte for byte through the first recipient's mailbox of every mail,
/// and through every recipient's for one mail in 16.
pub fn verify_spool(spool: &Path, ev: &Evidence<'_>) -> io::Result<Verdict> {
    let mut verdict = Verdict::default();
    let script = ev.script;
    // Per mailbox: id -> (key, target size, whether to compare the body).
    let mut expected: Vec<HashMap<u64, (u64, u32, bool)>> =
        vec![HashMap::new(); script.mailboxes as usize];
    for mailbox in 0..script.mailboxes {
        for k in 0..script.seed_mails {
            expected[mailbox as usize].insert(
                seed_id(script, mailbox, k),
                (seed_key(mailbox, k), SMALL_MAIL, true),
            );
        }
    }
    let mut id_of_key: HashMap<u64, u64> = HashMap::with_capacity(ev.acked.len());
    for &(key, id) in ev.acked {
        id_of_key.insert(key, id);
        let spec = script.spec(key);
        for (n, &mailbox) in spec.rcpts.iter().enumerate() {
            let check_body = n == 0 || key % 16 == 0;
            if expected[mailbox as usize]
                .insert(id, (key, spec.size, check_body))
                .is_some()
            {
                verdict.problem(|| format!("id {id} acked twice for user{mailbox}"));
            }
        }
    }
    for &(mailbox, key) in ev.deleted {
        let id = if key >= seed_key(0, 0) {
            Some(seed_id(script, mailbox, (key & 0xFF_FFFF) as u32))
        } else {
            // A mail retrieved before its own session failed is not acked
            // and so was never expected; deleting it needs no entry.
            id_of_key.get(&key).copied()
        };
        if let Some(id) = id {
            if expected[mailbox as usize].remove(&id).is_none() {
                verdict.problem(|| format!("user{mailbox}: key {key} deleted but never expected"));
            }
        }
    }
    let mut allowed_extras: usize = ev.unacked.iter().map(|&k| script.spec(k).rcpts.len()).sum();

    let store = open(spool)?;
    for mailbox in 0..script.mailboxes {
        let name = format!("user{mailbox}");
        let want = &mut expected[mailbox as usize];
        for (id, len) in store.list_mailbox(&name) {
            let Some((key, size, check_body)) = want.remove(&id.0) else {
                if allowed_extras > 0 {
                    allowed_extras -= 1;
                } else {
                    verdict.problem(|| format!("{name}: id {} stored but not expected", id.0));
                }
                continue;
            };
            if len != ev.bodies.body_len(size) as u64 {
                verdict.problem(|| format!("{name}: id {} has {len} bytes", id.0));
            } else if check_body {
                let mail = store.read_mail(&name, id).map_err(store_error)?;
                if !ev.bodies.matches(key, size, &mail.body) {
                    verdict.problem(|| format!("{name}: id {} body differs", id.0));
                }
            }
        }
        for (id, (key, ..)) in want.drain() {
            verdict.problem(|| format!("{name}: id {id} (key {key}) acked but missing"));
        }
    }
    Ok(verdict)
}
