//! Crash recovery on the real filesystem: the MemFs-based torture tests
//! prove the recovery logic; this suite proves the same logic holds when
//! the surviving bytes live in actual files — raw `std::fs` damage (a
//! partial frame appended by a dying process, flipped bytes mid-file) is
//! inflicted behind the store's back, then replay and `fsck` must repair
//! it through [`RealDir`].

#![allow(clippy::disallowed_methods)] // temp-dir names read the clock (DESIGN.md §9)

use spamaware_mfs::{fsck, DataRef, MailId, MailStore, MfsStore, RealDir, StoreError};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str) -> TempRoot {
        let p = std::env::temp_dir().join(format!(
            "spamaware-rdr-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&p).expect("mkdir temp root");
        TempRoot(p)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn populated(root: &PathBuf) -> MfsStore<RealDir> {
    let mut store = MfsStore::open(RealDir::new(root).expect("open root")).expect("open store");
    store
        .deliver(MailId(1), &["alice"], DataRef::Bytes(b"own mail"))
        .expect("deliver own");
    store
        .deliver(MailId(2), &["alice", "bob"], DataRef::Bytes(b"shared mail"))
        .expect("deliver shared");
    store
}

#[test]
fn torn_tail_on_disk_is_truncated_by_replay() {
    let root = TempRoot::new("torn");
    drop(populated(&root.0));

    // A dying process leaves half a frame at the end of alice's key file.
    let key = root.0.join("mfs/alice.key");
    let mut f = OpenOptions::new().append(true).open(&key).expect("open");
    f.write_all(&[0x01, 0x20, 0xde, 0xad, 0xbe]).expect("tear");
    drop(f);

    let mut store =
        MfsStore::open(RealDir::new(&root.0).expect("reopen")).expect("replay with torn tail");
    assert_eq!(store.recovered_records(), 1);
    assert_eq!(store.read_mailbox("alice").expect("read").len(), 2);
    assert_eq!(store.read_mailbox("bob").expect("read").len(), 1);
    // The truncation is durable: the file shrank back to whole frames
    // (38 bytes each: 2-byte header + 32-byte record + 4-byte CRC).
    let len = std::fs::metadata(&key).expect("stat").len();
    assert_eq!(len % 38, 0, "key file is whole frames again");

    // The recovered store keeps working on the same files.
    store
        .deliver(MailId(3), &["alice"], DataRef::Bytes(b"after recovery"))
        .expect("deliver after recovery");
    drop(store);
    let mut reread = MfsStore::open(RealDir::new(&root.0).expect("reopen")).expect("reopen clean");
    assert_eq!(reread.recovered_records(), 0);
    assert_eq!(reread.read_mailbox("alice").expect("read").len(), 3);
}

#[test]
fn mid_file_corruption_fails_strict_open_and_fsck_repairs() {
    let root = TempRoot::new("corrupt");
    drop(populated(&root.0));

    // Flip bytes inside the *first* frame of alice's key file: strict
    // replay must refuse (this is damage, not a crash artifact).
    let key = root.0.join("mfs/alice.key");
    let mut f = OpenOptions::new()
        .write(true)
        .read(true)
        .open(&key)
        .expect("open");
    f.seek(SeekFrom::Start(10)).expect("seek");
    f.write_all(b"XXXX").expect("corrupt");
    drop(f);

    let err = MfsStore::open(RealDir::new(&root.0).expect("reopen"))
        .expect_err("strict open must refuse mid-file corruption");
    assert!(matches!(err, StoreError::CorruptRecord(_)), "{err:?}");

    let (mut repaired, report) = fsck(RealDir::new(&root.0).expect("reopen")).expect("fsck");
    assert!(!report.is_clean());
    assert_eq!(report.corrupt_frames.len(), 1, "{report}");
    // Everything after the corruption point is gone; bob's mailbox and
    // the shared partition were untouched. The shared body kept exactly
    // bob's reference (alice's was clamped away with the lost key file).
    assert_eq!(repaired.read_mailbox("alice").expect("read").len(), 0);
    assert_eq!(repaired.read_mailbox("bob").expect("read").len(), 1);
    assert_eq!(repaired.stats().shared_references, 1);
    assert_eq!(repaired.stats().shared_mails, 1);
    drop(repaired);

    // The repair is durable: a strict reopen now succeeds, cleanly.
    let mut store = MfsStore::open(RealDir::new(&root.0).expect("reopen")).expect("open repaired");
    assert_eq!(store.recovered_records(), 0);
    assert_eq!(
        store.read_mailbox("bob").expect("read")[0].body,
        b"shared mail"
    );
}

#[test]
fn fsck_report_on_disk_damage_is_deterministic() {
    let build = |tag: &str| -> TempRoot {
        let root = TempRoot::new(tag);
        drop(populated(&root.0));
        let key = root.0.join("mfs/alice.key");
        let mut f = OpenOptions::new().append(true).open(&key).expect("open");
        f.write_all(&[0x01, 0x20, 0x00]).expect("tear");
        root
    };
    let a = build("det-a");
    let b = build("det-b");
    let (_, ra) = fsck(RealDir::new(&a.0).expect("open a")).expect("fsck a");
    let (_, rb) = fsck(RealDir::new(&b.0).expect("open b")).expect("fsck b");
    assert_eq!(ra.to_string(), rb.to_string());
    assert!(ra.to_string().contains("torn tail: mfs/alice.key"), "{ra}");
}

#[test]
fn truncate_backend_contract_holds_on_real_files() {
    let root = TempRoot::new("trunc");
    let mut fs = RealDir::new(&root.0).expect("open");
    use spamaware_mfs::Backend;
    fs.append("f", DataRef::Bytes(b"0123456789")).expect("seed");
    fs.truncate("f", 4).expect("shrink");
    assert_eq!(fs.len("f").expect("len"), 4);
    assert_eq!(fs.read_at("f", 0, 4).expect("read"), b"0123");
    assert!(matches!(
        fs.truncate("f", 100),
        Err(StoreError::OutOfRange(_))
    ));
    assert!(matches!(
        fs.truncate("missing", 0),
        Err(StoreError::NotFound(_))
    ));
    // Raw on-disk size agrees.
    let mut buf = Vec::new();
    std::fs::File::open(root.0.join("f"))
        .expect("open raw")
        .read_to_end(&mut buf)
        .expect("read raw");
    assert_eq!(buf, b"0123");
}
