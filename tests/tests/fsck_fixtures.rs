//! Golden corrupted-store fixtures: four damaged MFS spools are checked
//! into `fixtures/fsck/` as raw bytes, together with the exact `mfsck`
//! report each must produce. These pin the repair behavior *and* the
//! report format — a change to either shows up as a fixture diff in
//! review, not as a silent drift.
//!
//! Each fixture is a directory mirroring a store root (`mfs/*.key`,
//! `mfs/*.data`) plus `report.txt`, the expected output of one `fsck`
//! run. The `#[ignore]`d `regenerate_fixtures` test rebuilds all of them
//! deterministically; run it (then review the diff!) after intentionally
//! changing the frame format or the report wording:
//!
//! ```text
//! cargo test -p integration-tests --test fsck_fixtures -- --include-ignored regenerate
//! ```

mod common;

use spamaware_mfs::{fsck, DataRef, MailId, MailStore, MfsStore, RealDir, ShardedStore};
use std::fs;
use std::path::{Path, PathBuf};

const CASES: [&str; 4] = [
    "torn-tail",
    "bad-crc",
    "dangling-refcount",
    "orphan-shmailbox",
];

fn fixture_dir(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/fsck")
        .join(case)
}

/// Copies a fixture's store files into a scratch root (fsck repairs in
/// place; the checked-in bytes must stay damaged).
fn checkout(case: &str) -> PathBuf {
    let scratch = common::spool(&format!("fixture-{case}"));
    let src = fixture_dir(case).join("mfs");
    let dst = scratch.join("mfs");
    fs::create_dir_all(&dst).expect("mkdir scratch");
    for entry in fs::read_dir(&src).unwrap_or_else(|e| panic!("fixture {case} missing: {e}")) {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy fixture file");
    }
    scratch
}

fn golden_report(case: &str) -> String {
    let path = fixture_dir(case).join("report.txt");
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("golden report for {case} missing: {e}"))
}

#[test]
fn fixtures_produce_their_golden_reports() {
    for case in CASES {
        let root = checkout(case);
        let (_store, report) = fsck(RealDir::new(&root).expect("open scratch"))
            .unwrap_or_else(|e| panic!("fsck of {case} failed: {e}"));
        assert_eq!(
            report.to_string(),
            golden_report(case),
            "report drifted for fixture {case}"
        );
        // Repairs are durable and complete: a second pass finds nothing.
        let (_store, again) = fsck(RealDir::new(&root).expect("reopen scratch"))
            .unwrap_or_else(|e| panic!("second fsck of {case} failed: {e}"));
        assert!(
            again.is_clean(),
            "fsck of {case} was not idempotent: {again}"
        );
        let _ = fs::remove_dir_all(root);
    }
}

/// The restart path deals the shards the index `fsck` repaired in memory
/// instead of reading the files again: on every fixture that index must be
/// the one a replay of the repaired files builds.
#[test]
fn dealt_index_equals_a_replay_of_the_repaired_fixture() {
    for case in CASES {
        let root = checkout(case);
        let (dealt, report) = ShardedStore::open_with_fsck(3, || RealDir::new(&root))
            .unwrap_or_else(|e| panic!("repairing reopen of {case} failed: {e}"));
        assert_eq!(report.to_string(), golden_report(case), "{case}");
        let replayed = ShardedStore::open_with(3, || RealDir::new(&root))
            .unwrap_or_else(|e| panic!("replay of repaired {case} failed: {e}"));
        for mb in ["alice", "bob"] {
            assert_eq!(
                dealt.list_mailbox(mb),
                replayed.list_mailbox(mb),
                "{case}: {mb}"
            );
        }
        assert_eq!(dealt.stats(), replayed.stats(), "{case}");
        assert_eq!(dealt.max_mail_id(), replayed.max_mail_id(), "{case}");
        let _ = fs::remove_dir_all(root);
    }
}

#[test]
fn repaired_fixtures_serve_the_surviving_mail() {
    // Spot-check the post-repair contents, not just the report.
    let root = checkout("torn-tail");
    let (mut store, _) = fsck(RealDir::new(&root).expect("open")).expect("fsck");
    let mails = store.read_mailbox("alice").expect("read");
    assert_eq!(mails.len(), 2, "whole records survive the torn tail");
    assert_eq!(mails[0].body, b"first mail");
    let _ = fs::remove_dir_all(root);

    let root = checkout("dangling-refcount");
    let (mut store, _) = fsck(RealDir::new(&root).expect("open")).expect("fsck");
    assert!(
        store.read_mailbox("alice").expect("read").is_empty(),
        "the dangling reference is dropped, not resurrected"
    );
    let _ = fs::remove_dir_all(root);

    let root = checkout("orphan-shmailbox");
    let (mut store, _) = fsck(RealDir::new(&root).expect("open")).expect("fsck");
    let stats = store.stats();
    assert_eq!(stats.shared_mails, 0, "orphaned body is reclaimed");
    assert_eq!(stats.freed_shared_bytes, 11);
    let _ = fs::remove_dir_all(root);
}

/// Deterministically rebuilds every fixture (store bytes + golden
/// report). `#[ignore]`d: run explicitly after an intentional format
/// change, then review the diff.
#[test]
#[ignore = "rewrites checked-in fixtures; run explicitly after format changes"]
fn regenerate_fixtures() {
    for case in CASES {
        let dir = fixture_dir(case);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("mfs")).expect("mkdir fixture");
        build_fixture(case, &dir);

        // Produce the golden report from a scratch copy (fsck mutates).
        let scratch = checkout(case);
        let (_store, report) =
            fsck(RealDir::new(&scratch).expect("open")).expect("fsck while regenerating");
        assert!(!report.is_clean(), "fixture {case} must need repair");
        fs::write(dir.join("report.txt"), report.to_string()).expect("write golden report");
        let _ = fs::remove_dir_all(scratch);
    }
}

/// Writes one damaged store under `dir` — all damage is applied with raw
/// `std::fs` so the byte layout is exactly what each scenario describes.
fn build_fixture(case: &str, dir: &Path) {
    let mut store = MfsStore::open(RealDir::new(dir).expect("open fixture root")).expect("open");
    match case {
        "torn-tail" => {
            // Two whole records, then half a frame: a mid-append power cut.
            store
                .deliver(MailId(1), &["alice"], DataRef::Bytes(b"first mail"))
                .expect("deliver");
            store
                .deliver(MailId(2), &["alice"], DataRef::Bytes(b"second mail"))
                .expect("deliver");
            append_raw(dir, "mfs/alice.key", &[0x01, 0x20, 0x00, 0x00, 0x07]);
        }
        "bad-crc" => {
            // Two records; a flipped byte in the *first* frame's checksum
            // makes it corruption (valid data follows), not a torn tail.
            store
                .deliver(MailId(1), &["alice"], DataRef::Bytes(b"first mail"))
                .expect("deliver");
            store
                .deliver(MailId(2), &["alice"], DataRef::Bytes(b"second mail"))
                .expect("deliver");
            flip_byte(dir, "mfs/alice.key", 34);
        }
        "dangling-refcount" => {
            // Shared delivery, then the shmailbox key log vanishes (the
            // kind of damage only external interference produces): both
            // recipients now hold references to an unindexed body.
            store
                .deliver(MailId(5), &["alice", "bob"], DataRef::Bytes(b"shared mail"))
                .expect("deliver");
            fs::remove_file(dir.join("mfs/shmailbox.key")).expect("remove shared key");
        }
        "orphan-shmailbox" => {
            // The opposite damage: the recipients' key logs vanish, the
            // shared body and its refcount remain — zero live references.
            store
                .deliver(MailId(7), &["alice", "bob"], DataRef::Bytes(b"orphan body"))
                .expect("deliver");
            fs::remove_file(dir.join("mfs/alice.key")).expect("remove alice key");
            fs::remove_file(dir.join("mfs/bob.key")).expect("remove bob key");
        }
        other => panic!("unknown fixture {other}"),
    }
}

fn append_raw(dir: &Path, rel: &str, bytes: &[u8]) {
    use std::io::Write;
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(dir.join(rel))
        .expect("open for raw append");
    f.write_all(bytes).expect("raw append");
}

fn flip_byte(dir: &Path, rel: &str, offset: u64) {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join(rel))
        .expect("open for corruption");
    f.seek(SeekFrom::Start(offset)).expect("seek");
    f.write_all(&[0xFF]).expect("flip");
}
