//! Self-test corpus: every pass must catch its seeded violation fixture and
//! accept its clean fixture, and the full workspace lint must come back
//! clean (this is the same check `scripts/check.sh` runs pre-PR).

use spamaware_xtask::scan::scan_source;
use spamaware_xtask::{determinism, panics, unsafety};

fn fixture(name: &str, path: &str) -> spamaware_xtask::scan::SourceFile {
    let text = match name {
        "violation_time" => include_str!("fixtures/violation_time.rs"),
        "violation_rng" => include_str!("fixtures/violation_rng.rs"),
        "violation_env" => include_str!("fixtures/violation_env.rs"),
        "violation_hashmap" => include_str!("fixtures/violation_hashmap.rs"),
        "clean_determinism" => include_str!("fixtures/clean_determinism.rs"),
        "violation_panic" => include_str!("fixtures/violation_panic.rs"),
        "waived_panic" => include_str!("fixtures/waived_panic.rs"),
        "clean_panic" => include_str!("fixtures/clean_panic.rs"),
        "violation_unsafe" => include_str!("fixtures/violation_unsafe.rs"),
        "clean_unsafe" => include_str!("fixtures/clean_unsafe.rs"),
        other => panic!("unknown fixture {other}"),
    };
    scan_source(path, text)
}

#[test]
fn determinism_catches_each_seeded_violation() {
    for name in [
        "violation_time",
        "violation_rng",
        "violation_env",
        "violation_hashmap",
    ] {
        let f = fixture(name, "crates/server/src/fixture.rs");
        let found = determinism::check(&f);
        assert_eq!(
            found.len(),
            1,
            "{name}: expected exactly one finding, got {found:?}"
        );
    }
}

#[test]
fn determinism_accepts_clean_fixture() {
    let f = fixture("clean_determinism", "crates/server/src/fixture.rs");
    let found = determinism::check(&f);
    assert!(found.is_empty(), "clean fixture flagged: {found:?}");
}

#[test]
fn panic_safety_catches_seeded_violations() {
    let f = fixture("violation_panic", "crates/mfs/src/fixture.rs");
    let scan = panics::check(&f);
    assert_eq!(
        scan.findings.len(),
        3,
        "unwrap, panic!, expect: {:?}",
        scan.findings
    );
    assert_eq!(scan.waivers_used, 0);
}

#[test]
fn panic_safety_accepts_clean_and_counts_waivers() {
    let clean = panics::check(&fixture("clean_panic", "crates/mfs/src/fixture.rs"));
    assert!(
        clean.findings.is_empty(),
        "clean fixture flagged: {:?}",
        clean.findings
    );
    assert_eq!(clean.waivers_used, 0);

    let waived = panics::check(&fixture("waived_panic", "crates/mfs/src/fixture.rs"));
    assert!(
        waived.findings.is_empty(),
        "waiver ignored: {:?}",
        waived.findings
    );
    assert_eq!(waived.waivers_used, 1);
}

#[test]
fn unsafe_audit_requires_safety_comment() {
    let bad = unsafety::check(&fixture("violation_unsafe", "crates/sim/src/fixture.rs"));
    assert_eq!(bad.len(), 1, "{bad:?}");

    let good = unsafety::check(&fixture("clean_unsafe", "crates/sim/src/fixture.rs"));
    assert!(good.is_empty(), "documented unsafe flagged: {good:?}");
}

/// The real workspace must lint clean — this is the acceptance gate for
/// `cargo run -p spamaware-xtask -- lint`.
#[test]
fn workspace_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let report = spamaware_xtask::lint_workspace(root).expect("scan workspace");
    assert!(
        report.files_scanned > 40,
        "expected the full tree, saw {}",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        report.findings.is_empty(),
        "workspace lint violations:\n{}",
        rendered.join("\n")
    );
}
