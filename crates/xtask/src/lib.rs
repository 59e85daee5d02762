//! `spamaware-xtask` — workspace static analysis, run as
//! `cargo run -p spamaware-xtask -- lint`.
//!
//! Three token/line-level passes over `crates/*/src` (deliberately
//! dependency-free — no `syn`, no network), and nothing else: rules about
//! locks, blocking calls and instrument names are held by types, by
//! clippy's `disallowed-methods` and by tests (DESIGN.md §14).
//!
//! | pass            | scope                          | rule |
//! |-----------------|--------------------------------|------|
//! | `determinism`   | sim, server, dnsbl, metrics, bench, plus `mfs`'s frame/crash/intercept/fsck files | no wall clock, ambient RNG, env branching, or hash-order leaks |
//! | `panic-safety`  | server, smtp, mfs, dnsbl, metrics, core | no `unwrap`/`expect`/`panic!` in non-test code; budgeted waivers |
//! | `unsafe-audit`  | every crate                    | `unsafe` requires an adjacent `// SAFETY:` comment |
//!
//! See `DESIGN.md` § "Invariants & static analysis" for the rationale and
//! the waiver syntax. The self-test corpus under `crates/xtask/tests/`
//! seeds one violation per rule and one clean fixture per pass.

pub mod determinism;
pub mod findings;
pub mod panics;
pub mod scan;
pub mod unsafety;

use findings::Finding;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose simulation output must be a pure function of seed + trace.
/// `bench` rides along so experiment binaries stay reproducible.
pub const DETERMINISM_SCOPE: &[&str] = &["sim", "server", "dnsbl", "metrics", "bench"];
/// Individual files outside the determinism-scoped crates that must
/// nonetheless be deterministic: the crash-recovery layer, whose `mfsck`
/// reports are pinned byte-for-byte by golden fixtures. (The rest of the
/// `mfs` crate is exempt — backends legitimately touch the real world.)
pub const DETERMINISM_FILES: &[&str] = &[
    "crates/mfs/src/frame.rs",
    "crates/mfs/src/crash.rs",
    // ...and the layer that carries out what the crash policy decides.
    "crates/mfs/src/intercept.rs",
    "crates/mfs/src/mfs_store/fsck.rs",
    // The DNSBL circuit breaker's backoff schedule must replay exactly
    // under a ManualClock; pinned here explicitly so the guarantee
    // survives even if the crate-level `dnsbl` scope is ever narrowed.
    "crates/dnsbl/src/breaker.rs",
    // The timer wheel and the simulated reactor are the replay substrate
    // for the pre-trust event loop: a wall-clock read or ambient
    // randomness in either breaks byte-identical SimReactor runs.
    "crates/core/src/reactor/wheel.rs",
    "crates/core/src/reactor/sim.rs",
];
/// Crates that must not panic on hostile input. `core` contains the live
/// TCP servers, which face the most hostile input of all.
pub const PANIC_SCOPE: &[&str] = &["server", "smtp", "mfs", "dnsbl", "metrics", "core"];
/// Waiver budget file, relative to the workspace root.
pub const BUDGET_FILE: &str = "crates/xtask/panic-waivers.budget";

/// Outcome of a full workspace lint.
pub struct LintReport {
    /// All violations, in path order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// `lint:allow(panic)` waivers consumed, per crate.
    pub waivers_used: BTreeMap<String, usize>,
}

/// Lints every `crates/*/src/**/*.rs` under `root`.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    let mut waivers_used: BTreeMap<String, usize> = BTreeMap::new();
    for path in &files {
        let file = scan::scan_file(path)?;
        let krate = crate_of(root, path);
        let det_file = DETERMINISM_FILES
            .iter()
            .any(|f| path.ends_with(Path::new(f)));
        if det_file || DETERMINISM_SCOPE.iter().any(|c| *c == krate) {
            findings.extend(determinism::check(&file));
        }
        if PANIC_SCOPE.iter().any(|c| *c == krate) {
            let scan = panics::check(&file);
            findings.extend(scan.findings);
            if scan.waivers_used > 0 {
                *waivers_used.entry(krate.clone()).or_insert(0) += scan.waivers_used;
            }
        }
        findings.extend(unsafety::check(&file));
    }

    let budget_path = root.join(BUDGET_FILE);
    let budget_text = std::fs::read_to_string(&budget_path).unwrap_or_default();
    match panics::parse_budget(&budget_text) {
        Ok(budget) => {
            findings.extend(panics::check_budget(&waivers_used, &budget, BUDGET_FILE));
        }
        Err(e) => findings.push(Finding::new(BUDGET_FILE, 0, "panic-budget", e)),
    }

    Ok(LintReport {
        findings,
        files_scanned: files.len(),
        waivers_used,
    })
}

/// The crate name (directory under `crates/`) owning `path`.
pub(crate) fn crate_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root.join("crates"))
        .ok()
        .and_then(|rel| rel.components().next())
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .unwrap_or_default()
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_name_extraction() {
        let root = Path::new("/repo");
        assert_eq!(
            crate_of(root, Path::new("/repo/crates/mfs/src/mbox.rs")),
            "mfs"
        );
        assert_eq!(
            crate_of(root, Path::new("/repo/crates/server/src/a/b.rs")),
            "server"
        );
    }
}
