//! Domain-invariant lint.
//!
//! One repo-specific rule that the type system alone does not fully close
//! off: **MFS refcount confinement**. The shared-record refcount fields
//! (`KeyRecord::delta`, `SharedEntry::refs`) implement §6.1's "a shared
//! record cannot be deleted until it is deleted from all MFS files that
//! share it". All mutation must stay inside `crates/mfs/src/mfs_store.rs`
//! (the log-structured replay logic) or `crates/mfs/src/fsck.rs` (the
//! offline repair pass that rebuilds the same accounting from disk); the
//! fields are crate-private, and this pass keeps textual regressions
//! (e.g. a helper moved to another module) from reopening the hole. Waive
//! with `lint:allow(mfs-refcount)`.

use crate::findings::Finding;
use crate::scan::SourceFile;

const REFCOUNT_HOMES: &[&str] = &["mfs/src/mfs_store.rs", "mfs/src/fsck.rs"];
const REFCOUNT_FIELDS: &[&str] = &["refs", "delta"];

/// Runs the invariant rule over one file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let norm = file.path.replace('\\', "/");
    if norm.contains("mfs/src/") && !REFCOUNT_HOMES.iter().any(|h| norm.ends_with(h)) {
        check_refcount_confinement(file, &mut out);
    }
    out
}

fn check_refcount_confinement(file: &SourceFile, out: &mut Vec<Finding>) {
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for field in REFCOUNT_FIELDS {
            if (mutates_field(&line.code, field) || initializes_field(&line.code, field))
                && !file.waived(i, "mfs-refcount")
            {
                out.push(Finding::new(
                    &file.path,
                    i + 1,
                    "mfs-refcount",
                    format!(
                        "refcount field `{field}` touched outside mfs_store.rs — §6.1 refcount \
                         accounting must stay next to the replay logic"
                    ),
                ));
            }
        }
    }
}

/// `….field = …`, `+=`, `-=` — but not `==`.
fn mutates_field(code: &str, field: &str) -> bool {
    let pat = format!(".{field}");
    let mut from = 0;
    while let Some(pos) = code[from..].find(&pat) {
        let after = from + pos + pat.len();
        from = after;
        let rest = code[after..].trim_start();
        if let Some(op) = rest.chars().next() {
            let two: String = rest.chars().take(2).collect();
            if two == "+=" || two == "-=" || (op == '=' && !two.starts_with("==")) {
                return true;
            }
        }
    }
    false
}

/// Struct-literal initialization `field: value` (outside a type context is
/// indistinguishable at token level, so any `refs:`/`delta:` init counts).
fn initializes_field(code: &str, field: &str) -> bool {
    let pat = format!("{field}:");
    let mut from = 0;
    while let Some(pos) = code[from..].find(&pat) {
        let at = from + pos;
        from = at + pat.len();
        let boundary = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.');
        // `field::` is a path, not an initializer.
        if boundary && !code[at + pat.len()..].starts_with(':') {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    #[test]
    fn refcount_mutation_flagged_outside_store() {
        let f = scan_source(
            "crates/mfs/src/compact.rs",
            "fn a(e: &mut SharedEntry) { e.refs -= 1; }\n",
        );
        assert_eq!(check(&f).len(), 1);
    }

    #[test]
    fn refcount_comparison_is_fine() {
        let f = scan_source(
            "crates/mfs/src/compact.rs",
            "fn a(e: &SharedEntry) -> bool { e.refs == 0 && e.delta <= 1 }\n",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn waivers_apply() {
        let src = "// lint:allow(mfs-refcount): compaction rewrites the record it just replayed\nfn a(e: &mut SharedEntry) { e.refs -= 1; }\n";
        let f = scan_source("crates/mfs/src/compact.rs", src);
        assert!(check(&f).is_empty());
    }

    #[test]
    fn unrelated_fields_do_not_match() {
        let f = scan_source(
            "crates/mfs/src/other.rs",
            "fn a(s: &mut Stats) { s.prefs = 1; s.refsx = 2; }\n",
        );
        assert!(check(&f).is_empty());
    }
}
