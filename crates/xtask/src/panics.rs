//! Panic-safety lint.
//!
//! A mail server must not abort on malformed input (paper §4: the harvesting
//! attack is exactly a stream of hostile input). Non-test code in the scoped
//! crates (`server`, `smtp`, `mfs`, `dnsbl`) may not call `.unwrap()` /
//! `.expect(…)` or invoke `panic!` / `unreachable!` / `todo!` /
//! `unimplemented!`; errors travel as typed `Result`s instead.
//!
//! Genuine internal invariants (e.g. scheduler bookkeeping that cannot fail
//! without a bug in the engine itself) are waived per line with
//! `// lint:allow(panic): <why>`. Waivers are budgeted: the checked-in
//! budget file caps the waiver count per crate and may only shrink — adding
//! a waiver without raising the discussion in review fails the lint, and a
//! stale (too-high) budget fails too, forcing the ratchet downward.

use crate::findings::Finding;
use crate::scan::SourceFile;
use std::collections::BTreeMap;

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Result of the pass over one file: findings plus the waivers it consumed.
pub struct PanicScan {
    /// Unwaived panic sites.
    pub findings: Vec<Finding>,
    /// Number of `lint:allow(panic)` waivers actually covering a panic site.
    pub waivers_used: usize,
}

/// Runs the panic-safety pass over one scoped file.
pub fn check(file: &SourceFile) -> PanicScan {
    let mut findings = Vec::new();
    let mut waivers_used = 0;
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let mut hits = 0;
        for tok in PANIC_TOKENS {
            let mut from = 0;
            while let Some(pos) = line.code[from..].find(tok) {
                hits += 1;
                from += pos + tok.len();
            }
        }
        if hits == 0 {
            continue;
        }
        if file.waived(i, "panic") {
            waivers_used += 1;
        } else {
            findings.push(Finding::new(
                &file.path,
                i + 1,
                "panic-safety",
                format!(
                    "{hits} panic site(s) in non-test code — return a typed error, or waive \
                     a true invariant with lint:allow(panic) and budget it"
                ),
            ));
        }
    }
    PanicScan {
        findings,
        waivers_used,
    }
}

/// Parses the shrink-only waiver budget file: `crate = count` lines,
/// `#` comments.
pub fn parse_budget(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let Some((name, count)) = line.split_once('=') else {
            return Err(format!("budget line {}: expected `crate = count`", n + 1));
        };
        let count: usize = count
            .trim()
            .parse()
            .map_err(|e| format!("budget line {}: {e}", n + 1))?;
        out.insert(name.trim().to_owned(), count);
    }
    Ok(out)
}

/// Compares used waivers against the budget. Exceeding the budget fails
/// (shrink-only); a budget above actual use fails too, so the ceiling
/// ratchets down as waivers are removed.
pub fn check_budget(
    used: &BTreeMap<String, usize>,
    budget: &BTreeMap<String, usize>,
    budget_path: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (krate, &n) in used {
        let allowed = budget.get(krate).copied().unwrap_or(0);
        if n > allowed {
            out.push(Finding::new(
                budget_path,
                0,
                "panic-budget",
                format!(
                    "crate `{krate}` uses {n} panic waivers, budget allows {allowed} (shrink-only)"
                ),
            ));
        }
    }
    for (krate, &allowed) in budget {
        let n = used.get(krate).copied().unwrap_or(0);
        if n < allowed {
            out.push(Finding::new(
                budget_path,
                0,
                "panic-budget",
                format!("crate `{krate}` budget is stale: {allowed} allowed but only {n} used — ratchet it down"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    #[test]
    fn flags_unwrap_outside_tests_only() {
        let src = "fn a(x: Option<u8>) -> u8 { x.unwrap() }\n#[cfg(test)]\nmod tests { fn b() { Some(1).unwrap(); } }\n";
        let f = scan_source("t.rs", src);
        let scan = check(&f);
        assert_eq!(scan.findings.len(), 1);
        assert_eq!(scan.findings[0].line, 1);
    }

    #[test]
    fn waiver_consumes_budget() {
        let src = "fn a() {\n    // lint:allow(panic): impossible by construction\n    x.unwrap();\n    y.expect(\"\");\n}\n";
        let f = scan_source("t.rs", src);
        let scan = check(&f);
        assert_eq!(scan.waivers_used, 1);
        assert_eq!(scan.findings.len(), 1);
    }

    #[test]
    fn budget_is_shrink_only_in_both_directions() {
        let mut used = BTreeMap::new();
        used.insert("server".to_owned(), 3);
        let budget = parse_budget("# waivers\nserver = 2\nmfs = 1\n").expect("parses");
        let findings = check_budget(&used, &budget, "budget.txt");
        assert_eq!(findings.len(), 2, "over-use and stale entry both fail");
    }

    #[test]
    fn budget_exact_match_is_clean() {
        let mut used = BTreeMap::new();
        used.insert("server".to_owned(), 2);
        let budget = parse_budget("server = 2\n").expect("parses");
        assert!(check_budget(&used, &budget, "b").is_empty());
    }

    #[test]
    fn strings_do_not_count() {
        let f = scan_source("t.rs", "fn a() { let s = \"don't .unwrap() me\"; }\n");
        assert!(check(&f).findings.is_empty());
    }
}
