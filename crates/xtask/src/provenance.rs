//! Metrics provenance pass.
//!
//! Every metric in the `live.*` / `dnsbl.*` / `mfs.*` namespaces must form a
//! closed loop: **registered** against the `metrics::Registry` (which makes
//! it snapshot-visible — `render()` iterates the registry), **used** somewhere
//! in non-test code (incremented/recorded through its handle, or read by
//! name), and **documented** in `DESIGN.md`. The pass walks string literals
//! (via [`crate::scan::Line::strings`], so blanked code text is no obstacle)
//! and reports any break in the loop. A registration is a registry call
//! (`.counter("…")`) or a row of the live server's instrument table
//! (`crates/core/src/instruments.rs`, [`is_table_row`]):
//!
//! * registered but not documented in `DESIGN.md`;
//! * documented but never registered (stale docs);
//! * registered but never touched again (dead counter);
//! * read by name (`counter_value(...)` etc.) but never registered.
//!
//! Template registrations such as `format!("{prefix}.write_ns")` are matched
//! to documentation by suffix: the template is satisfied if *some* documented
//! name in a known prefix namespace ends in `.write_ns`, and conversely a
//! documented `mfs.write_ns` is satisfied by the template plus an
//! instantiation site passing the literal prefix `"mfs"`.
//!
//! Waive with `// lint:allow(metrics-provenance)` on the registration line;
//! waivers are budgeted per crate in `concurrency-waivers.budget` under the
//! key `metrics-provenance/<crate>`.

use crate::callgraph::Workspace;
use crate::findings::Finding;
use crate::scan::find_token;
use std::collections::{BTreeMap, BTreeSet};

/// Metric namespaces under provenance control. The live server's other
/// prefixes (`smtp.verb.*`, `master.*`, `worker.*`) are rows of the same
/// instrument table, which a test in `crates/core` holds to `DESIGN.md`
/// §14.3 byte for byte; bench experiment tags stay out of the contract.
pub const NAMESPACES: &[&str] = &["live", "dnsbl", "mfs"];

/// Registry call shapes that register a metric.
const REG_TOKENS: &[&str] = &[".counter(", ".gauge(", ".histogram(", ".span("];

/// Call shapes that *read* a metric by name (registration not implied).
const READ_TOKENS: &[&str] = &[
    ".counter_value(",
    ".gauge_value(",
    ".histogram_count(",
    ".histogram_max(",
];

/// One registration site.
#[derive(Debug, Clone)]
struct Registration {
    /// Full metric name, or `{prefix}.suffix` template form.
    name: String,
    file: String,
    /// 1-based line.
    line: usize,
    krate: String,
    /// Local binding the handle is stored in (`let x =` or `field:`), if
    /// recognizable; used for the dead-counter check.
    binding: Option<String>,
    waived: bool,
}

/// Outcome of the provenance pass.
#[derive(Debug, Default)]
pub struct ProvenanceReport {
    /// All violations.
    pub findings: Vec<Finding>,
    /// Waivers consumed, keyed `metrics-provenance/<crate>`.
    pub waivers_used: BTreeMap<String, usize>,
    /// Fully-literal registered names (diagnostic output).
    pub registered: BTreeSet<String>,
    /// Template suffixes registered via `{prefix}.suffix`.
    pub template_suffixes: BTreeSet<String>,
    /// Names documented in `DESIGN.md`.
    pub documented: BTreeSet<String>,
}

impl ProvenanceReport {
    /// Deterministic text dump of the registered/documented sets, for
    /// byte-identical re-run comparison.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for n in &self.registered {
            out.push_str(&format!("registered {n}\n"));
        }
        for s in &self.template_suffixes {
            out.push_str(&format!("template {{prefix}}.{s}\n"));
        }
        for n in &self.documented {
            out.push_str(&format!("documented {n}\n"));
        }
        out
    }
}

/// `true` if `s` is a well-formed metric name in a controlled namespace:
/// `live.x`, `dnsbl.x_y.z`, … Final segment `rs` is excluded so file names
/// (`live.rs`) in prose never parse as metrics.
fn is_metric_name(s: &str) -> bool {
    let mut parts = s.split('.');
    let Some(ns) = parts.next() else { return false };
    if !NAMESPACES.contains(&ns) {
        return false;
    }
    let rest: Vec<&str> = parts.collect();
    if rest.is_empty() || rest.last() == Some(&"rs") {
        return false;
    }
    rest.iter().all(|seg| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// `Some(suffix)` if `s` is a `{prefix}.suffix` template registration name.
fn template_suffix(s: &str) -> Option<&str> {
    let rest = s.strip_prefix("{prefix}.")?;
    (!rest.is_empty()
        && rest
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
    .then_some(rest)
}

/// Extracts the binding a registration is stored into: `let x = r.counter(…)`
/// or `x: r.counter(…)` (struct literal field). `None` for anything fancier.
fn binding_of(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    if let Some(rest) = trimmed.strip_prefix("let ") {
        let name: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        return (!name.is_empty()).then_some(name);
    }
    // Struct-literal field: `ident: <expr>` with no `let`.
    let colon = trimmed.find(':')?;
    let name = &trimmed[..colon];
    (!name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !trimmed[colon..].starts_with("::"))
    .then(|| name.to_owned())
}

/// Whether `code` is a row of the live server's instrument table:
/// `field: kind "name" …`. The table's macro turns each row into the one
/// `registry.kind("name")` call that exists for the name, so a row is a
/// registration. It binds no local for the dead-counter check to follow:
/// the row becomes a struct field, and rustc's `dead_code` reports a
/// crate-private field nothing reads.
fn is_table_row(code: &str) -> bool {
    code.split_once(':').is_some_and(|(_, rest)| {
        ["counter \"", "gauge \"", "span \""]
            .iter()
            .any(|kind| rest.trim_start().starts_with(kind))
    })
}

/// Scans `text` (DESIGN.md) for metric names; returns name → first line.
fn documented_names(text: &str) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for (li, line) in text.lines().enumerate() {
        let bytes = line.as_bytes();
        for ns in NAMESPACES {
            let mut start = 0;
            while let Some(pos) = line[start..].find(ns) {
                let at = start + pos;
                start = at + ns.len();
                // Standalone namespace word followed by '.'
                let before_ok = at == 0
                    || !(bytes[at - 1].is_ascii_alphanumeric()
                        || bytes[at - 1] == b'_'
                        || bytes[at - 1] == b'.');
                let after = &line[at + ns.len()..];
                if !before_ok || !after.starts_with('.') {
                    continue;
                }
                let name_len = after
                    .char_indices()
                    .take_while(|(_, c)| {
                        c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_' || *c == '.'
                    })
                    .map(|(i, c)| i + c.len_utf8())
                    .last()
                    .unwrap_or(0);
                let mut cand = &after[..name_len];
                // Trim trailing dots (sentence punctuation).
                while cand.ends_with('.') {
                    cand = &cand[..cand.len() - 1];
                }
                let full = format!("{ns}{cand}");
                if is_metric_name(&full) {
                    out.entry(full).or_insert(li + 1);
                }
            }
        }
    }
    out
}

/// Runs the provenance pass over a loaded workspace plus the `DESIGN.md`
/// text. `design_path` is used for findings anchored in the docs.
pub fn check(ws: &Workspace, design: &str, design_path: &str) -> ProvenanceReport {
    let mut report = ProvenanceReport::default();
    let mut regs: Vec<Registration> = Vec::new();
    // Names read by READ_TOKENS in non-test code → first (file, line).
    let mut read_names: BTreeMap<String, (String, usize)> = BTreeMap::new();
    // Literal namespace prefixes passed at `with_metrics` instantiation
    // sites (plus namespaces seen in literal registrations).
    let mut known_prefixes: BTreeSet<String> = BTreeSet::new();

    for (fi, file) in ws.files.iter().enumerate() {
        let krate = &ws.crates[fi];
        for (li, line) in file.lines.iter().enumerate() {
            if file.in_test[li] || line.strings.is_empty() {
                continue;
            }
            let is_row = is_table_row(&line.code);
            let is_reg = is_row || REG_TOKENS.iter().any(|t| line.code.contains(t));
            let is_read = READ_TOKENS.iter().any(|t| line.code.contains(t));
            if line.code.contains(".with_metrics(") {
                for s in &line.strings {
                    if NAMESPACES.contains(&s.as_str()) {
                        known_prefixes.insert(s.clone());
                    }
                }
            }
            for s in &line.strings {
                if is_metric_name(s) {
                    if is_reg {
                        known_prefixes.insert(s.split('.').next().unwrap_or("").to_owned());
                        regs.push(Registration {
                            name: s.clone(),
                            file: file.path.clone(),
                            line: li + 1,
                            krate: krate.clone(),
                            binding: (!is_row).then(|| binding_of(&line.code)).flatten(),
                            waived: file.waived(li, "metrics-provenance"),
                        });
                    } else if is_read {
                        read_names
                            .entry(s.clone())
                            .or_insert_with(|| (file.path.clone(), li + 1));
                    }
                } else if is_reg {
                    if let Some(suffix) = template_suffix(s) {
                        regs.push(Registration {
                            name: s.clone(),
                            file: file.path.clone(),
                            line: li + 1,
                            krate: krate.clone(),
                            binding: binding_of(&line.code),
                            waived: file.waived(li, "metrics-provenance"),
                        });
                        report.template_suffixes.insert(suffix.to_owned());
                    }
                }
            }
        }
    }
    for r in &regs {
        if template_suffix(&r.name).is_none() {
            report.registered.insert(r.name.clone());
        }
    }

    let documented = documented_names(design);
    report.documented = documented.keys().cloned().collect();

    let waive = |report: &mut ProvenanceReport, r: &Registration| {
        *report
            .waivers_used
            .entry(format!("metrics-provenance/{}", r.krate))
            .or_insert(0) += 1;
    };

    // Registered → documented.
    for r in &regs {
        let ok = if let Some(suffix) = template_suffix(&r.name) {
            documented
                .keys()
                .any(|d| d.ends_with(&format!(".{suffix}")))
        } else {
            documented.contains_key(&r.name)
        };
        if ok {
            continue;
        }
        if r.waived {
            waive(&mut report, r);
            continue;
        }
        report.findings.push(Finding::new(
            &r.file,
            r.line,
            "metrics-provenance",
            format!(
                "metric `{}` is registered here but not documented in DESIGN.md",
                r.name
            ),
        ));
    }

    // Documented → registered.
    for (name, line) in &documented {
        let (ns, rest) = name.split_once('.').unwrap_or((name.as_str(), ""));
        let ok = report.registered.contains(name)
            || (known_prefixes.contains(ns) && report.template_suffixes.contains(rest));
        if !ok {
            report.findings.push(Finding::new(
                design_path,
                *line,
                "metrics-provenance",
                format!("metric `{name}` is documented here but never registered"),
            ));
        }
    }

    // Read-by-name → registered.
    for (name, (file, line)) in &read_names {
        let (ns, rest) = name.split_once('.').unwrap_or((name.as_str(), ""));
        let ok = report.registered.contains(name)
            || (known_prefixes.contains(ns) && report.template_suffixes.contains(rest));
        if !ok {
            report.findings.push(Finding::new(
                file,
                *line,
                "metrics-provenance",
                format!("metric `{name}` is read here but never registered"),
            ));
        }
    }

    // Dead counters: the handle binding is never touched again and the name
    // is never read back.
    for r in &regs {
        let name_read = read_names.contains_key(&r.name)
            || template_suffix(&r.name).is_some_and(|suffix| {
                read_names
                    .keys()
                    .any(|n| n.ends_with(&format!(".{suffix}")))
            });
        if name_read {
            continue;
        }
        let Some(binding) = &r.binding else {
            // Registration feeding straight into an expression (e.g. a
            // constructor argument) is a use in itself.
            continue;
        };
        let used = ws.files.iter().any(|file| {
            file.lines.iter().enumerate().any(|(li, line)| {
                if file.in_test[li] {
                    return false;
                }
                if REG_TOKENS.iter().any(|t| line.code.contains(t)) {
                    return false;
                }
                let Some(at) = find_token(&line.code, binding) else {
                    return false;
                };
                // Method call on the handle (`x.inc()`), field access
                // through a stats struct (`stats.x` — including the
                // borrow-as-argument form `f(&stats.x)`), or wrapping the
                // handle in an expression all count as uses.
                line.code[at + binding.len()..].starts_with('.') || line.code[..at].ends_with('.')
            })
        });
        if used {
            continue;
        }
        if r.waived {
            waive(&mut report, r);
            continue;
        }
        report.findings.push(Finding::new(
            &r.file,
            r.line,
            "metrics-provenance",
            format!(
                "metric `{}` (binding `{binding}`) is registered here but never incremented or read — dead counter",
                r.name
            ),
        ));
    }

    // Snapshot visibility: registration implies render-visibility because
    // `Registry::render` iterates the registry, but only if something in the
    // live server actually renders. Require one non-test `.render(` in core.
    let rendered = ws.files.iter().enumerate().any(|(fi, file)| {
        ws.crates[fi] == "core"
            && file
                .lines
                .iter()
                .enumerate()
                .any(|(li, line)| !file.in_test[li] && line.code.contains(".render("))
    });
    if !rendered && ws.crates.iter().any(|c| c == "core") {
        report.findings.push(Finding::new(
            "crates/core",
            0,
            "metrics-provenance",
            "no non-test `render()` call in crate `core` — registered metrics are never snapshot-visible".to_owned(),
        ));
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;

    const DESIGN: &str = "\
## Metrics\n\
The server counts accepted connections in `live.accepted` and records\n\
store write latency in `mfs.write_ns`.\n";

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(files)
    }

    #[test]
    fn closed_loop_is_clean() {
        let src = r#"
fn setup(r: &Registry) {
    let accepted = r.counter("live.accepted");
    accepted.inc();
}
fn snapshot(r: &Registry) -> String {
    r.render()
}
"#;
        let design = "connections are counted in `live.accepted`.\n";
        let w = ws(&[("crates/core/src/live.rs", src)]);
        let rep = check(&w, design, "DESIGN.md");
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert!(rep.registered.contains("live.accepted"));
    }

    #[test]
    fn undocumented_registration_is_found() {
        let src = r#"
fn setup(r: &Registry) {
    let ghost = r.counter("live.ghost");
    ghost.inc();
}
"#;
        let w = ws(&[("crates/core/src/live.rs", src)]);
        let rep = check(&w, DESIGN, "DESIGN.md");
        assert!(rep
            .findings
            .iter()
            .any(|f| f.line == 3 && f.message.contains("not documented")));
    }

    #[test]
    fn documented_but_unregistered_is_found() {
        let design = "see `live.phantom` for details\n";
        let w = ws(&[("crates/core/src/live.rs", "fn f() {}\n")]);
        let rep = check(&w, design, "DESIGN.md");
        assert!(rep
            .findings
            .iter()
            .any(|f| f.file == "DESIGN.md" && f.message.contains("never registered")));
    }

    #[test]
    fn dead_counter_is_found() {
        let src = r#"
fn setup(r: &Registry) {
    let orphan = r.counter("live.accepted");
}
"#;
        let w = ws(&[("crates/core/src/live.rs", src)]);
        let rep = check(&w, DESIGN, "DESIGN.md");
        assert!(
            rep.findings
                .iter()
                .any(|f| f.line == 3 && f.message.contains("dead counter")),
            "{:?}",
            rep.findings
        );
    }

    #[test]
    fn struct_field_registration_used_via_field_access_is_live() {
        let src = r#"
struct Stats { accepted: Arc<Counter> }
fn setup(r: &Registry) -> Stats {
    Stats {
        accepted: r.counter("live.accepted"),
    }
}
fn bump(s: &Stats) {
    s.accepted.inc();
}
"#;
        let w = ws(&[("crates/core/src/live.rs", src)]);
        let rep = check(&w, DESIGN, "DESIGN.md");
        assert!(
            !rep.findings.iter().any(|f| f.message.contains("dead")),
            "{:?}",
            rep.findings
        );
    }

    #[test]
    fn template_registration_matches_documented_suffix() {
        let store = r#"
fn with_metrics(r: &Registry, prefix: &str) {
    let write_ns = r.span(&format!("{prefix}.write_ns"));
    write_ns.record(1);
}
"#;
        let caller = r#"
fn serve(r: &Registry) {
    store().with_metrics(r, "mfs");
}
fn snapshot(r: &Registry) -> String {
    r.render()
}
"#;
        let design = "store write latency is recorded in `mfs.write_ns`.\n";
        let w = ws(&[
            ("crates/mfs/src/mfs_store.rs", store),
            ("crates/core/src/live.rs", caller),
        ]);
        let rep = check(&w, design, "DESIGN.md");
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert!(rep.template_suffixes.contains("write_ns"));
    }

    #[test]
    fn instrument_table_rows_are_registrations() {
        let src = r#"
instruments! {
    pub struct LiveStats / LiveSnapshot {
        accepted: counter "live.accepted" "Connections accepted.",
        delivered: counter "live.delivered" terminal "Connections that delivered mail.",
    }
    pub(crate) struct AgentMetrics {
        lookup_ns: span "dnsbl.agent_ns" "Agent latency.",
    }
}
fn snapshot(r: &Registry) -> String {
    r.render()
}
"#;
        let design = "`live.accepted`, `dnsbl.agent_ns` and `live.stale` are documented.\n";
        let w = ws(&[("crates/core/src/instruments.rs", src)]);
        let rep = check(&w, design, "DESIGN.md");
        let messages: Vec<&str> = rep.findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(messages.len(), 2, "{messages:?}");
        assert!(messages[0].contains("`live.stale` is documented here but never registered"));
        assert!(messages[1].contains("`live.delivered` is registered here but not documented"));
    }

    #[test]
    fn read_of_unregistered_name_is_found() {
        let src = r#"
fn peek(r: &Registry) -> Option<u64> {
    r.counter_value("live.typo")
}
"#;
        let w = ws(&[("crates/core/src/live.rs", src)]);
        let rep = check(&w, DESIGN, "DESIGN.md");
        assert!(rep.findings.iter().any(|f| f
            .message
            .contains("`live.typo` is read here but never registered")));
    }

    #[test]
    fn waived_registration_counts_against_the_budget() {
        let src = r#"
fn setup(r: &Registry) {
    let x = r.counter("live.secret"); // lint:allow(metrics-provenance)
    x.inc();
}
"#;
        let w = ws(&[("crates/core/src/live.rs", src)]);
        let rep = check(&w, DESIGN, "DESIGN.md");
        assert!(!rep
            .findings
            .iter()
            .any(|f| f.message.contains("live.secret")));
        assert_eq!(rep.waivers_used.get("metrics-provenance/core"), Some(&1));
    }

    #[test]
    fn test_code_is_ignored() {
        let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let r = Registry::new();
        let x = r.counter("live.test_only");
        assert_eq!(r.counter_value("live.never_registered"), None);
    }
}
"#;
        let w = ws(&[("crates/core/src/live.rs", src)]);
        let rep = check(&w, DESIGN, "DESIGN.md");
        assert!(
            !rep.findings
                .iter()
                .any(|f| f.message.contains("test_only") || f.message.contains("never_registered")),
            "{:?}",
            rep.findings
        );
    }

    #[test]
    fn file_names_in_prose_are_not_metrics() {
        let design = "implemented in `live.rs`, counted by `live.accepted`\n";
        let names = documented_names(design);
        assert!(names.contains_key("live.accepted"));
        assert!(!names.keys().any(|n| n.ends_with(".rs")));
    }
}
