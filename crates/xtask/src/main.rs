//! CLI for the workspace static analysis.
//!
//! ```text
//! cargo run -p spamaware-xtask -- lint
//! ```
//!
//! The process exits non-zero if the lint produced findings.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match parse_args(&args) {
        Ok(root) => resolve_root(root),
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("usage: spamaware-xtask lint [--root <workspace-root>]");
            return ExitCode::from(2);
        }
    };
    run(&root)
}

/// The `--root` override, if any; `Err` (what to say before the usage
/// line) unless the arguments name `lint` and nothing unknown.
fn parse_args(args: &[String]) -> Result<Option<PathBuf>, String> {
    let mut lint = false;
    let mut root = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = Some(
                    it.next()
                        .map(PathBuf::from)
                        .ok_or_else(|| "--root needs a path".to_owned())?,
                );
            }
            "lint" => lint = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if lint {
        Ok(root)
    } else {
        Err("no command given".to_owned())
    }
}

/// `--root` if given, else the workspace root containing this crate (via
/// `CARGO_MANIFEST_DIR`), else the current directory.
fn resolve_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(root) = explicit {
        return root;
    }
    if let Some(manifest) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let manifest = PathBuf::from(manifest);
        if let Some(root) = manifest.parent().and_then(|p| p.parent()) {
            return root.to_owned();
        }
    }
    PathBuf::from(".")
}

fn run(root: &std::path::Path) -> ExitCode {
    let report = match spamaware_xtask::lint_workspace(root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lint error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("lint: {} files scanned", report.files_scanned);
    for finding in &report.findings {
        println!("{finding}");
    }
    if report.findings.is_empty() {
        let waived: usize = report.waivers_used.values().sum();
        println!("analysis clean: 1 pass(es), {waived} budgeted waivers in use");
        ExitCode::SUCCESS
    } else {
        eprintln!("analysis failed: {} finding(s)", report.findings.len());
        ExitCode::FAILURE
    }
}
