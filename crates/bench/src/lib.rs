#![deny(clippy::iter_over_hash_type)] // DESIGN.md §9
//! The experiment table behind the `figures` binary.
//!
//! Every row of [`TABLE`] regenerates one of the paper's tables or
//! figures (or one ablation) by calling `spamaware_core::experiment` and
//! printing the result in the paper's format. The one binary walks the
//! table:
//!
//! ```text
//! figures <name> [--full | --scale F --seconds N] [--json PATH]
//! figures record <dir>     # write results/: every row, then full_key.txt
//! figures check <dir>      # regenerate in memory, name every file that differs
//! ```
//!
//! A row runs at a reduced scale that finishes in seconds unless told
//! otherwise; `--full` is paper size. Output is a function of the flags
//! alone, which is what lets `check` hold `results/` to what the code
//! prints, byte for byte.

pub mod cli;
mod experiments;

use spamaware_core::experiment::Scale;
use std::io::{self, Write};
use std::path::Path;

/// Prints one experiment's report to the writer; with a path (only ever
/// passed to a row that [`has_json`](Experiment::has_json)), also writes
/// the row's JSON artifact there.
pub type Run = fn(&mut dyn Write, Scale, Option<&Path>) -> io::Result<()>;

/// One experiment: what `figures <name>` runs.
pub struct Experiment {
    /// Subcommand, and stem of the row's file under `results/`.
    pub name: &'static str,
    /// The printing code.
    pub run: Run,
    /// Whether the row accepts `--json`.
    pub has_json: bool,
    /// Whether the row's paper-scale run is a section of
    /// `results/full_key.txt`.
    pub full_key: bool,
}

impl Experiment {
    const fn new(name: &'static str, run: Run) -> Experiment {
        Experiment {
            name,
            run,
            has_json: false,
            full_key: false,
        }
    }

    const fn json(mut self) -> Experiment {
        self.has_json = true;
        self
    }

    const fn full_key(mut self) -> Experiment {
        self.full_key = true;
        self
    }
}

/// Every experiment, in the paper's order, ablations last. DESIGN.md §4
/// lists the same rows (a test holds the two together).
pub const TABLE: [Experiment; 21] = [
    Experiment::new("table1", experiments::table1),
    Experiment::new("fig01", experiments::fig01),
    Experiment::new("fig03", experiments::fig03),
    Experiment::new("fig04", experiments::fig04),
    Experiment::new("fig05", experiments::fig05),
    Experiment::new("fig08", experiments::fig08)
        .json()
        .full_key(),
    Experiment::new("fig10", experiments::fig10),
    Experiment::new("fig11", experiments::fig11),
    Experiment::new("fig12", experiments::fig12),
    Experiment::new("fig13", experiments::fig13),
    Experiment::new("fig14", experiments::fig14),
    Experiment::new("fig15", experiments::fig15)
        .json()
        .full_key(),
    Experiment::new("mfs_sinkhole", experiments::mfs_sinkhole).full_key(),
    Experiment::new("combined", experiments::combined)
        .json()
        .full_key(),
    Experiment::new("generality_qmail", experiments::generality_qmail),
    Experiment::new("ablation_batching", experiments::ablation_batching),
    Experiment::new("ablation_cache_size", experiments::ablation_cache_size).json(),
    Experiment::new(
        "ablation_mfs_threshold",
        experiments::ablation_mfs_threshold,
    ),
    Experiment::new("ablation_prefix_width", experiments::ablation_prefix_width),
    Experiment::new("ablation_trust_point", experiments::ablation_trust_point),
    Experiment::new("ablation_ttl", experiments::ablation_ttl).json(),
];

/// Writes a serializable result to `path` as pretty JSON.
fn write_json<T: serde::Serialize>(out: &mut dyn Write, path: &Path, value: &T) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    serde_json::to_writer_pretty(&mut file, value).map_err(io::Error::other)?;
    file.flush()?;
    writeln!(out, "(wrote {})", path.display())
}

/// Writes a metrics registry's deterministic text report next to a
/// `--json` artifact, with the extension swapped to `.metrics`.
fn write_metrics_sidecar(
    out: &mut dyn Write,
    json_path: &Path,
    registry: &spamaware_metrics::Registry,
) -> io::Result<()> {
    let path = json_path.with_extension("metrics");
    std::fs::write(&path, registry.render())?;
    writeln!(out, "(wrote {})", path.display())
}

/// A deterministic registry for the experiments: time is a
/// [`spamaware_metrics::ManualClock`] pinned at zero, so snapshots depend
/// only on what the instrumented code records (simulated latencies,
/// counters), never on the host.
fn experiment_registry() -> spamaware_metrics::Registry {
    spamaware_metrics::Registry::new(std::sync::Arc::new(spamaware_metrics::ManualClock::new()))
}

/// Prints a figure banner.
fn banner(out: &mut dyn Write, id: &str, caption: &str, scale: Scale) -> io::Result<()> {
    writeln!(out, "=== {id}: {caption}")?;
    writeln!(
        out,
        "    (scale: {:.0}% trace, {} sim-seconds per point; --full for paper size)",
        scale.trace * 100.0,
        scale.seconds
    )?;
    writeln!(out)
}

/// Down-samples a CDF to at most `n` evenly spaced points for printing.
fn thin_cdf<P: Copy + PartialEq>(cdf: &[P], n: usize) -> Vec<P> {
    if cdf.len() <= n || n == 0 {
        return cdf.to_vec();
    }
    let step = cdf.len() as f64 / n as f64;
    let mut out: Vec<P> = (0..n).map(|i| cdf[(i as f64 * step) as usize]).collect();
    if let Some(last) = cdf.last() {
        if out.last() != Some(last) {
            out.push(*last);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(path: &str) -> String {
        let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The full-scale comparison against `results/` is `figures check`
    /// (release, `scripts/check.sh`); this only shows that every row
    /// runs, reports, and is a function of its arguments.
    #[test]
    fn every_row_prints_the_same_report_twice() {
        let tiny = Scale {
            trace: 0.005,
            seconds: 1,
        };
        for e in &TABLE {
            let print = || {
                let mut text = Vec::new();
                (e.run)(&mut text, tiny, None).expect("write to a Vec");
                text
            };
            let first = print();
            assert!(first.starts_with(b"=== "), "{}: no banner", e.name);
            assert!(first.len() > 100, "{}: empty report", e.name);
            assert!(first == print(), "{}: two runs differ", e.name);
        }
    }

    #[test]
    fn row_names_are_unique_and_each_is_recorded() {
        for (i, e) in TABLE.iter().enumerate() {
            assert!(
                TABLE[..i].iter().all(|earlier| earlier.name != e.name),
                "{} twice",
                e.name
            );
            assert!(!repo_file(&format!("results/{}.txt", e.name)).is_empty());
        }
    }

    #[test]
    fn full_key_txt_has_one_section_per_full_key_row() {
        let recorded = repo_file("results/full_key.txt");
        let sections: Vec<&str> = recorded
            .lines()
            .filter_map(|line| line.strip_prefix("=== ")?.strip_suffix(" full ==="))
            .collect();
        let rows: Vec<&str> = TABLE
            .iter()
            .filter(|e| e.full_key)
            .map(|e| e.name)
            .collect();
        assert_eq!(sections, rows);
    }

    /// DESIGN.md §4's last column names the row that regenerates each
    /// paper item: every name there is a row, and every row is there.
    #[test]
    fn design_md_indexes_exactly_the_rows_of_the_table() {
        let design = repo_file("DESIGN.md");
        let mut indexed: Vec<&str> = design
            .lines()
            .skip_while(|line| !line.starts_with("| Id | Paper content |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .filter_map(|line| {
                let cell = line.trim_end_matches('|').rsplit('|').next()?.trim();
                cell.strip_prefix("`figures ")?.strip_suffix('`')
            })
            .collect();
        let mut rows: Vec<&str> = TABLE.iter().map(|e| e.name).collect();
        indexed.sort_unstable();
        rows.sort_unstable();
        assert_eq!(indexed, rows);
    }

    #[test]
    fn thin_cdf_keeps_endpoints() {
        let cdf: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64 / 99.0)).collect();
        let t = thin_cdf(&cdf, 10);
        assert!(t.len() <= 11);
        assert_eq!(*t.last().unwrap(), *cdf.last().unwrap());
    }

    #[test]
    fn thin_cdf_short_input_passthrough() {
        let cdf = vec![(1.0, 0.5), (2.0, 1.0)];
        assert_eq!(thin_cdf(&cdf, 10), cdf);
    }
}
