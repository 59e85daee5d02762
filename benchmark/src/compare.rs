//! The result file `run.sh` writes, the `BENCHMARK.json` it is judged by,
//! and `benchmark compare A.json B.json`.

use crate::harness::Fingerprint;
use crate::run::Metric;
use crate::stats::{iqr_share, median};
use serde::{Deserialize, Serialize};
use std::fmt::Write;
use std::io;
use std::path::Path;

/// One end-to-end metric across the runs of a result file, one value per
/// seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// One value per run, in seed order.
    pub values: Vec<f64>,
}

/// Everything measured on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Sessions attempted over all runs.
    pub attempted: u64,
    /// Failed sessions and failed verification checks over all runs.
    pub failed: u64,
    /// End-to-end metrics from the untraced runs.
    pub end_to_end: Vec<Series>,
    /// `client.*`, `live.*`, `pop3.*`, `trace.*`, `smtp.*`, `linebuf.*`
    /// lines from the traced run.
    pub per_layer: Vec<Metric>,
}

/// What `run.sh` writes to `benchmark/out/result.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// Host and load shape; `compare` refuses to cross these.
    pub fingerprint: Fingerprint,
    /// Commit measured.
    pub commit: String,
    /// Seeds run on every workload.
    pub seeds: Vec<u64>,
    /// What the numbers are not: stated with every result.
    pub limits: String,
    /// One entry per workload.
    pub workloads: Vec<WorkloadResult>,
    /// Layer probes that do not depend on the workload.
    pub layers: Vec<Metric>,
}

/// The limits every result carries.
pub const LIMITS: &str = "loopback TCP, not a real link; acks come out of the page cache \
(flush policy: none); the server runs on half of the host's CPUs, the generator on the rest; \
sessions_s, session_us_p50, cpu_us_per_session and setup_s are brought to a nominal host \
(null server: 4000 sessions/s, 450 us median session, 150 us CPU per session), \
the raw.* lines are as the clock read them";

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// One `per_layer` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// One `workloads` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadEntry {
    /// Workload name.
    pub name: String,
    /// Why it exists, in one line.
    pub why: String,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadEntry>,
    /// Gated metrics.
    pub end_to_end: Vec<Gate>,
    /// Attribution metrics.
    pub per_layer: Vec<Layer>,
}

/// Reads a JSON file into `T`.
pub fn read_json<T: for<'de> Deserialize<'de>>(path: &Path) -> io::Result<T> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    serde_json::from_str(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// How B stands against A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// The run-to-run spread recorded in either file exceeds the bound,
    /// so the bound cannot be applied.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One judged row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Median of A.
    pub a: f64,
    /// Median of B.
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worsening: f64,
    /// The wider of the two files' interquartile spreads, as a share of
    /// the median; `None` below two runs per file.
    pub spread: Option<f64>,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges B against A under `gate`.
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> Row {
    let (ma, mb) = (median(a), median(b));
    let base = if ma == 0.0 { 1.0 } else { ma.abs() };
    let worsening = if gate.better == "higher" {
        (ma - mb) / base
    } else {
        (mb - ma) / base
    };
    let spread = match (iqr_share(a), iqr_share(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let verdict = if spread.is_some_and(|s| s > gate.bound) {
        Verdict::Unresolved
    } else if worsening > gate.bound {
        Verdict::Worse
    } else if worsening < -gate.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        a: ma,
        b: mb,
        worsening,
        spread,
        verdict,
    }
}

/// Counts that must repeat exactly between two runs of one commit.
pub fn is_exact_count(name: &str) -> bool {
    name.contains(".allocs_")
        || name.starts_with("mfs.backend_ops_")
        || name.starts_with("dnsbl.query_fraction_")
        || name == "mfs.bytes_written_per_body_byte7"
}

/// The outcome of comparing two result files.
#[derive(Debug, Default)]
pub struct Comparison {
    /// The printable table.
    pub text: String,
    /// Rows judged worse.
    pub worse: usize,
    /// Rows left unresolved.
    pub unresolved: usize,
    /// Exact counts that differ.
    pub count_mismatches: usize,
}

/// Compares B against A row by row. Refuses (with `Err`) when the
/// fingerprints or seeds differ: numbers from different hosts, kernels,
/// filesystems, window lengths or connection counts are not comparable.
pub fn compare(spec: &BenchmarkSpec, a: &ResultFile, b: &ResultFile) -> Result<Comparison, String> {
    if a.fingerprint != b.fingerprint {
        return Err(format!(
            "fingerprints differ, refusing to compare:\n  A: {:?}\n  B: {:?}",
            a.fingerprint, b.fingerprint
        ));
    }
    if a.seeds != b.seeds {
        return Err(format!(
            "seeds differ: A ran {:?}, B ran {:?}",
            a.seeds, b.seeds
        ));
    }
    let mut out = Comparison::default();
    let _ = writeln!(
        out.text,
        "A: commit {}   B: commit {}   seeds {:?}",
        a.commit, b.commit, a.seeds
    );
    let _ = writeln!(
        out.text,
        "{:<17} {:<31} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "spread%", "bound%"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            return Err(format!("workload {} is missing from B", wa.name));
        };
        for gate in &spec.end_to_end {
            let find =
                |w: &WorkloadResult| w.end_to_end.iter().find(|s| s.name == gate.name).cloned();
            let (Some(sa), Some(sb)) = (find(wa), find(wb)) else {
                return Err(format!("{}: metric {} is missing", wa.name, gate.name));
            };
            let row = judge(gate, &sa.values, &sb.values);
            match row.verdict {
                Verdict::Worse => out.worse += 1,
                Verdict::Unresolved => out.unresolved += 1,
                _ => {}
            }
            let _ = writeln!(
                out.text,
                "{:<17} {:<31} {:>12.4} {:>12.4} {:>+8.2} {:>8} {:>6.1}  {}",
                wa.name,
                gate.name,
                row.a,
                row.b,
                row.worsening * 100.0,
                row.spread
                    .map_or_else(|| "-".to_owned(), |s| format!("{:.2}", s * 100.0)),
                gate.bound * 100.0,
                row.verdict.word(),
            );
        }
        if wa.failed + wb.failed > 0 {
            out.worse += 1;
            let _ = writeln!(
                out.text,
                "{:<17} failed operations: A {} B {}",
                wa.name, wa.failed, wb.failed
            );
        }
    }
    let exact = |layers: &[Metric], scope: &str, others: &[Metric], out: &mut Comparison| {
        for m in layers.iter().filter(|m| is_exact_count(&m.name)) {
            let other = others.iter().find(|o| o.name == m.name).map(|o| o.value);
            if other != Some(m.value) {
                out.count_mismatches += 1;
                let _ = writeln!(
                    out.text,
                    "{scope:<17} {:<31} {:>12} {:>12}  exact count differs",
                    m.name,
                    m.value,
                    other.map_or_else(|| "absent".to_owned(), |v| v.to_string()),
                );
            }
        }
    };
    exact(&a.layers, "layers", &b.layers, &mut out);
    for wa in &a.workloads {
        if let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) {
            exact(&wa.per_layer, &wa.name, &wb.per_layer, &mut out);
        }
    }
    let _ = writeln!(
        out.text,
        "{} worse, {} unresolved, {} exact counts differ",
        out.worse, out.unresolved, out.count_mismatches
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(better: &str, bound: f64) -> Gate {
        Gate {
            name: "m".to_owned(),
            unit: "u".to_owned(),
            better: better.to_owned(),
            bound,
        }
    }

    #[test]
    fn judge_applies_direction_and_bound() {
        let lower = gate("lower", 0.10);
        assert_eq!(judge(&lower, &[100.0], &[105.0]).verdict, Verdict::Same);
        assert_eq!(judge(&lower, &[100.0], &[111.0]).verdict, Verdict::Worse);
        assert_eq!(judge(&lower, &[100.0], &[89.0]).verdict, Verdict::Better);
        let higher = gate("higher", 0.10);
        assert_eq!(judge(&higher, &[100.0], &[89.0]).verdict, Verdict::Worse);
        assert_eq!(judge(&higher, &[100.0], &[111.0]).verdict, Verdict::Better);
        let row = judge(&higher, &[100.0], &[95.0]);
        assert_eq!(row.verdict, Verdict::Same);
        assert!((row.worsening - 0.05).abs() < 1e-12);
        assert_eq!(row.spread, None);
    }

    #[test]
    fn judge_is_unresolved_when_spread_exceeds_bound() {
        let g = gate("lower", 0.05);
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let noisy = [100.0, 130.0, 80.0, 115.0, 90.0];
        assert_eq!(judge(&g, &steady, &steady).verdict, Verdict::Same);
        assert_eq!(judge(&g, &steady, &noisy).verdict, Verdict::Unresolved);
        assert_eq!(judge(&g, &noisy, &steady).verdict, Verdict::Unresolved);
    }

    fn file(sessions: &[f64], allocs: f64) -> ResultFile {
        ResultFile {
            fingerprint: Fingerprint {
                nproc: 2,
                kernel: "k".to_owned(),
                spool_fs: "ext4".to_owned(),
                server_cpus: 1,
                connections: 2,
                window_s: 20,
                segments: 5,
                slices: 10,
            },
            commit: "c".to_owned(),
            seeds: vec![1, 2, 3],
            limits: LIMITS.to_owned(),
            workloads: vec![WorkloadResult {
                name: "ham_small".to_owned(),
                attempted: 10,
                failed: 0,
                end_to_end: vec![Series {
                    name: "sessions_s".to_owned(),
                    unit: "1/s".to_owned(),
                    values: sessions.to_vec(),
                }],
                per_layer: vec![Metric::new("smtp.allocs_per_session", "count", allocs)],
            }],
            layers: vec![Metric::new("mfs.backend_ops_per_deliver1", "count", 2.0)],
        }
    }

    fn spec() -> BenchmarkSpec {
        BenchmarkSpec {
            run_seconds: 24,
            workloads: vec![],
            end_to_end: vec![Gate {
                name: "sessions_s".to_owned(),
                unit: "1/s".to_owned(),
                better: "higher".to_owned(),
                bound: 0.10,
            }],
            per_layer: vec![],
        }
    }

    #[test]
    fn compare_judges_rows_counts_and_fingerprints() {
        let a = file(&[5000.0, 5050.0, 4980.0], 31.0);
        let same = compare(&spec(), &a, &file(&[4990.0, 5020.0, 5010.0], 31.0)).unwrap();
        assert_eq!(
            (same.worse, same.unresolved, same.count_mismatches),
            (0, 0, 0)
        );
        let slower = compare(&spec(), &a, &file(&[4000.0, 4050.0, 4020.0], 33.0)).unwrap();
        assert_eq!((slower.worse, slower.count_mismatches), (1, 1));
        assert!(slower.text.contains("worse") && slower.text.contains("exact count differs"));

        let mut other_host = file(&[5000.0], 31.0);
        other_host.seeds = a.seeds.clone();
        other_host.fingerprint.nproc = 8;
        assert!(compare(&spec(), &a, &other_host)
            .unwrap_err()
            .contains("fingerprints differ"));
        let mut other_seeds = a.clone();
        other_seeds.seeds = vec![4];
        assert!(compare(&spec(), &a, &other_seeds)
            .unwrap_err()
            .contains("seeds differ"));
    }

    #[test]
    fn result_file_round_trips_through_json() {
        let a = file(&[5000.25, 5050.5], 31.0);
        let text = serde_json::to_string_pretty(&a).unwrap();
        let back: ResultFile = serde_json::from_str(&text).unwrap();
        assert_eq!(a, back);
    }
}
