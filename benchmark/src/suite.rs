//! The two ways the benchmark is run: one contract run
//! (`--workload … --seed … --seconds … --trace …`) and the whole suite
//! `run.sh` runs by default.

use crate::compare::{ResultFile, Series, WorkloadResult, LIMITS};
use crate::harness::Fingerprint;
use crate::layers;
use crate::run::{self, Plan, Report};
use crate::script::{Bodies, Script, Sizing, Workload};
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// Client spans must account for at least this share of session time, or
/// the traced run fails: a budget that does not sum to the whole
/// attributes nothing.
pub const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Runs `plan` and, on a traced plan, holds the span budget to
/// [`MIN_SPAN_COVERAGE`] and appends the layer probes: always the
/// workload's own, and with `shared_probes` the workload-independent
/// ones too (a contract run prints everything; the suite runs those once).
pub fn run_with_probes(plan: &Plan, shared_probes: bool) -> io::Result<Report> {
    let mut report = run::run(plan)?;
    if plan.traced_window.is_none() {
        return Ok(report);
    }
    let coverage = report
        .metrics
        .iter()
        .find(|m| m.name == "client.span_coverage")
        .map_or(0.0, |m| m.value);
    if coverage < MIN_SPAN_COVERAGE {
        report.failed += 1;
        report.notes.push(format!(
            "client spans cover {coverage:.3} of session time, below {MIN_SPAN_COVERAGE}"
        ));
    }
    let script = Script::generate(plan.workload, plan.seed, plan.sizing);
    let bodies = Bodies::generate(plan.seed);
    report
        .metrics
        .extend(layers::probe_workload(&script, &bodies));
    if shared_probes {
        report
            .metrics
            .extend(layers::probe_shared(&bodies, &plan.out_dir)?);
    }
    Ok(report)
}

/// What the suite needs to know.
#[derive(Debug, Clone)]
pub struct SuiteOpts {
    /// First seed.
    pub seed: u64,
    /// Untraced runs per workload, on seeds `seed..seed + runs`. One is
    /// a measurement; ten give `compare` a spread to judge by.
    pub runs: u64,
    /// Seconds per window (`run_seconds` of `BENCHMARK.json`).
    pub seconds: u64,
    /// Test sizes and sub-second windows: boots the real pair and runs
    /// every workload and the verifier, measures nothing worth keeping.
    pub smoke: bool,
    /// The `bench_server` binary.
    pub server_exe: PathBuf,
    /// Where spools, traces and the result go.
    pub out_dir: PathBuf,
    /// Commit label for the result file.
    pub commit: String,
}

impl SuiteOpts {
    fn plan(&self, workload: Workload, seed: u64, traced: bool) -> Plan {
        let mut plan = Plan::contract(
            workload,
            seed,
            self.seconds,
            traced,
            self.server_exe.clone(),
            self.out_dir.clone(),
        );
        if self.smoke {
            plan.sizing = Sizing::smoke();
            plan.segments = if traced { 1 } else { 2 };
            plan.setups = 1;
            plan.warmup = Duration::from_millis(200);
            plan.window = Duration::from_millis(if traced { 400 } else { 300 });
            plan.traced_window = traced.then(|| Duration::from_millis(600));
            plan.reference = Duration::from_millis(100);
        }
        plan
    }
}

/// Runs every workload — `runs` untraced runs and one traced run each —
/// then (except in smoke mode) the shared layer probes, calling `progress` with each finished
/// `workload name unit value` line. The `bool` is whether every run was
/// correct.
pub fn run_suite(
    opts: &SuiteOpts,
    mut progress: impl FnMut(&str),
) -> io::Result<(ResultFile, bool)> {
    let mut result = ResultFile {
        fingerprint: Fingerprint::of_host(&opts.out_dir, opts.seconds),
        commit: opts.commit.clone(),
        seeds: (opts.seed..opts.seed + opts.runs.max(1)).collect(),
        limits: LIMITS.to_owned(),
        workloads: Vec::new(),
        layers: Vec::new(),
    };
    let mut all_correct = true;
    let note = |workload: Workload, report: &Report, progress: &mut dyn FnMut(&str)| {
        for line in &report.notes {
            progress(&format!("{} FAILED {line}", workload.name()));
        }
    };
    for workload in Workload::ALL {
        let mut entry = WorkloadResult {
            name: workload.name().to_owned(),
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        for &seed in &result.seeds {
            let report = run_with_probes(&opts.plan(workload, seed, false), false)?;
            entry.attempted += report.attempted;
            entry.failed += report.failed;
            note(workload, &report, &mut progress);
            for m in &report.context {
                progress(&format!(
                    "{} {} {} {}",
                    workload.name(),
                    m.name,
                    m.unit,
                    m.value
                ));
            }
            for m in report.metrics {
                progress(&format!(
                    "{} {} {} {}",
                    workload.name(),
                    m.name,
                    m.unit,
                    m.value
                ));
                match entry.end_to_end.iter_mut().find(|s| s.name == m.name) {
                    Some(series) => series.values.push(m.value),
                    None => entry.end_to_end.push(Series {
                        name: m.name,
                        unit: m.unit,
                        values: vec![m.value],
                    }),
                }
            }
        }
        let report = run_with_probes(&opts.plan(workload, opts.seed, true), false)?;
        entry.attempted += report.attempted;
        entry.failed += report.failed;
        note(workload, &report, &mut progress);
        for m in &report.metrics {
            progress(&format!(
                "{} {} {} {}",
                workload.name(),
                m.name,
                m.unit,
                m.value
            ));
        }
        entry.per_layer = report.metrics;
        all_correct &= entry.failed == 0;
        result.workloads.push(entry);
    }
    if !opts.smoke {
        result.layers = layers::probe_shared(&Bodies::generate(opts.seed), &opts.out_dir)?;
    }
    for m in &result.layers {
        progress(&format!("layers {} {} {}", m.name, m.unit, m.value));
    }
    Ok((result, all_correct))
}
