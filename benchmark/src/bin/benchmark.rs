//! Load generator, layer probes and `compare`, behind one command line.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one contract run
//! benchmark [--seed N] [--runs R] [--smoke]                 the whole suite
//! benchmark layers [--seed N]                               the shared layer probes only
//! benchmark compare A.json B.json                           judge B against A
//! ```
//!
//! Run from the root of the checkout (`run.sh` does): the spool, traces
//! and `result.json` go under `benchmark/out/`, bounds come from
//! `./BENCHMARK.json`, and `bench_server` is the sibling executable.

use spamaware_benchmark::alloc_count::CountingAlloc;
use spamaware_benchmark::compare::{self, BenchmarkSpec, ResultFile};
use spamaware_benchmark::run::{Metric, Plan};
use spamaware_benchmark::script::{Bodies, Workload};
use spamaware_benchmark::suite::{self, SuiteOpts};
use spamaware_benchmark::{harness, layers};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// Only this binary counts allocations; `bench_server` keeps the system
// allocator it would run with anywhere else.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const OUT_DIR: &str = "benchmark/out";
const SPEC_PATH: &str = "BENCHMARK.json";

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      benchmark [--seed <n>] [--runs <r>] [--smoke]\n\
         \x20      benchmark layers [--seed <n>]\n\
         \x20      benchmark compare <A.json> <B.json>"
    );
    ExitCode::from(2)
}

/// `--name value` pairs and bare flags of the command line.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} wants a whole number, got {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn server_exe() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let sibling = exe.with_file_name("bench_server");
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found; build both binaries (run.sh does)",
                sibling.display()
            ),
        ))
    }
}

/// The one line a contract run ends with.
#[derive(serde::Serialize)]
struct ContractLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ContractValue>,
}

#[derive(serde::Serialize)]
struct ContractValue {
    value: f64,
    unit: String,
}

fn print_metrics(scope: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{scope} {} {} {}", m.name, m.unit, m.value);
    }
}

fn contract(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.value("--workload").unwrap_or_default();
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = flags.number("--seed", 1)?;
    let seconds = flags.number("--seconds", 0)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds wants 1 to 60".to_owned());
    }
    let traced = match flags.value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace wants 0 or 1, got {v:?}")),
    };
    let exe = server_exe().map_err(|e| e.to_string())?;
    let plan = Plan::contract(workload, seed, seconds, traced, exe, PathBuf::from(OUT_DIR));
    let report = suite::run_with_probes(&plan, true).map_err(|e| format!("{name}: {e}"))?;
    println!("# {}", compare::LIMITS);
    print_metrics(name, &report.context);
    print_metrics(name, &report.metrics);
    for note in &report.notes {
        eprintln!("{name} FAILED {note}");
    }
    let line = ContractLine {
        correct: report.correct(),
        attempted: report.attempted.max(1),
        failed: report.failed,
        metrics: report
            .metrics
            .into_iter()
            .map(|m| {
                (
                    m.name,
                    ContractValue {
                        value: m.value,
                        unit: m.unit,
                    },
                )
            })
            .collect(),
    };
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

fn run_suite(flags: &Flags) -> Result<ExitCode, String> {
    let spec: BenchmarkSpec =
        compare::read_json(Path::new(SPEC_PATH)).map_err(|e| e.to_string())?;
    let opts = SuiteOpts {
        seed: flags.number("--seed", 1)?,
        runs: flags.number("--runs", 1)?,
        seconds: spec.run_seconds,
        smoke: flags.has("--smoke"),
        server_exe: server_exe().map_err(|e| e.to_string())?,
        out_dir: PathBuf::from(OUT_DIR),
        commit: harness::commit(Path::new(".")),
    };
    println!("# {}", compare::LIMITS);
    let (result, all_correct) =
        suite::run_suite(&opts, |line| println!("{line}")).map_err(|e| e.to_string())?;
    let path = opts.out_dir.join("result.json");
    let text = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# {:?}", result.fingerprint);
    println!("# wrote {}", path.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("verification failed; see the FAILED lines above");
        Ok(ExitCode::FAILURE)
    }
}

fn run_layers(flags: &Flags) -> Result<ExitCode, String> {
    let bodies = Bodies::generate(flags.number("--seed", 1)?);
    let metrics = layers::probe_shared(&bodies, Path::new(OUT_DIR)).map_err(|e| e.to_string())?;
    print_metrics("layers", &metrics);
    Ok(ExitCode::SUCCESS)
}

fn run_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare wants two result files".to_owned());
    };
    let spec: BenchmarkSpec =
        compare::read_json(Path::new(SPEC_PATH)).map_err(|e| e.to_string())?;
    let a: ResultFile = compare::read_json(Path::new(a)).map_err(|e| e.to_string())?;
    let b: ResultFile = compare::read_json(Path::new(b)).map_err(|e| e.to_string())?;
    let outcome = compare::compare(&spec, &a, &b)?;
    print!("{}", outcome.text);
    Ok(if outcome.worse + outcome.count_mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("layers") => run_layers(&Flags(args[1..].to_vec())),
        Some("-h" | "--help" | "help") => return usage(),
        _ => {
            let flags = Flags(args);
            if flags.has("--workload") {
                contract(&flags)
            } else {
                run_suite(&flags)
            }
        }
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
