//! The one argument parser of the `figures` binary, and the `record` /
//! `check` pair that walks [`TABLE`].

use crate::experiment::Scale;
use crate::{Experiment, TABLE};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The scale `results/<name>.txt` is recorded at; `results/full_key.txt`
/// is the `full_key` rows at [`Scale::full`].
const RECORDED: Scale = Scale {
    trace: 0.25,
    seconds: 120,
};

/// What a run without scale flags uses: finishes in seconds.
const DEFAULT: Scale = Scale {
    trace: 0.1,
    seconds: 60,
};

enum Command {
    Run {
        experiment: &'static Experiment,
        scale: Scale,
    },
    Record(PathBuf),
    Check(PathBuf),
}

fn usage(err: &mut dyn Write) -> io::Result<()> {
    let names: Vec<&str> = TABLE.iter().map(|e| e.name).collect();
    writeln!(
        err,
        "usage: figures <name> [--full | [--scale F] [--seconds N]]\n\
         \x20      figures record <dir>   write <dir>/<name>.txt for every name, and full_key.txt\n\
         \x20      figures check <dir>    regenerate the same and name every file that differs\n\
         \n\
         F is a trace scale in (0, 1], N simulated seconds per point (default {} and {});\n\
         --full is paper size ({} and {}).\n\
         \n\
         names: {}",
        DEFAULT.trace,
        DEFAULT.seconds,
        Scale::full().trace,
        Scale::full().seconds,
        names.join(" "),
    )
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (name, rest) = args.split_first().ok_or("no experiment named")?;
    if name == "record" || name == "check" {
        let [dir] = rest else {
            return Err(format!("{name} takes exactly one directory"));
        };
        let dir = PathBuf::from(dir);
        return Ok(if name == "record" {
            Command::Record(dir)
        } else {
            Command::Check(dir)
        });
    }
    let experiment = TABLE
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment: {name}"))?;
    let mut full = false;
    let mut trace = None;
    let mut seconds = None;
    let mut rest = rest.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--full" => full = true,
            "--scale" => {
                let v = value()?;
                trace = match v.parse::<f64>() {
                    Ok(f) if f > 0.0 && f <= 1.0 => Some(f),
                    _ => return Err(format!("--scale {v}: not a number in (0, 1]")),
                };
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse::<u64>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return Err(format!("--seconds {v}: not a positive integer")),
                };
            }
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    let scale = match (full, trace, seconds) {
        (true, None, None) => Scale::full(),
        (true, ..) => return Err("--full excludes --scale and --seconds".to_owned()),
        (false, ..) => Scale {
            trace: trace.unwrap_or(DEFAULT.trace),
            seconds: seconds.unwrap_or(DEFAULT.seconds),
        },
    };
    Ok(Command::Run { experiment, scale })
}

/// Renders every file of a `results/` directory in turn and hands its
/// name and bytes to `each`.
fn for_each_result(mut each: impl FnMut(&str, &[u8]) -> io::Result<()>) -> io::Result<()> {
    let mut full_key = Vec::new();
    for e in &TABLE {
        let mut text = Vec::new();
        (e.run)(&mut text, RECORDED)?;
        each(&format!("{}.txt", e.name), &text)?;
        if e.full_key {
            writeln!(full_key, "=== {} full ===", e.name)?;
            (e.run)(&mut full_key, Scale::full())?;
        }
    }
    each("full_key.txt", &full_key)
}

/// Compares `printed` with the recorded `dir/name`. A difference (or a
/// file that cannot be read) is reported on `err` with its first
/// differing line; returns whether the two are byte-equal.
pub(crate) fn matches_recorded(
    dir: &Path,
    name: &str,
    printed: &[u8],
    err: &mut dyn Write,
) -> io::Result<bool> {
    let path = dir.join(name);
    let recorded = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => {
            writeln!(err, "{}: {e}", path.display())?;
            return Ok(false);
        }
    };
    if recorded == printed {
        return Ok(true);
    }
    let mut old = recorded.split(|b| *b == b'\n');
    let mut new = printed.split(|b| *b == b'\n');
    let mut line = 1;
    let (was, now) = loop {
        match (old.next(), new.next()) {
            (a, b) if a != b => break (a, b),
            _ => line += 1,
        }
    };
    fn show(line: Option<&[u8]>) -> std::borrow::Cow<'_, str> {
        line.map_or("<end of file>".into(), String::from_utf8_lossy)
    }
    writeln!(
        err,
        "{}: differs at line {line}\n  recorded: {}\n  printed:  {}",
        path.display(),
        show(was),
        show(now)
    )?;
    Ok(false)
}

fn execute(command: Command, out: &mut dyn Write, err: &mut dyn Write) -> io::Result<u8> {
    match command {
        Command::Run { experiment, scale } => {
            (experiment.run)(out, scale)?;
            Ok(0)
        }
        Command::Record(dir) => {
            std::fs::create_dir_all(&dir)?;
            for_each_result(|name, printed| {
                std::fs::write(dir.join(name), printed)?;
                writeln!(out, "wrote {}", dir.join(name).display())
            })?;
            Ok(0)
        }
        Command::Check(dir) => {
            let mut differing = 0;
            for_each_result(|name, printed| {
                if !matches_recorded(&dir, name, printed, err)? {
                    differing += 1;
                }
                Ok(())
            })?;
            if differing == 0 {
                writeln!(out, "check: {} matches what the code prints", dir.display())?;
                Ok(0)
            } else {
                writeln!(
                    err,
                    "check: {differing} recorded file(s) differ; `figures record` rewrites them"
                )?;
                Ok(1)
            }
        }
    }
}

/// Runs `figures` with `args` (the program name already dropped) and
/// returns its exit code: 0 done, 1 a recorded file differs or I/O
/// failed, 2 the arguments name nothing the table has (usage on `err`,
/// nothing run).
pub fn main(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    let result = match parse(args) {
        Ok(command) => execute(command, out, err),
        Err(why) => writeln!(err, "figures: {why}")
            .and_then(|()| usage(err))
            .map(|()| 2),
    };
    result.unwrap_or_else(|e| {
        // Nothing left to report a failed report to.
        let _ = writeln!(err, "figures: {e}");
        1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> (u8, String, String) {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = main(&args, &mut out, &mut err);
        let text = |bytes| String::from_utf8(bytes).expect("utf-8");
        (code, text(out), text(err))
    }

    #[test]
    fn what_the_table_does_not_have_is_usage_and_exit_2() {
        for args in [
            &["fig08", "--sclae", "1"][..],
            &["nosuch"],
            &["table1", "--json", "x"],
            &["fig15", "--json", "x"],
            &["fig08", "--scale"],
            &["fig08", "--scale", "0"],
            &["fig08", "--seconds", "1.5"],
            &["fig08", "--full", "--seconds", "9"],
            &["check"],
            &[],
        ] {
            let (code, out, err) = run(args);
            assert_eq!(code, 2, "{args:?}");
            assert!(out.is_empty(), "{args:?} ran something: {out}");
            assert!(err.contains("usage: figures <name>"), "{args:?}: {err}");
        }
    }

    #[test]
    fn the_flags_reach_the_experiment() {
        let (code, out, err) = run(&["fig04", "--scale", "0.02", "--seconds", "7"]);
        assert_eq!((code, err.as_str()), (0, ""));
        assert!(
            out.contains("(scale: 2% trace, 7 sim-seconds per point;"),
            "{out}"
        );
    }

    #[test]
    fn one_flipped_byte_fails_the_comparison_and_names_the_file() {
        let dir = std::env::temp_dir().join(format!("figures-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut printed = Vec::new();
        crate::experiments::fig01(&mut printed, DEFAULT).expect("write to a Vec");
        std::fs::write(dir.join("fig01.txt"), &printed).expect("write");
        let mut err = Vec::new();
        assert!(matches_recorded(&dir, "fig01.txt", &printed, &mut err).expect("compare"));
        assert!(err.is_empty());

        let mut flipped = printed.clone();
        let at = flipped.len() / 2;
        flipped[at] ^= 1;
        std::fs::write(dir.join("fig01.txt"), &flipped).expect("write");
        assert!(!matches_recorded(&dir, "fig01.txt", &printed, &mut err).expect("compare"));
        let line = printed[..at].iter().filter(|b| **b == b'\n').count() + 1;
        let err = String::from_utf8(err).expect("utf-8");
        assert!(
            err.contains(&format!("fig01.txt: differs at line {line}\n")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
