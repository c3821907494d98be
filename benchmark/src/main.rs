//! `lbbench`: the repo's yardstick. See README.md.
//!
//! ```text
//! lbbench run [--workload W] [--seed N] [--trace 0|1] [--out FILE]
//! lbbench compare A.json B.json
//! ```

mod bench;
mod host;
mod json;
mod measure;
mod micro;
mod report;
mod spec;
mod stats;
mod topo;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use spec::BenchSpec;

const USAGE: &str = "usage:
  lbbench run [--workload W] [--seed N] [--trace 0|1] [--out FILE]
      Runs one workload in this process, or, without --workload, each of the
      four in a child process of its own. Prints every metric with its unit,
      the self-checks, and as the last line one JSON result; exits non-zero
      when a self-check fails. --trace 1 (the default) adds the traced pass
      and makes the last line carry the per-layer metrics; --trace 0 skips it
      and the last line carries the end-to-end metrics. The run length is
      frozen (repetitions per workload, sized to BENCHMARK.json's
      run_seconds); --seconds is taken from the benchmark driver only when it
      names that same value.
  lbbench compare A.json B.json
      Judges result file B against A under BENCHMARK.json's directions and
      bounds; exits non-zero when any metric is worse.";

/// Default seed; 7 is the hold-out (see README.md).
const DEFAULT_SEED: u64 = 42;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String], contract: &BenchSpec) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        trace: true,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number()?,
            // The driver passes the contract's own `run_seconds`; the
            // repetition counts (`Spec::reps`) were sized to it and do not
            // follow any other value.
            "--seconds" => {
                if number()? != contract.run_seconds {
                    return Err(format!(
                        "--seconds {value}: the run length is frozen at run_seconds = {}",
                        contract.run_seconds
                    ));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(parsed)
}

/// `<target dir>/lbbench`, beside the build that produced this binary:
/// where the trace files and the per-workload records of a full run go.
fn artefact_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.ancestors()
        .nth(2)
        .map(|target| target.join("lbbench"))
        .ok_or_else(|| format!("{}: no target directory above it", exe.display()))
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(args: &RunArgs, name: &str, contract: &BenchSpec) -> Result<bool, String> {
    let spec = topo::spec_named(name).ok_or_else(|| {
        let known: Vec<&str> = topo::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; known: {}", known.join(", "))
    })?;
    let trace_dir = if args.trace {
        Some(artefact_dir()?)
    } else {
        None
    };
    let result = bench::run_workload(&spec, args.seed, trace_dir.as_deref(), contract);
    if let Some(out) = &args.out {
        write_file(out, &report::file_json(&[result.to_json()]))?;
    }
    print!("{}", result.human(contract));
    println!("{}", result.driver_line(args.trace));
    Ok(result.correct())
}

/// Runs every workload in a child process of its own, so that peak RSS,
/// heap layout and the allocator's state start fresh for each.
fn run_all(args: &RunArgs, contract: &BenchSpec) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = artefact_dir()?;
    let mut records = Vec::new();
    let mut all_ok = true;
    for name in &contract.workloads {
        let record = dir.join(format!("result_{name}.json"));
        // A child that dies early must not be read as its predecessor.
        let _ = std::fs::remove_file(&record);
        let status = Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&record)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_ok &= status.success();
        let text = std::fs::read_to_string(&record)
            .map_err(|e| format!("{name}: no result record at {}: {e}", record.display()))?;
        records.push(text.trim_end().to_string());
    }
    if let Some(out) = &args.out {
        write_file(out, &report::file_json(&records))?;
        eprintln!("wrote {}", out.display());
    }
    Ok(all_ok)
}

fn compare(paths: &[String], contract: &BenchSpec) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes exactly two result files".to_string());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        report::load_file(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, worse, unresolved) = report::compare(contract, &load(a)?, &load(b)?);
    print!("{table}");
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let contract = BenchSpec::embedded();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run_args(rest, contract).and_then(|run| match run.workload.clone() {
                Some(name) => run_one(&run, &name, contract),
                None => run_all(&run, contract),
            })
        }
        Some((cmd, rest)) if cmd == "compare" => compare(rest, contract),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lbbench: {e}");
            ExitCode::from(2)
        }
    }
}
