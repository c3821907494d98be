//! Seeded scenario-fuzzing campaign driver.
//!
//! ```text
//! scenariofuzz run --seeds 0..25 [--out FILE]   # campaign over a seed range
//! scenariofuzz minimize --seed N [--out FILE]   # shrink a violating seed to a case
//! scenariofuzz replay <case-file>               # re-check a committed case
//! scenariofuzz show --seed N                    # print a seed's generated scenario
//! ```
//!
//! `run` checks every seed in the range against the global invariant
//! suite (each seed runs twice for the determinism check), prints one
//! line per seed, optionally writes the campaign JSON report
//! (byte-identical across runs of the same range — no wall clock in the
//! report), and exits 1 if any seed violated an invariant.
//!
//! `minimize` shrinks a violating seed's scenario while the violation
//! reproduces and writes the regression case (default
//! `tests/fuzz_regressions/seed_<N>.case`), ready to be committed and
//! replayed forever by the root `fuzz_regressions` suite.

use std::process::ExitCode;

use bench::Cli;
use scenariofuzz::{campaign_json, check, minimize, Scenario, SeedResult};

const USAGE: &str = "usage: scenariofuzz run --seeds A..B [--out FILE]
       scenariofuzz minimize --seed N [--out FILE]
       scenariofuzz replay <case-file>
       scenariofuzz show --seed N";

fn main() -> ExitCode {
    // Each subcommand accepts only its own flags, and only `replay`
    // takes a positional argument after its name.
    let (valued, positional): (&[&str], usize) = match std::env::args().nth(1).as_deref() {
        Some("run") => (&["--seeds", "--out"], 1),
        Some("minimize") => (&["--seed", "--out"], 1),
        Some("replay") => (&[], 2),
        Some("show") => (&["--seed"], 1),
        _ => (&[], usize::MAX),
    };
    let cli = Cli::from_env(USAGE, &[], valued, positional);
    match cli.positional().first().map(String::as_str) {
        Some("run") => cmd_run(&cli),
        Some("minimize") => cmd_minimize(&cli),
        Some("replay") => cmd_replay(&cli),
        Some("show") => cmd_show(&cli),
        Some(other) => cli.fail(&format!("unknown subcommand {other:?}")),
        None => cli.fail("missing subcommand"),
    }
}

fn parse_seed_range(spec: &str) -> Option<(u64, u64)> {
    let (a, b) = spec.split_once("..")?;
    let from: u64 = a.parse().ok()?;
    let to: u64 = b.parse().ok()?;
    (from < to).then_some((from, to))
}

fn write_out(path: &str, contents: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_run(cli: &Cli) -> ExitCode {
    let Some(spec) = cli.value("--seeds") else {
        cli.fail("run needs --seeds A..B");
    };
    let Some((from, to)) = parse_seed_range(spec) else {
        cli.fail(&format!("bad seed range {spec:?} (want A..B with A < B)"));
    };
    let mut results = Vec::new();
    let mut failed = 0usize;
    for seed in from..to {
        let sc = Scenario::generate(seed);
        let outcome = check(&sc);
        let names = outcome.violated_invariants();
        if names.is_empty() {
            println!(
                "seed {seed:>4}: ok    lbs={} backends={} faults={} inj={} \
                 forwarded={} ejections={}",
                sc.lbs,
                sc.backends.len(),
                sc.faults.len(),
                sc.injections.len(),
                outcome.summary.forwarded,
                outcome.summary.ejections
            );
        } else {
            failed += 1;
            println!("seed {seed:>4}: FAIL  violated: {}", names.join(", "));
            for v in &outcome.violations {
                println!("            {}: {}", v.invariant, v.detail);
            }
        }
        results.push(SeedResult {
            seed,
            scenario: sc,
            outcome,
        });
    }
    let report = campaign_json(from, to, &results);
    if let Some(path) = cli.value("--out") {
        if let Err(e) = write_out(path, &report) {
            eprintln!("scenariofuzz: {e}");
            return ExitCode::from(2);
        }
        println!("campaign report: {path}");
    }
    println!(
        "{} seeds, {} passed, {failed} failed",
        to - from,
        (to - from) as usize - failed
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_minimize(cli: &Cli) -> ExitCode {
    let Some(seed) = cli.number("--seed") else {
        cli.fail("minimize needs --seed N");
    };
    let sc = Scenario::generate(seed);
    eprintln!("seed {seed}: checking...");
    let Some((minimized, invariants)) = minimize(&sc) else {
        println!("seed {seed}: no invariant violated; nothing to minimize");
        return ExitCode::SUCCESS;
    };
    let mut case = String::new();
    case.push_str(&format!(
        "# Minimized from seed {seed}; violates: {}\n",
        invariants.join(", ")
    ));
    case.push_str(
        "# Replay: cargo run --release -p bench --bin scenariofuzz -- replay <this file>\n",
    );
    case.push_str(&minimized.to_text());
    let path = cli
        .value("--out")
        .map(String::from)
        .unwrap_or_else(|| format!("tests/fuzz_regressions/seed_{seed}.case"));
    if let Err(e) = write_out(&path, &case) {
        eprintln!("scenariofuzz: {e}");
        return ExitCode::from(2);
    }
    println!(
        "seed {seed}: minimized case violating [{}] written to {path}",
        invariants.join(", ")
    );
    ExitCode::FAILURE
}

fn cmd_replay(cli: &Cli) -> ExitCode {
    let Some(path) = cli.positional().get(1) else {
        cli.fail("replay needs <case-file>");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scenariofuzz: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let sc = match Scenario::from_text(&text) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("scenariofuzz: parsing {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = check(&sc);
    if outcome.violations.is_empty() {
        println!("{path}: ok (no invariant violated)");
        ExitCode::SUCCESS
    } else {
        println!(
            "{path}: FAIL  violated: {}",
            outcome.violated_invariants().join(", ")
        );
        for v in &outcome.violations {
            println!("  {}: {}", v.invariant, v.detail);
        }
        ExitCode::FAILURE
    }
}

fn cmd_show(cli: &Cli) -> ExitCode {
    let Some(seed) = cli.number("--seed") else {
        cli.fail("show needs --seed N");
    };
    print!("{}", Scenario::generate(seed).to_text());
    ExitCode::SUCCESS
}
