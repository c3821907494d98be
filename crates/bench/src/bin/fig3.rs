//! Regenerates Fig. 3: p95 GET latency over time for a two-backend
//! key-value cluster with 1 ms injected at one backend, plain Maglev vs.
//! the latency-aware LB.
//!
//! Usage:
//! `cargo run -p bench --release --bin fig3 [--full] [--seed N] [--csv]
//!  [--journal PATH] [--spans PATH]`
//!
//! `--full` uses the paper's 200 s timeline (injection at t = 100 s);
//! the default is a 60 s run with injection at t = 20 s. `--journal PATH`
//! records the latency-aware LB's decision journal and writes it to
//! `PATH` as NDJSON — feed it to the `lbtrace` binary to explain weight
//! shifts and reproduce the reaction metric offline. `--spans PATH`
//! additionally records the causal span trace of every request in the
//! latency-aware run — feed it to `lbtrace spans|critical-path`, or to
//! `lbtrace error-budget` together with the journal.

use experiments::fig3::{fig3_summary_table, fig3_table, run_fig3, Fig3Config};

const USAGE: &str = "usage: fig3 [--full] [--seed N] [--csv] [--journal PATH] [--spans PATH]";

fn main() {
    let cli = bench::Cli::from_env(
        USAGE,
        &["--full", "--csv"],
        &["--seed", "--journal", "--spans"],
        0,
    );
    let mut cfg = if cli.has("--full") {
        Fig3Config::full()
    } else {
        Fig3Config::default()
    };
    if let Some(seed) = cli.number("--seed") {
        cfg.seed = seed;
    }
    let journal_path = cli.value("--journal");
    if journal_path.is_some() {
        cfg.journal = telemetry::JournalMode::Full(1 << 22);
    }
    let spans_path = cli.value("--spans");
    if spans_path.is_some() {
        cfg.span = telemetry::SpanMode::Full(1 << 24);
    }
    let r = run_fig3(&cfg);
    let write_capture = |path: &str, text: &str, what: &str| {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| panic!("creating {what} output directory: {e}"));
            }
        }
        std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {what}: {e}"));
        eprintln!("wrote {} ({} {what} lines)", path, text.lines().count());
    };
    let aware_lb = &r.aware.lbs[0];
    if let Some(path) = journal_path {
        write_capture(path, &aware_lb.journal, "journal");
        if aware_lb.journal_dropped > 0 {
            eprintln!(
                "note: journal filled mid-run ({} events dropped); \
                 the capture covers only the run's first events",
                aware_lb.journal_dropped
            );
        }
    }
    if let Some(path) = spans_path {
        write_capture(path, &r.aware.spans, "span");
        if r.aware.spans_dropped > 0 {
            eprintln!(
                "note: span log filled mid-run ({} hop records dropped); \
                 the capture covers only the run's first requests",
                r.aware.spans_dropped
            );
        }
    }
    if cli.has("--csv") {
        print!("{}", fig3_table(&r).to_csv());
    } else {
        fig3_table(&r).print();
        println!();
        fig3_summary_table(&r).print();
        println!();
        println!(
            "latency-aware LB: {} T_LB samples, first reaction {} after injection",
            aware_lb.stats.samples,
            r.aware
                .first_reaction
                .map(|t| format!(
                    "{:.2} ms",
                    (t.saturating_sub((netsim::Time::ZERO + cfg.inject_at).as_nanos())) as f64
                        / 1e6
                ))
                .unwrap_or_else(|| "never".into()),
        );
    }
}
