//! BENCH-PERF: runs the pinned performance macro-scenarios and writes a
//! schema-versioned `BENCH_perf.json` so every PR appends to one
//! comparable perf trajectory.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin perfbench -- \
//!     [--quick] [--scenario NAME] [--seed N] [--out PATH] [--journal]
//!     [--spans]
//! ```
//!
//! `--quick` runs the short CI variants; the default (full) variants are
//! the pinned trajectory points. `--journal` appends the
//! `fig3_kv_journal` overhead scenario (fig3_kv with the decision
//! journal recording) to the report, and `--spans` appends
//! `fig3_kv_spans` (fig3_kv with Full causal span tracing) — neither is
//! part of the pinned trajectory; compare them against `fig3_kv` to see
//! the observability overhead. With both recorders Off (the default in
//! every pinned scenario) the only residual cost is one branch per
//! would-be hop record. Build with `--features bench-alloc` to include
//! allocation counts (counting global allocator). Output defaults to
//! `target/bench/BENCH_perf.json`.

use bench::harness::{self, BenchReport};

#[cfg(feature = "bench-alloc")]
#[global_allocator]
static COUNTING: harness::CountingAlloc = harness::CountingAlloc;

const USAGE: &str =
    "usage: perfbench [--quick] [--scenario NAME] [--seed N] [--out PATH] [--journal] [--spans]";

fn main() {
    let cli = bench::Cli::from_env(
        USAGE,
        &["--quick", "--journal", "--spans"],
        &["--scenario", "--seed", "--out"],
    );
    let quick = cli.has("--quick");
    let seed = cli.number("--seed").unwrap_or(42);
    let out = cli.value("--out").unwrap_or("target/bench/BENCH_perf.json");

    let mut report = if let Some(name) = cli.value("--scenario") {
        match harness::run_scenario(name, quick, seed) {
            Ok(r) => BenchReport::single(quick, r),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
    } else {
        harness::run_all(quick, seed)
    };
    for (flag, scenario) in [
        ("--journal", "fig3_kv_journal"),
        ("--spans", "fig3_kv_spans"),
    ] {
        if cli.has(flag) && !report.scenarios.iter().any(|s| s.name == scenario) {
            match harness::run_scenario(scenario, quick, seed) {
                Ok(r) => report.scenarios.push(r),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(2);
                }
            }
        }
    }

    println!(
        "perfbench (schema v{}, {} mode, seed {seed}, alloc counting {})",
        report.schema_version,
        if quick { "quick" } else { "full" },
        if report.bench_alloc { "on" } else { "off" },
    );
    println!(
        "{:<14} {:>7} {:>12} {:>12} {:>10} {:>8} {:>10} {:>12} {:>14} {:>12} {:>12}",
        "scenario",
        "sim_ms",
        "events",
        "packets",
        "cancelled",
        "q_peak",
        "wall_ms",
        "events/s",
        "sim_pkts/s",
        "allocs",
        "rss_kb"
    );
    for s in &report.scenarios {
        println!(
            "{:<14} {:>7} {:>12} {:>12} {:>10} {:>8} {:>10.1} {:>12.0} {:>14.0} {:>12} {:>12}",
            s.name,
            s.sim_ms,
            s.events,
            s.packets,
            s.timers_cancelled,
            s.queue_peak,
            s.wall_ns as f64 / 1e6,
            s.events_per_sec,
            s.sim_packets_per_sec,
            s.alloc_count,
            s.peak_rss_kb
        );
    }

    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("perfbench: creating {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(out, report.to_json()) {
        eprintln!("perfbench: writing {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}
