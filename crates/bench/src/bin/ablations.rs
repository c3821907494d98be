//! Runs the ablation suite: one ablation by name, or `all` of them in
//! table order.
//!
//! Usage: `cargo run -p bench --release --bin ablations [NAME|all]`
//! (default: all). [`ABLATIONS`] is the list of names; an unknown name
//! or a second argument prints it with the usage text and exits 2.
//!
//! Output goes to stdout and is also written to
//! `target/bench/ablations_<which>.txt` so CI can archive the tables
//! without shell redirection littering the repo root.

use experiments::ablations;
use experiments::chaos::{chaos_summary_table, chaos_table, run_chaos, ChaosConfig};
use experiments::fig2::Fig2Config;
use experiments::fig3::Fig3Config;
use lbcore::GossipConfig;

/// An ablation's name and the function that renders its tables.
type Ablation = (&'static str, fn() -> String);

/// Every ablation by name, in the order `all` runs them.
const ABLATIONS: &[Ablation] = &[
    ("epoch", || {
        ablations::epoch_sweep(&Fig2Config::default(), &[8, 16, 32, 64, 128, 256, 512]).to_aligned()
    }),
    ("k", || {
        ablations::k_sweep(&Fig2Config::default(), &[2, 3, 4, 5, 6, 7, 8, 9]).to_aligned()
    }),
    ("alpha", || {
        ablations::alpha_sweep(&Fig3Config::default(), &[0.02, 0.05, 0.10, 0.20, 0.50]).to_aligned()
    }),
    ("margin", || {
        ablations::margin_sweep(&Fig3Config::default(), &[0.0, 0.05, 0.10, 0.25, 0.50, 1.0])
            .to_aligned()
    }),
    ("timing", || {
        ablations::timing_violations(&Fig2Config::default()).to_aligned()
    }),
    ("controllers", || {
        ablations::controller_comparison(&Fig3Config::default()).to_aligned()
    }),
    ("cliff", || {
        ablations::cliff_rule_comparison(&Fig3Config::default()).to_aligned()
    }),
    ("far", || {
        ablations::far_clients(&Fig3Config::default()).to_aligned()
    }),
    ("congestion", || {
        ablations::congestion(&Fig3Config::default()).to_aligned()
    }),
    ("pcc", || {
        ablations::pcc(&Fig3Config::default()).to_aligned()
    }),
    ("failover", || {
        ablations::failover(&Fig3Config::default()).to_aligned()
    }),
    ("oob", || {
        ablations::oob_comparison(&Fig3Config::default()).to_aligned()
    }),
    ("chaos", || {
        let r = run_chaos(&ChaosConfig::default());
        format!(
            "{}\n{}",
            chaos_table(&r).to_aligned(),
            chaos_summary_table(&r).to_aligned()
        )
    }),
    ("multilb", || {
        let ns = [1, 2, 4, 8];
        ablations::multilb_sweep(&Fig3Config::default(), &ns, GossipConfig::default()).to_aligned()
    }),
    ("herd", || ablations::herd_model(&[1, 2, 4, 8]).to_aligned()),
];

fn main() {
    let names: Vec<&str> = ABLATIONS.iter().map(|&(name, _)| name).collect();
    let usage = format!("usage: ablations [{}|all]", names.join("|"));
    let cli = bench::Cli::from_env(&usage, &[], &[], 1);
    let which = cli.positional().first().map_or("all", String::as_str);
    let output = if which == "all" {
        let tables: Vec<String> = ABLATIONS.iter().map(|(_, run)| run()).collect();
        tables.join("\n")
    } else {
        match ABLATIONS.iter().find(|&&(name, _)| name == which) {
            Some((_, run)) => run(),
            None => cli.fail(&format!("unknown ablation '{which}'")),
        }
    };

    print!("{output}");
    let out_dir = std::path::Path::new("target/bench");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("ablations: creating {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let path = out_dir.join(format!("ablations_{which}.txt"));
    if let Err(e) = std::fs::write(&path, &output) {
        eprintln!("ablations: writing {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}
