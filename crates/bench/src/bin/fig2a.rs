//! Regenerates Fig. 2(a): `FIXEDTIMEOUT` estimates vs. ground truth on a
//! backlogged flow with an RTT step at t = 3 s.
//!
//! Usage: `cargo run -p bench --release --bin fig2a [--seed N] [--csv]`

use experiments::fig2::{fig2a_table, run_fig2a, Fig2Config};

const USAGE: &str = "usage: fig2a [--seed N] [--csv]";

fn main() {
    let cli = bench::Cli::from_env(USAGE, &["--csv"], &["--seed"], 0);
    let mut cfg = Fig2Config::default();
    if let Some(seed) = cli.number("--seed") {
        cfg.seed = seed;
    }
    let r = run_fig2a(&cfg);
    let table = fig2a_table(&r);
    if cli.has("--csv") {
        print!("{}", table.to_csv());
    } else {
        table.print();
        println!();
        println!("pre-step  (t < 3s):");
        println!("  delta=64us   {}", r.pre_step.0);
        println!("  delta=1024us {}", r.pre_step.1);
        println!("post-step (t >= 3s):");
        println!("  delta=64us   {}", r.post_step.0);
        println!("  delta=1024us {}", r.post_step.1);
        println!(
            "arrivals at LB: {}   truth samples: {}",
            r.trace.arrivals.len(),
            r.trace.truth.len()
        );
    }
}
