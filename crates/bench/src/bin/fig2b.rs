//! Regenerates Fig. 2(b): `ENSEMBLETIMEOUT` tracking ground truth through
//! an RTT step, adapting its timeout via sample cliffs.
//!
//! Usage: `cargo run -p bench --release --bin fig2b [--seed N] [--csv]`

use experiments::fig2::{fig2b_table, run_fig2b, Fig2Config};

const USAGE: &str = "usage: fig2b [--seed N] [--csv]";

fn main() {
    let cli = bench::Cli::from_env(USAGE, &["--csv"], &["--seed"], 0);
    let mut cfg = Fig2Config::default();
    if let Some(seed) = cli.number("--seed") {
        cfg.seed = seed;
    }
    let r = run_fig2b(&cfg);
    let table = fig2b_table(&r);
    if cli.has("--csv") {
        print!("{}", table.to_csv());
    } else {
        table.print();
        println!();
        println!("pre-step accuracy (warm, t in [0.5s, 3s)):\n{}", r.pre_step);
        println!("post-step accuracy (t >= 3s):\n{}", r.post_step);
        println!("epoch decisions: {}", r.decisions.len());
    }
}
