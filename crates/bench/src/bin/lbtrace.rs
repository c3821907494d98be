//! `lbtrace`: query decision-journal and span NDJSON captures.
//!
//! Capture a journal and a span trace first, e.g.:
//!
//! ```text
//! cargo run -p bench --release --bin fig3 -- \
//!     --journal target/bench/fig3.ndjson --spans target/bench/fig3.spans
//! ```
//!
//! then query them:
//!
//! ```text
//! lbtrace summary       FILE [FILE...]        # multiple files = shards
//! lbtrace samples       FILE --backend B [--limit N]
//! lbtrace explain       FILE [--after NS]
//! lbtrace ejections     FILE
//! lbtrace reaction      FILE --inject NS [--backend B]
//! lbtrace spans         SPANFILE [--trace T] [--limit N]
//! lbtrace critical-path SPANFILE
//! lbtrace error-budget  SPANFILE JOURNALFILE
//! ```
//!
//! `reaction` reproduces the Fig. 3 reaction metric from the journal
//! alone; `explain` walks a weight shift back to the epoch-δ decision
//! and the T_LB samples that drove it. The span commands work on a span
//! capture: `spans` renders per-request hop trees, `critical-path`
//! prints the aggregate six-segment decomposition, and `error-budget`
//! joins journaled T_LB samples against span ground truth to attribute
//! estimator error by segment.

use bench::lbtrace::{summary_shards, Trace};
use bench::spans::{critical_path_table, error_budget, error_budget_table, SpanCapture};
use bench::Cli;

const USAGE: &str = "usage: lbtrace summary       FILE [FILE...]
       lbtrace samples       FILE [--backend B] [--limit N]
       lbtrace explain       FILE [--after NS]
       lbtrace ejections     FILE
       lbtrace reaction      FILE --inject NS [--backend B]
       lbtrace spans         SPANFILE [--trace T] [--limit N]
       lbtrace critical-path SPANFILE
       lbtrace error-budget  SPANFILE JOURNALFILE";

fn load_trace(path: &str) -> Trace {
    let trace = match Trace::load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lbtrace: {e}");
            std::process::exit(1);
        }
    };
    if trace.dropped_tail() {
        eprintln!("lbtrace: note: {path} ends in a truncated line (capture cut mid-write); it was ignored");
    }
    trace
}

/// `backend` if the capture has it; otherwise a usage error naming the
/// capture's backend count (a filter to nothing would print an empty,
/// plausible-looking answer).
fn checked_backend(cli: &Cli, trace: &Trace, backend: u64) -> usize {
    let n = trace.n_backends();
    match usize::try_from(backend) {
        Ok(b) if b < n => b,
        _ => cli.fail(&format!(
            "--backend {backend} is out of range: the capture has {n} backend(s)"
        )),
    }
}

fn load_spans(path: &str) -> SpanCapture {
    match SpanCapture::load(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lbtrace: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    // Each subcommand accepts only its own flags.
    let valued: &[&str] = match std::env::args().nth(1).as_deref() {
        Some("samples") => &["--backend", "--limit"],
        Some("explain") => &["--after"],
        Some("reaction") => &["--inject", "--backend"],
        Some("spans") => &["--trace", "--limit"],
        _ => &[],
    };
    // How many FILEs each subcommand reads is checked below.
    let cli = Cli::from_env(USAGE, &[], valued, usize::MAX);
    let Some((cmd, files)) = cli.positional().split_first() else {
        cli.fail("missing subcommand");
    };
    // `summary` reads one file per shard and `error-budget` a span file
    // plus a journal; every other subcommand reads exactly one file.
    let max_files = match cmd.as_str() {
        "summary" => usize::MAX,
        "error-budget" => 2,
        "samples" | "explain" | "ejections" | "reaction" | "spans" | "critical-path" => 1,
        other => cli.fail(&format!("unknown subcommand {other:?}")),
    };
    let Some(path) = files.first() else {
        cli.fail("missing FILE");
    };
    if files.len() > max_files {
        cli.fail(&format!(
            "{cmd} takes {max_files} file(s), got {}",
            files.len()
        ));
    }

    match cmd.as_str() {
        "summary" => {
            if files.len() > 1 {
                // One file per shard: the multi-LB per-shard view.
                let shards: Vec<Trace> = files.iter().map(|p| load_trace(p)).collect();
                print!("{}", summary_shards(&shards));
            } else {
                print!("{}", load_trace(path).summary());
            }
        }
        "samples" => {
            let trace = load_trace(path);
            let backend = checked_backend(&cli, &trace, cli.number("--backend").unwrap_or(0));
            let limit = cli.number("--limit").unwrap_or(u64::MAX) as usize;
            let timeline = trace.sample_timeline(backend);
            println!(
                "backend {backend}: {} sample(s){}",
                timeline.len(),
                if timeline.len() > limit {
                    format!(", showing last {limit}")
                } else {
                    String::new()
                }
            );
            let skip = timeline.len().saturating_sub(limit);
            for (at, t_lb) in timeline.into_iter().skip(skip) {
                println!("  t = {at} ns  T_LB = {t_lb} ns");
            }
        }
        "explain" => {
            let after = cli.number("--after").unwrap_or(0);
            match load_trace(path).explain_shift(after) {
                Some(ex) => print!("{}", ex.render()),
                None => println!("no weight shift with a victim at or after t = {after} ns"),
            }
        }
        "ejections" => {
            let lines = load_trace(path).ejection_storylines();
            if lines.is_empty() {
                println!("no health transitions in the capture");
            }
            for line in lines {
                print!("{}", line.render());
            }
        }
        "reaction" => {
            let trace = load_trace(path);
            let Some(inject) = cli.number("--inject") else {
                cli.fail("reaction needs --inject NS");
            };
            let backends: Vec<usize> = match cli.number("--backend") {
                Some(b) => vec![checked_backend(&cli, &trace, b)],
                None => (0..trace.n_backends()).collect(),
            };
            for b in backends {
                match trace.reaction_time(b, inject) {
                    Some(t) => println!(
                        "backend {b}: weight < 0.5 at t = {t} ns ({:.2} ms after injection)",
                        t.saturating_sub(inject) as f64 / 1e6
                    ),
                    None => println!("backend {b}: never dropped below half traffic"),
                }
            }
        }
        "spans" => {
            let capture = load_spans(path);
            match cli.number("--trace") {
                Some(t) => match capture.find(t) {
                    Some(span) => print!("{}", capture.render_span(span)),
                    None => {
                        eprintln!("lbtrace: no span with trace id {t} in {path}");
                        std::process::exit(1);
                    }
                },
                None => {
                    let limit = cli.number("--limit").unwrap_or(10) as usize;
                    println!(
                        "{} span(s) captured, showing first {}",
                        capture.spans().len(),
                        limit.min(capture.spans().len())
                    );
                    for span in capture.spans().iter().take(limit) {
                        print!("{}", capture.render_span(span));
                    }
                }
            }
        }
        "critical-path" => {
            let capture = load_spans(path);
            critical_path_table(&capture.critical_paths()).print();
        }
        "error-budget" => {
            let Some(journal_path) = files.get(1) else {
                cli.fail("error-budget needs SPANFILE JOURNALFILE");
            };
            let capture = load_spans(path);
            let journal = load_trace(journal_path);
            let budget = error_budget(&capture.critical_paths(), journal.events());
            error_budget_table(&budget).print();
        }
        _ => unreachable!("subcommand checked above"),
    }
}
