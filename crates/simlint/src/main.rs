//! simlint: the workspace determinism & concurrency-readiness
//! static-analysis pass (binary front-end; the rules live in the
//! `simlint` library).
//!
//! ```text
//! cargo run -p simlint -- --workspace              # lint every .rs file
//! cargo run -p simlint -- --workspace --json       # machine-readable output
//! cargo run -p simlint -- --workspace --update-baseline
//! cargo run -p simlint -- crates/netsim/src/rng.rs
//! ```
//!
//! Exits 0 when clean (no deny findings, every warn finding baselined),
//! 1 on gating findings, 2 on usage/config/IO errors. Rule families:
//! D determinism, F fast-path, C concurrency readiness, G global
//! ordering, J journal schema. Scopes come from `simlint.toml`; accepted
//! warn findings live in `simlint.baseline`.

use simlint::baseline;
use simlint::config::Config;
use simlint::rules::Severity;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workspace: bool,
    json: bool,
    update_baseline: bool,
    config: Option<PathBuf>,
    baseline: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: simlint [--workspace] [--json] [--config <simlint.toml>]\n\
         \x20              [--baseline <simlint.baseline>] [--update-baseline] [files…]\n\
         \n\
         Lints workspace sources for determinism (D1 wall-clock, D2 entropy,\n\
         D3 hash-order iteration), fast-path robustness (F1 panics, F2 float\n\
         equality), concurrency readiness (C1 interior mutability, C2 Rc,\n\
         C3 static mut, C4 thread_local!, C5 unsafe), global ordering\n\
         (G1 hash-container fields, G2 non-total comparators, G3 sequence\n\
         truncation), and journal schema drift (J1).\n\
         \n\
         Suppress a finding with `// simlint: allow(<rule>)`; C-family\n\
         allows additionally need a justification after the closing paren.\n\
         Warn-tier findings gate unless listed in the committed baseline;\n\
         refresh it with --update-baseline."
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        workspace: false,
        json: false,
        update_baseline: false,
        config: None,
        baseline: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--update-baseline" => args.update_baseline = true,
            "--config" => match it.next() {
                Some(p) => args.config = Some(PathBuf::from(p)),
                None => return Err(usage()),
            },
            "--baseline" => match it.next() {
                Some(p) => args.baseline = Some(PathBuf::from(p)),
                None => return Err(usage()),
            },
            "--help" | "-h" => return Err(usage()),
            flag if flag.starts_with('-') => {
                eprintln!("simlint: unknown flag `{flag}`");
                return Err(usage());
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if !args.workspace && args.files.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn load_config(explicit: Option<&Path>) -> Result<Config, ExitCode> {
    let path = match explicit {
        Some(p) => p.to_path_buf(),
        None => {
            let default = PathBuf::from("simlint.toml");
            if !default.exists() {
                return Ok(Config::default());
            }
            default
        }
    };
    let text = fs::read_to_string(&path).map_err(|e| {
        eprintln!("simlint: cannot read {}: {e}", path.display());
        ExitCode::from(2)
    })?;
    Config::parse(&text).map_err(|e| {
        eprintln!("simlint: {}: {e}", path.display());
        ExitCode::from(2)
    })
}

/// Collects every `.rs` file under `dir`, skipping excluded prefixes.
/// Traversal is sorted, so output order is stable across runs.
fn collect_rs_files(dir: &Path, cfg: &Config, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = rel_path(&path);
        if rel.starts_with('.') || Config::in_scope(&rel, &cfg.exclude) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, cfg, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Normalises to a `/`-separated path relative to the current
/// directory (the workspace root when run via `cargo run -p simlint`).
fn rel_path(path: &Path) -> String {
    let s = path.to_string_lossy().replace('\\', "/");
    s.strip_prefix("./").unwrap_or(&s).to_string()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let cfg = match load_config(args.config.as_deref()) {
        Ok(c) => c,
        Err(code) => return code,
    };

    let mut paths = args.files.clone();
    if args.workspace {
        if let Err(e) = collect_rs_files(Path::new("."), &cfg, &mut paths) {
            eprintln!("simlint: walking workspace: {e}");
            return ExitCode::from(2);
        }
    }

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = rel_path(path);
        match fs::read_to_string(path) {
            Ok(text) => files.push((rel, text)),
            Err(e) => {
                eprintln!("simlint: cannot read {rel}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if args.workspace {
        let scanned: Vec<&str> = files.iter().map(|(rel, _)| rel.as_str()).collect();
        let dead = cfg.dead_scopes(&scanned);
        for scope in &dead {
            eprintln!("simlint: config: scope path `{scope}` matches no scanned file");
        }
        if !dead.is_empty() {
            return ExitCode::from(2);
        }
    }

    let mut violations = simlint::analyze(&files, &cfg);

    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| PathBuf::from("simlint.baseline"));

    if args.update_baseline {
        let text = baseline::render(&violations);
        if let Err(e) = fs::write(&baseline_path, &text) {
            eprintln!("simlint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        let warns = violations
            .iter()
            .filter(|v| v.severity == Severity::Warn)
            .count();
        eprintln!(
            "simlint: wrote {} with {warns} warn finding(s)",
            baseline_path.display()
        );
        // The fresh baseline covers every warn finding by construction;
        // deny findings still gate.
        let entries = baseline::parse(&text).expect("just-rendered baseline parses");
        baseline::apply(&mut violations, &entries);
    } else if baseline_path.exists() {
        let text = match fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("simlint: cannot read {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        };
        let entries = match baseline::parse(&text) {
            Ok(es) => es,
            Err(e) => {
                eprintln!("simlint: {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        };
        let stale = baseline::apply(&mut violations, &entries);
        for e in &stale {
            eprintln!(
                "simlint: note: stale baseline entry (no longer matches): {}\t{}\t{}",
                e.rule, e.path, e.snippet
            );
        }
    }

    if args.json {
        print!("{}", simlint::render_json(&violations));
    } else {
        print!("{}", simlint::render_human(&violations, files.len()));
    }
    if simlint::gates(&violations) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_path_normalises() {
        assert_eq!(
            rel_path(Path::new("./crates/x/src/lib.rs")),
            "crates/x/src/lib.rs"
        );
    }

    #[test]
    fn excluded_prefixes_are_skipped_by_scope_match() {
        let cfg = Config::default();
        assert!(Config::in_scope("target/debug/build.rs", &cfg.exclude));
        assert!(Config::in_scope("crates/simlint/src/main.rs", &cfg.exclude));
        assert!(!Config::in_scope("crates/netsim/src/sim.rs", &cfg.exclude));
    }
}
