//! simlint: the two determinism rules no stock lint expresses
//! (binary front-end; the rules live in the `simlint` library).
//!
//! ```text
//! cargo run -p simlint -- --workspace              # lint every .rs file
//! cargo run -p simlint -- --workspace --json       # machine-readable output
//! cargo run -p simlint -- --workspace --update-baseline
//! cargo run -p simlint -- crates/nettcp/src/conn.rs
//! ```
//!
//! Exits 0 when clean (no deny findings, every warn finding baselined),
//! 1 on gating findings, 2 on usage/config/IO errors. Rules: G2
//! non-total float comparators, G3 sequence-number narrowing;
//! everything else is `cargo clippy` (DESIGN.md
//! §6.9). Scopes come from `simlint.toml`; accepted warn findings live
//! in `simlint.baseline`.

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
         Checks the two determinism rules no stock lint expresses: G2\n\
         non-total float comparators (`partial_cmp(..).unwrap()`) and G3\n\
         sequence-number narrowing casts. Wall clocks, hash\n\
         containers, fast-path panics, float equality, Rc/RefCell,\n\
         thread_local! and unsafe are `cargo clippy --workspace`.\n\
         \n\
         G3 is warn-tier: it gates unless listed in the committed\n\
         baseline; refresh it with --update-baseline. There is no\n\
         in-source suppression."
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

/// The config at `explicit`, else `simlint.toml` if there is one, else
/// the built-in defaults.
fn load_config(explicit: Option<&Path>) -> Result<Config, String> {
    let default = Path::new("simlint.toml");
    let path = match explicit {
        Some(p) => p,
        None if default.exists() => default,
        None => return Ok(Config::default()),
    };
    let text = read(path)?;
    Config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", rel_path(path)))
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

/// Runs the pass; `Ok(true)` when the findings gate, `Err` on a
/// config or IO error.
fn run(args: &Args) -> Result<bool, String> {
    let cfg = load_config(args.config.as_deref())?;

    let mut paths = args.files.clone();
    if args.workspace {
        collect_rs_files(Path::new("."), &cfg, &mut paths)
            .map_err(|e| format!("walking workspace: {e}"))?;
    }
    let files = paths
        .iter()
        .map(|path| Ok((rel_path(path), read(path)?)))
        .collect::<Result<Vec<_>, String>>()?;

    if args.workspace {
        let scanned: Vec<&str> = files.iter().map(|(rel, _)| rel.as_str()).collect();
        let dead: Vec<String> = cfg
            .dead_scopes(&scanned)
            .iter()
            .map(|scope| format!("config: scope path `{scope}` matches no scanned file"))
            .collect();
        if !dead.is_empty() {
            return Err(dead.join("\nsimlint: "));
        }
    }

    let mut violations = simlint::analyze(&files, &cfg);

    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| PathBuf::from("simlint.baseline"));
    let in_baseline = |e: String| format!("{}: {e}", baseline_path.display());
    if args.update_baseline {
        let text = baseline::render(&violations);
        fs::write(&baseline_path, &text).map_err(|e| in_baseline(format!("cannot write: {e}")))?;
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
        baseline::apply(
            &mut violations,
            &baseline::parse(&text).map_err(in_baseline)?,
        );
    } else if baseline_path.exists() {
        let entries = baseline::parse(&read(&baseline_path)?).map_err(in_baseline)?;
        for e in baseline::apply(&mut violations, &entries) {
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
    Ok(simlint::gates(&violations))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    match run(&args) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("simlint: {e}");
            ExitCode::from(2)
        }
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
