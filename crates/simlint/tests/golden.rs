//! Golden tests: every rule id has a fixture under `tests/fixtures/`,
//! and each fixture's `--json` report is pinned byte-for-byte in a
//! sibling `.expected.json` file. (The rules that moved to stock lints
//! keep their fixtures in `crates/lint-fixtures`, where each banned line
//! expects the lint that replaced its rule.)
//!
//! Fixtures are analyzed under a *pretend* workspace path chosen to
//! put them in the right rule scopes (fixtures themselves live under
//! `crates/simlint`, which the workspace scan excludes, so the banned
//! patterns here never trip the real gate).
//!
//! To refresh the pinned reports after an intentional rule change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p simlint --test golden
//! ```

use simlint::config::Config;
use simlint::rules::Violation;
use std::fs;
use std::path::PathBuf;

/// Pretend paths per scope; see `Config::default()`.
const DETERMINISTIC: &str = "crates/netsim/src/fixture.rs";
const CONTROLLER: &str = "crates/lbcore/src/fixture.rs";

fn fixtures_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
}

fn analyze_fixture(name: &str, pretend: &str) -> Vec<Violation> {
    let path = fixtures_dir().join(format!("{name}.rs"));
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    simlint::analyze(&[(pretend.to_string(), text)], &Config::default())
}

/// Compares the fixture's JSON report against the pinned golden file,
/// or rewrites the golden file when `UPDATE_GOLDEN` is set.
fn golden(name: &str, pretend: &str) {
    let got = simlint::render_json(&analyze_fixture(name, pretend));
    let expected_path = fixtures_dir().join(format!("{name}.expected.json"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&expected_path, &got)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", expected_path.display()));
        return;
    }
    let want = fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run UPDATE_GOLDEN=1 cargo test -p simlint --test golden",
            expected_path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name}: JSON report drifted from the pinned golden file"
    );
}

/// Asserts the fixture produces exactly these rule ids, in order.
fn rules_of(name: &str, pretend: &str) -> Vec<&'static str> {
    analyze_fixture(name, pretend)
        .iter()
        .map(|v| v.rule)
        .collect()
}

#[test]
fn g2_non_total_comparator() {
    assert_eq!(rules_of("g2", CONTROLLER), vec!["G2"]);
    golden("g2", CONTROLLER);
}

#[test]
fn g3_seq_truncation_is_warn_tier() {
    let vs = analyze_fixture("g3", DETERMINISTIC);
    assert_eq!(vs.iter().map(|v| v.rule).collect::<Vec<_>>(), vec!["G3"]);
    assert_eq!(vs[0].severity.as_str(), "warn");
    assert!(!vs[0].baselined);
    golden("g3", DETERMINISTIC);
}

#[test]
fn fixtures_out_of_scope_are_silent() {
    // The same dirty sources produce nothing outside their rule scopes.
    for name in ["g2", "g3"] {
        assert!(
            rules_of(name, "crates/bench/src/fixture.rs").is_empty(),
            "{name} fired outside every scope"
        );
    }
}
