//! `lbtrace` command-line checks: a question the capture cannot answer
//! (a backend it does not have, a file the subcommand would not read) is
//! a usage error, exit status 2, not an empty answer.

use std::path::PathBuf;
use std::process::{Command, Output};

use telemetry::{JournalEvent, WeightCause};

/// A two-backend capture: the `Init` weights every LB journals at start,
/// two samples per backend, then one controller shift off backend 0.
fn two_backend_capture(name: &str) -> PathBuf {
    let weights = |at, cause, victim, weights: [f64; 2]| JournalEvent::WeightUpdate {
        at,
        cause,
        victim,
        moved: 0.0,
        weights: weights.to_vec(),
    };
    let sample = |at, backend, t_lb| JournalEvent::Sample {
        at,
        backend,
        src_ip: 0x0a00_0001,
        src_port: 40_000,
        delta: 1_000,
        t_lb,
    };
    let events = vec![
        weights(0, WeightCause::Init, None, [0.5, 0.5]),
        sample(100, 0, 2_000),
        sample(200, 1, 1_000),
        sample(300, 0, 2_500),
        sample(400, 1, 1_100),
        weights(500, WeightCause::Controller, Some(0), [0.3, 0.7]),
    ];
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, telemetry::log::to_ndjson(events)).unwrap();
    path
}

fn lbtrace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lbtrace"))
        .args(args)
        .output()
        .unwrap()
}

/// Exit status 2, nothing on stdout, and `needle` on stderr.
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "printed an answer: {:?}", out.stdout);
    assert!(
        stderr.contains(needle),
        "{needle:?} not in stderr: {stderr}"
    );
}

#[test]
fn a_backend_the_capture_has_is_answered() {
    let file = two_backend_capture("known_backend.ndjson");
    let file = file.to_str().unwrap();
    let out = lbtrace(&["samples", file, "--backend", "1"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("backend 1: 2 sample(s)"));
    let out = lbtrace(&["reaction", file, "--inject", "250", "--backend", "0"]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).starts_with("backend 0: weight < 0.5 at t = 500 ns")
    );
}

#[test]
fn a_backend_the_capture_lacks_is_a_usage_error() {
    let file = two_backend_capture("unknown_backend.ndjson");
    let file = file.to_str().unwrap();
    let expected = "--backend 9 is out of range: the capture has 2 backend(s)";
    assert_usage_error(&lbtrace(&["samples", file, "--backend", "9"]), expected);
    assert_usage_error(
        &lbtrace(&["reaction", file, "--inject", "250", "--backend", "9"]),
        expected,
    );
    assert_usage_error(
        &lbtrace(&["samples", file, "--backend", "2"]),
        "the capture has 2 backend(s)",
    );
}

#[test]
fn a_second_file_on_a_one_file_subcommand_is_a_usage_error() {
    let file = two_backend_capture("second_file.ndjson");
    let file = file.to_str().unwrap();
    for cmd in ["samples", "explain", "ejections"] {
        assert_usage_error(
            &lbtrace(&[cmd, file, file]),
            &format!("{cmd} takes 1 file(s), got 2"),
        );
    }
    assert_usage_error(
        &lbtrace(&["reaction", file, file, "--inject", "250"]),
        "reaction takes 1 file(s), got 2",
    );
    // Several journals are one per shard, and summary reads them all.
    assert!(lbtrace(&["summary", file, file]).status.success());
}
