//! `scenariofuzz` command-line checks: an argument the subcommand does
//! not take is a usage error, exit status 2, not a run that ignores it.

use std::process::Command;

#[test]
fn a_stray_positional_argument_is_a_usage_error() {
    for args in [
        &["show", "--seed", "1", "extra"][..],
        &["replay", "a.case", "b.case"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_scenariofuzz"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed {:?}", out.stdout);
        assert!(stderr.contains("unexpected argument"), "{args:?}: {stderr}");
    }
}
