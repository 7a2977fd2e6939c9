//! `tierscape-cli` argument handling: malformed input is an error with exit
//! code 2 and a message naming the culprit, never a silent default.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tierscape-cli"))
        .args(args)
        .output()
        .expect("the CLI binary runs")
}

/// Assert `args` exits with code 2 and a stderr message containing `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
}

#[test]
fn malformed_value_is_rejected() {
    assert_rejected(
        &["run", "--windows", "abc"],
        "invalid value 'abc' for --windows",
    );
    assert_rejected(&["run", "--migration-workers", "-1"], "--migration-workers");
    assert_rejected(&["run", "--fault-rate", "0.1x"], "--fault-rate");
    assert_rejected(&["advise", "--tiers", "three"], "--tiers");
}

#[test]
fn unknown_flag_is_rejected() {
    // A typo must not quietly run with the default worker count.
    assert_rejected(
        &["run", "--migration-worker", "8"],
        "unknown argument '--migration-worker'",
    );
    assert_rejected(&["list", "--verbose"], "unknown argument '--verbose'");
    assert_rejected(&["advise", "--real"], "unknown argument '--real'");
}

#[test]
fn value_flag_without_value_is_rejected() {
    assert_rejected(&["run", "--windows"], "--windows needs a value");
}

#[test]
fn unknown_choice_is_rejected() {
    assert_rejected(&["run", "--policy", "lru"], "unknown policy 'lru'");
    assert_rejected(
        &["run", "--plan-cache", "cold"],
        "unknown --plan-cache 'cold'",
    );
}

#[test]
fn well_formed_run_succeeds() {
    let out = cli(&[
        "run",
        "--windows",
        "1",
        "--accesses",
        "2000",
        "--scale-div",
        "4096",
        "--migration-workers",
        "2",
        "--real",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("TCO savings"));
}
