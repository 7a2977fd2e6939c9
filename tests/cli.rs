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
    for rate in ["nan", "4", "-1"] {
        assert_rejected(&["run", "--fault-rate", rate], "--fault-rate");
    }
    assert_rejected(&["advise", "--tiers", "three"], "--tiers");
}

/// The four site rates of a well-formed fault plan file.
const RATES: &str =
    r#""zswap_store": 0.1, "pool_alloc": 0.1, "migration_copy": 0.1, "capacity_pressure": 0.1"#;

/// Write `contents` to a fresh temporary file named after `tag`.
fn temp_file(tag: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("ts-cli-{}-{tag}.json", std::process::id()));
    std::fs::write(&path, contents).expect("temp file writes");
    path
}

#[test]
fn malformed_fault_plan_is_rejected() {
    // Each bad document exits 2 with a message naming the culprit field.
    let with_rates =
        |from: &str, to: &str| format!(r#"{{"seed": 7, {}}}"#, RATES.replace(from, to));
    let cases = [
        (
            format!(r#"{{"seed": 7, {RATES}, "typo_field": 1}}"#),
            r#""typo_field""#,
        ),
        (format!(r#"{{"seed": 7, "seed": 8, {RATES}}}"#), r#""seed""#),
        (format!("{{{RATES}}}"), r#""seed""#),
        (format!(r#"{{"seed": -1, {RATES}}}"#), r#""seed""#),
        (format!(r#"{{"seed": 7.5, {RATES}}}"#), r#""seed""#),
        (
            with_rates(r#""pool_alloc": 0.1"#, r#""pool_alloc": -3"#),
            r#""pool_alloc""#,
        ),
        (with_rates("0.1", "7.5"), r#""zswap_store""#),
        (with_rates("0.1", "1e999"), r#""zswap_store""#),
        ("{ not json".to_string(), "invalid fault plan"),
    ];
    for (i, (doc, needle)) in cases.iter().enumerate() {
        let path = temp_file(&format!("bad-plan-{i}"), doc);
        assert_rejected(&["run", "--fault-plan", &path.to_string_lossy()], needle);
        std::fs::remove_file(&path).expect("temp file removes");
    }
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
    let plan = temp_file("plan", &format!(r#"{{"seed": 7, {RATES}}}"#));
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
        "--fault-plan",
        &plan.to_string_lossy(),
    ]);
    std::fs::remove_file(&plan).expect("temp file removes");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("TCO savings"));
}
