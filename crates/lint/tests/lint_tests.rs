//! Integration tests for ts-lint: fixture coverage (each rule fires exactly
//! once on its fixture tree), the workspace self-check under the shipped
//! budget, the ratchet semantics, and the binary's exit codes.

use std::path::{Path, PathBuf};
use std::process::Command;

use ts_lint::{budget::Budget, reconcile, scan_root, Rule, BUDGET_REL_PATH};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

/// Scan a fixture tree and return (live, suppressed) findings.
fn scan_fixture(name: &str) -> (Vec<ts_lint::Finding>, Vec<ts_lint::Finding>) {
    let findings = scan_root(&fixture(name)).expect("fixture tree scans");
    findings.into_iter().partition(|f| !f.suppressed)
}

#[test]
fn each_rule_fixture_triggers_exactly_once() {
    let cases = [
        ("wall_clock", Rule::NoWallClock),
        ("unordered_iter", Rule::NoUnorderedIter),
        ("bare_unwrap", Rule::NoBareUnwrap),
        ("float_ordering", Rule::FloatOrdering),
        ("thread_hygiene", Rule::ThreadHygiene),
        ("bad_allow", Rule::BadAllow),
    ];
    for (name, rule) in cases {
        let (live, _) = scan_fixture(name);
        assert_eq!(live.len(), 1, "{name}: expected one finding, got {live:?}");
        assert_eq!(live[0].rule, rule, "{name}");
    }
}

#[test]
fn clean_fixture_has_no_live_findings_and_one_suppression() {
    let (live, suppressed) = scan_fixture("clean");
    assert!(live.is_empty(), "clean fixture must be clean: {live:?}");
    assert_eq!(suppressed.len(), 1, "{suppressed:?}");
    assert_eq!(suppressed[0].rule, Rule::NoWallClock);
    assert!(suppressed[0].reason.is_some());
}

#[test]
fn workspace_passes_under_shipped_budget() {
    let root = workspace_root();
    let findings = scan_root(&root).expect("workspace scans");
    let budget_path = root.join(BUDGET_REL_PATH);
    let text = std::fs::read_to_string(&budget_path)
        .unwrap_or_else(|e| panic!("shipped budget {} must exist: {e}", budget_path.display()));
    let budget = Budget::parse(&text).expect("shipped budget parses");
    let rec = reconcile(&findings, &budget);
    assert!(
        rec.ok(),
        "workspace exceeds its lint budget: {:?}",
        rec.over
    );
    // Every suppression must carry a reason (the scanner only suppresses
    // with one, so this is a sanity check on the invariant).
    for f in findings.iter().filter(|f| f.suppressed) {
        assert!(f.reason.is_some(), "suppressed without reason: {f:?}");
    }
}

#[test]
fn ratchet_counts_only_decrease() {
    // A budget above the live count is stale (must be ratcheted down), a
    // budget below it fails; equality is the steady state.
    let findings = scan_root(&fixture("bare_unwrap")).expect("fixture scans");
    let live = findings.iter().filter(|f| !f.suppressed).count() as u64;
    assert_eq!(live, 1);

    let mut exact = Budget::default();
    exact.set("no-bare-unwrap", "crates/core/src/lib.rs", live);
    let rec = reconcile(&findings, &exact);
    assert!(rec.ok() && rec.stale.is_empty());

    let mut loose = Budget::default();
    loose.set("no-bare-unwrap", "crates/core/src/lib.rs", live + 3);
    let rec = reconcile(&findings, &loose);
    assert!(rec.ok());
    assert_eq!(rec.stale.len(), 1, "looser budget must be reported stale");

    let tight = Budget::default();
    let rec = reconcile(&findings, &tight);
    assert!(!rec.ok(), "zero budget must fail on a live finding");
}

#[test]
fn budget_round_trips_through_json() {
    let mut b = Budget::default();
    b.set("no-bare-unwrap", "crates/core/src/daemon.rs", 2);
    b.set("no-wall-clock", "crates/core/src/analytic.rs", 1);
    let parsed = Budget::parse(&b.to_json()).expect("round trip");
    assert_eq!(parsed.entries, b.entries);
}

// --- binary-level checks -------------------------------------------------

fn ts_lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ts-lint"))
}

#[test]
fn binary_exits_zero_on_workspace() {
    let out = ts_lint()
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("ts-lint runs");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_exits_nonzero_on_each_rule_fixture() {
    for name in [
        "wall_clock",
        "unordered_iter",
        "bare_unwrap",
        "float_ordering",
        "thread_hygiene",
        "bad_allow",
    ] {
        let out = ts_lint()
            .arg("--root")
            .arg(fixture(name))
            .arg("--no-budget")
            .output()
            .expect("ts-lint runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_json_report_parses_and_flags_fixture() {
    let out = ts_lint()
        .arg("--root")
        .arg(fixture("float_ordering"))
        .arg("--no-budget")
        .arg("--format")
        .arg("json")
        .output()
        .expect("ts-lint runs");
    let json = String::from_utf8_lossy(&out.stdout);
    let v = ts_obs::json::parse(&json).expect("JSON output parses");
    assert!(v.get("findings").is_some());
    assert!(json.contains("\"float-ordering\""));
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn binary_usage_error_is_exit_two() {
    let out = ts_lint().arg("--bogus").output().expect("ts-lint runs");
    assert_eq!(out.status.code(), Some(2));
}
