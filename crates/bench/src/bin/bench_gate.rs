//! CI bench-regression gate over the criterion shim's `TS_BENCH_OUT`
//! artifacts (`BENCH_e2e.json`, `BENCH_solver.json`).
//!
//! Rows whose name contains `modeled` are deterministic — pure functions of
//! configuration and state, identical on every host — so they are diffed
//! exactly against the checked-in baseline and gate the build. Wall-clock
//! rows vary with host load; they ride along in the artifacts for
//! trend-watching but never fail the job.
//!
//! ```text
//! bench_gate check <baseline.json> <current.json>...   # gate CI
//! bench_gate merge <out.json> <in.json>...             # build the baseline
//! ```
//!
//! `check` fails (exit 1) when any modeled row regresses by more than 15 %
//! versus the baseline, or when a baseline modeled row disappeared. New
//! modeled rows (present now, absent from the baseline) warn and pass —
//! they start gating once `scripts/update-bench-baseline.sh` lands them.

use ts_obs::json::{self, Value};

/// Allowed relative increase of a modeled row before the gate fails.
const MAX_REGRESSION: f64 = 0.15;

/// One benchmark row, as written by the criterion shim's `finalize`.
#[derive(Debug, Clone)]
struct Row {
    name: String,
    mean_ns: f64,
    best_ns: f64,
    samples: u64,
}

impl Row {
    fn from_json(v: &Value) -> Option<Row> {
        Some(Row {
            name: v.get("name")?.as_str()?.to_string(),
            mean_ns: v.get("mean_ns")?.as_f64()?,
            best_ns: v.get("best_ns")?.as_f64()?,
            samples: v.get("samples")?.as_u64()?,
        })
    }

    fn to_json(&self) -> Value {
        Value::object([
            ("name", Value::Str(self.name.clone())),
            ("mean_ns", Value::Float(self.mean_ns)),
            ("best_ns", Value::Float(self.best_ns)),
            ("samples", Value::Int(self.samples)),
        ])
    }
}

fn read_rows(path: &str) -> Vec<Row> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let rows = match json::parse(&text) {
        Ok(Value::Array(items)) => items.iter().map(Row::from_json).collect(),
        Ok(_) => None,
        Err(e) => {
            eprintln!("bench_gate: {path} is not JSON: {e}");
            std::process::exit(2);
        }
    };
    rows.unwrap_or_else(|| {
        eprintln!("bench_gate: {path} is not an array of bench rows");
        std::process::exit(2);
    })
}

fn is_modeled(row: &Row) -> bool {
    row.name.contains("modeled")
}

fn cmd_check(baseline_path: &str, current_paths: &[String]) -> ! {
    let baseline = read_rows(baseline_path);
    let current: Vec<Row> = current_paths.iter().flat_map(|p| read_rows(p)).collect();
    let mut failures = 0usize;
    let mut compared = 0usize;

    for base in baseline.iter().filter(|r| is_modeled(r)) {
        let Some(cur) = current.iter().find(|r| r.name == base.name) else {
            eprintln!(
                "FAIL {}: present in baseline, missing from current artifacts",
                base.name
            );
            failures += 1;
            continue;
        };
        compared += 1;
        let delta = if base.mean_ns > 0.0 {
            (cur.mean_ns - base.mean_ns) / base.mean_ns
        } else if cur.mean_ns > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        if delta > MAX_REGRESSION {
            eprintln!(
                "FAIL {}: {:.1} ns -> {:.1} ns ({:+.1}% > {:.0}% budget)",
                base.name,
                base.mean_ns,
                cur.mean_ns,
                delta * 100.0,
                MAX_REGRESSION * 100.0
            );
            failures += 1;
        } else {
            println!(
                "ok   {}: {:.1} ns -> {:.1} ns ({:+.1}%)",
                base.name,
                base.mean_ns,
                cur.mean_ns,
                delta * 100.0
            );
        }
    }
    for cur in current.iter().filter(|r| is_modeled(r)) {
        if !baseline.iter().any(|b| b.name == cur.name) {
            println!(
                "new  {}: {:.1} ns (not in baseline; run scripts/update-bench-baseline.sh)",
                cur.name, cur.mean_ns
            );
        }
    }
    let wall = current.iter().filter(|r| !is_modeled(r)).count();
    println!(
        "bench_gate: {compared} modeled rows gated, {wall} wall-clock rows reported only, \
         {failures} failures"
    );
    if failures > 0 {
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn cmd_merge(out_path: &str, in_paths: &[String]) -> ! {
    let mut merged: Vec<Row> = Vec::new();
    for path in in_paths {
        for row in read_rows(path) {
            // Last writer wins so re-runs refresh earlier rows.
            merged.retain(|r| r.name != row.name);
            merged.push(row);
        }
    }
    // The baseline holds only the gated (modeled) rows: wall-clock figures
    // are host-dependent and would churn the checked-in file on every regen.
    merged.retain(is_modeled);
    merged.sort_by(|a, b| a.name.cmp(&b.name));
    let json = Value::Array(merged.iter().map(Row::to_json).collect()).to_pretty();
    std::fs::write(out_path, json + "\n").unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    println!(
        "bench_gate: wrote {} modeled rows to {out_path}",
        merged.len()
    );
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.split_first() {
        Some((cmd, rest)) if cmd == "check" && rest.len() >= 2 => {
            cmd_check(&rest[0], &rest[1..]);
        }
        Some((cmd, rest)) if cmd == "merge" && rest.len() >= 2 => {
            cmd_merge(&rest[0], &rest[1..]);
        }
        _ => {
            eprintln!(
                "USAGE:\n  bench_gate check <baseline.json> <current.json>...\n  \
                 bench_gate merge <out.json> <in.json>..."
            );
            std::process::exit(2);
        }
    }
}
