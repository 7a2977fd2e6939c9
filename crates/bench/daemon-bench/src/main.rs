//! Daemon benchmark: end-to-end metrics from an untraced `run_daemon`, and
//! per-layer metrics from a traced re-drive of the same run.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/daemon-bench/Cargo.toml -- \
//!     --workload <kv-am-real|hpc-am-fine|kv-waterfall-real|all> \
//!     --seed <n> --seconds <n> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! One run of a workload spends its `--seconds` in three parts: untraced
//! daemon runs over the workload's sub-seeds, each in a fresh child process
//! (end-to-end metrics), traced runs in this process (per-layer metrics)
//! and the isolated codec/pool/fill replay. Every traced run must reproduce
//! the untraced run bit for bit (see `digest`); a mismatch fails the run.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`, holding the end-to-end metrics with `--trace 0`
//! and the per-layer ones with `--trace 1`. See README.md for the metric
//! map.

mod digest;
mod isolated;
mod spec;
mod traced;

use digest::RunDigest;
use spec::{Spec, SPECS, WINDOWS};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tierscape_core::run_daemon;

/// Traced runs per benchmark run, at least.
const MIN_TRACED: usize = 1;
/// Share of `--seconds` the untraced runs fill; the traced runs fill the
/// rest up to `TRACED_UNTIL`.
const UNTRACED_UNTIL: f64 = 0.7;
const TRACED_UNTIL: f64 = 0.9;

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (never expected) are reported as 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    /// `--child <k>`: make one untraced run of sub-seed `k` in this process
    /// and report it to the parent (see [`child_main`]).
    child: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: ts-daemon-bench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1> \
         [--out-dir <dir>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && Spec::by_name(&value).is_none() {
                    return Err(bad("unknown workload"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected an integer"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("expected 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            "--child" => child = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        child,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-name medians of several runs' metric lists (order of the first).
fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for run in runs {
        for m in run {
            by_name.entry(&m.name).or_default().push(m.value);
        }
    }
    first
        .iter()
        .map(|m| Metric::new(m.name.clone(), median(&by_name[m.name.as_str()]), m.unit))
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unavailable".into(),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

/// Everything one benchmark run of a workload measured.
struct Outcome {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    attempted: u64,
    failed: u64,
    untraced_fingerprint: u64,
    traced_fingerprints: Vec<u64>,
    spans: Vec<traced::Span>,
    overhead_pct: f64,
}

/// One untraced run, reported back by a `--child` process.
struct ChildRun {
    setup_s: f64,
    run_s: f64,
    peak_rss_mib: f64,
    /// `tco_savings_pct`, `slowdown_pct`, `daemon_tax_pct`, `p95_access_ns`.
    modeled: [f64; 4],
    total_pages: u64,
    digest: RunDigest,
}

/// `--child <k>`: set up and run sub-seed `k` untraced, then print one
/// `child` line of words: setup, run time, VmHWM and the four modeled
/// metrics as f64 bits, the page count, and the run's digest.
fn child_main(spec: &Spec, seed: u64, k: usize) -> ExitCode {
    let t = Instant::now();
    let mut system = match spec.build_system(spec.sub_seed(seed, k)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    let setup_s = t.elapsed().as_secs_f64();
    let mut policy = spec.policy();
    let t = Instant::now();
    let report = run_daemon(&mut system, policy.as_mut(), &spec.daemon_config());
    let run_s = t.elapsed().as_secs_f64();
    let Some(peak) = peak_rss_mib() else {
        eprintln!("VmHWM not readable from /proc/self/status");
        return ExitCode::FAILURE;
    };
    let floats = [
        setup_s,
        run_s,
        peak,
        report.tco_savings() * 100.0,
        report.slowdown() * 100.0,
        report.tax_fraction() * 100.0,
        report.perf.p95_ns,
    ];
    let mut words: Vec<u64> = floats.iter().map(|f| f.to_bits()).collect();
    words.push(system.total_pages());
    words.extend(RunDigest::of_report(&report).to_words());
    let words: Vec<String> = words.iter().map(u64::to_string).collect();
    println!("child {}", words.join(" "));
    ExitCode::SUCCESS
}

/// Run sub-seed `k` untraced in a fresh process; `None` when the child
/// panicked, failed or reported nothing readable.
fn run_child(exe: &Path, spec: &Spec, seed: u64, k: usize) -> Option<ChildRun> {
    let out = std::process::Command::new(exe)
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", "--child", &k.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find_map(|l| l.strip_prefix("child "))?;
    let words: Vec<u64> = line
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let digest = RunDigest::from_words(words.get(8..)?)?;
    let f = |i: usize| f64::from_bits(words[i]);
    Some(ChildRun {
        setup_s: f(0),
        run_s: f(1),
        peak_rss_mib: f(2),
        modeled: [f(3), f(4), f(5), f(6)],
        total_pages: words[7],
        digest,
    })
}

fn run_workload(spec: &Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let budget = seconds as f64;
    let start = Instant::now();
    let elapsed = || start.elapsed().as_secs_f64();
    let expected_accesses = WINDOWS * spec.window_accesses;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;

    // Untraced: one fresh process per run, cycling through the sub-seeds
    // until every one has run once and the time share is used. The first
    // run of each sub-seed is its reference; later runs must repeat it
    // exactly.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut references: Vec<Option<RunDigest>> = vec![None; spec.sub_seeds];
    let mut modeled: Vec<[f64; 4]> = Vec::new();
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut untraced_0 = Vec::new();
    let mut peak_rss = 0.0f64;
    let mut runs = 0;
    while runs < spec.sub_seeds || elapsed() < UNTRACED_UNTIL * budget {
        let k = runs % spec.sub_seeds;
        runs += 1;
        attempted += WINDOWS;
        let Some(c) = run_child(&exe, spec, seed, k) else {
            println!("untraced run {runs} (sub-seed {k}): failed");
            failed += WINDOWS;
            continue;
        };
        println!("untraced run {runs} (sub-seed {k}): {:.3} s", c.run_s);
        setup_s.push(c.setup_s);
        rates.push(c.digest.accesses as f64 / c.run_s);
        if k == 0 {
            untraced_0.push(c.run_s);
        }
        // One run of every sub-seed: the peak of the largest footprint.
        if runs <= spec.sub_seeds {
            peak_rss = peak_rss.max(c.peak_rss_mib);
        }
        let reference = references[k].get_or_insert_with(|| {
            modeled.push(c.modeled);
            c.digest.clone()
        });
        failed += c
            .digest
            .failed_windows(reference, WINDOWS, c.total_pages, expected_accesses);
    }
    let Some(reference) = references[0].clone() else {
        return Err("the first sub-seed's untraced run failed".into());
    };

    // Traced: always sub-seed 0, so its counts repeat exactly.
    let mut traced_runs = Vec::new();
    let mut traced_s = Vec::new();
    let mut traced_fingerprints = Vec::new();
    let mut spans = Vec::new();
    let mut tiers = Vec::new();
    let mut traced_started = 0;
    while traced_started < MIN_TRACED || elapsed() < TRACED_UNTIL * budget {
        traced_started += 1;
        let mut system = spec.build_system(spec.sub_seed(seed, 0))?;
        let total_pages = system.total_pages();
        attempted += WINDOWS;
        let run = catch_unwind(AssertUnwindSafe(|| traced::run(spec, &mut system)));
        let Ok(run) = run else {
            failed += WINDOWS;
            continue;
        };
        failed += run
            .digest
            .failed_windows(&reference, WINDOWS, total_pages, expected_accesses);
        traced_fingerprints.push(run.digest.fingerprint());
        traced_s.push(run.wall_s);
        println!("traced run {}: {:.3} s", traced_s.len(), run.wall_s);
        spans = run.spans;
        tiers = system
            .config()
            .compressed_tiers
            .iter()
            .enumerate()
            .map(|(i, t)| (t.algorithm, t.pool, system.tier_stats(i).stores))
            .collect();
        traced_runs.push(run.metrics);
    }

    let system = spec.build_system(spec.sub_seed(seed, 0))?;
    let iso = isolated::replay(system.workload(), spec.sub_seed(seed, 0));
    attempted += iso.attempted;
    failed += iso.failed;

    // Traced runs use sub-seed 0: compare with the untraced runs of it.
    let overhead_pct = (median(&traced_s) / median(&untraced_0) - 1.0) * 100.0;
    let mut per_layer = median_metrics(&traced_runs);
    per_layer.extend(iso.metrics());
    per_layer.push(Metric::new(
        "isolated.store_path_us",
        iso.store_path_us(&tiers),
        "us",
    ));
    per_layer.push(Metric::new("trace.overhead_pct", overhead_pct, "%"));

    let mean = |i: usize| modeled.iter().map(|m| m[i]).sum::<f64>() / modeled.len() as f64;
    let end_to_end = vec![
        Metric::new("sim_accesses_per_s", median(&rates), "1/s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mib", peak_rss, "MiB"),
        Metric::new("tco_savings_pct", mean(0), "%"),
        Metric::new("slowdown_pct", mean(1), "%"),
        Metric::new("daemon_tax_pct", mean(2), "%"),
        Metric::new("p95_access_ns", mean(3), "model-ns"),
    ];
    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted,
        failed,
        untraced_fingerprint: reference.fingerprint(),
        traced_fingerprints,
        spans,
        overhead_pct,
    })
}

/// Write the spans and a run summary under `out_dir`.
fn write_artifacts(
    out_dir: &Path,
    spec: &Spec,
    seed: u64,
    o: &Outcome,
    correct: bool,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let spans_path = out_dir.join(format!("{}.spans.jsonl", spec.name));
    std::fs::write(&spans_path, traced::spans_jsonl(&o.spans))?;
    let fps: Vec<String> = o
        .traced_fingerprints
        .iter()
        .map(|f| format!("\"{f:016x}\""))
        .collect();
    let summary = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"nproc\": {}, \"commit\": \"{}\", \
         \"correct\": {correct}, \"untraced_digest\": \"{:016x}\", \"traced_digests\": [{}], \
         \"trace_overhead_pct\": {}, \"access_sample\": {}, \"end_to_end\": {}, \
         \"per_layer\": {}}}\n",
        spec.name,
        nproc(),
        commit(),
        o.untraced_fingerprint,
        fps.join(", "),
        o.overhead_pct,
        traced::ACCESS_SAMPLE,
        json_metrics(&o.end_to_end),
        json_metrics(&o.per_layer),
    );
    std::fs::write(out_dir.join(format!("{}.summary.json", spec.name)), summary)?;
    Ok(spans_path)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<32} {:>20.6} {}", m.name, m.value, m.unit);
    }
}

fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} | host nproc {} commit {}",
        spec.name,
        args.seed,
        args.seconds,
        nproc(),
        commit()
    );
    let outcome = match run_workload(spec, args.seed, args.seconds) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    print_metrics("end-to-end (untraced)", &outcome.end_to_end);
    print_metrics(
        "per-layer (traced; workloads.fill_page_us is harness time)",
        &outcome.per_layer,
    );
    println!(
        "digest untraced {:016x}, traced {:x?}; trace overhead {:.1} %",
        outcome.untraced_fingerprint, outcome.traced_fingerprints, outcome.overhead_pct
    );
    match write_artifacts(&args.out_dir, spec, args.seed, &outcome, correct) {
        Ok(path) => println!("spans: {}", path.display()),
        Err(e) => {
            eprintln!("writing artifacts under {}: {e}", args.out_dir.display());
            return ExitCode::FAILURE;
        }
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} operations failed the correctness check",
            spec.name, outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

/// A child process's result line, parsed back.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, {"value": .., "unit": ..})` pairs, the object kept as text.
    metrics: Vec<(String, String)>,
}

/// Parse a result line written by [`result_line`].
fn parse_result_line(line: &str) -> Option<ChildResult> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find(',')?])
    };
    let body = line.split_once("\"metrics\": {")?.1;
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let (name, value) = entry.split_once(": ")?;
        let value = value.trim_end_matches('}');
        metrics.push((name.trim_matches('"').to_string(), format!("{value}}}")));
    }
    Some(ChildResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// `--workload all`: each workload in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for spec in &SPECS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: cannot run: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        match stdout.lines().last().and_then(parse_result_line) {
            Some(r) if out.status.success() => {
                correct &= r.correct;
                attempted += r.attempted;
                failed += r.failed;
                metrics.extend(
                    r.metrics
                        .into_iter()
                        .map(|(n, v)| (format!("{}/{n}", spec.name), v)),
                );
            }
            _ => {
                eprintln!("{}: failed ({})", spec.name, out.status);
                correct = false;
            }
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match (Spec::by_name(&args.workload), args.child) {
        (Some(spec), Some(k)) => child_main(&spec, args.seed, k),
        (Some(spec), None) => run_one(&spec, &args),
        (None, None) => run_all(&args),
        (None, Some(_)) => {
            eprintln!("--child needs a single workload\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            Metric::new("setup_s", 0.25, "s"),
            Metric::new("zswap.ct0.ratio", 2.5, "x"),
        ];
        let line = result_line(true, 36, 0, &metrics);
        let r = parse_result_line(&line).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (36, 0));
        let m = r.metrics;
        assert_eq!(m[0].0, "setup_s");
        assert_eq!(m[0].1, "{\"value\": 0.25, \"unit\": \"s\"}");
        assert_eq!(m[1].1, "{\"value\": 2.5, \"unit\": \"x\"}");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
