//! Offline stand-in for `criterion`.
//!
//! Mirrors the API surface the workspace's benches use — `Criterion`
//! builder, benchmark groups, `bench_function` / `bench_with_input`,
//! `Bencher::iter` / `iter_batched`, `BenchmarkId`, `Throughput`,
//! `BatchSize`, and the `criterion_group!` / `criterion_main!` macros —
//! with a simple wall-clock measurement loop instead of criterion's
//! statistical machinery. Reports mean and best ns/iter per benchmark.

#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark harness measures host wall-clock by definition"
)]

use std::sync::Mutex;
use std::time::{Duration, Instant};
use ts_obs::json::Value;

pub use std::hint::black_box;

/// Results accumulated by [`run_one`], drained by [`finalize`].
/// `(label, mean_ns, best_ns, samples)` per finished benchmark.
static RESULTS: Mutex<Vec<(String, f64, f64, usize)>> = Mutex::new(Vec::new());

/// Write every benchmark result recorded so far as a JSON artifact to the
/// path named by the `TS_BENCH_OUT` environment variable (no-op when the
/// variable is unset). Called automatically by [`criterion_main!`]-generated
/// mains after all groups finish, so CI can collect e.g. `BENCH_e2e.json`.
pub fn finalize() {
    let Ok(path) = std::env::var("TS_BENCH_OUT") else {
        return;
    };
    let rows = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
    let out = Value::Array(
        rows.iter()
            .map(|(label, mean, best, samples)| {
                Value::object([
                    ("name", Value::Str(label.clone())),
                    ("mean_ns", Value::Float(*mean)),
                    ("best_ns", Value::Float(*best)),
                    ("samples", Value::Int(*samples as u64)),
                ])
            })
            .collect(),
    )
    .to_pretty()
        + "\n";
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("criterion shim: cannot write {path}: {e}");
    }
}

/// Record a deterministic *modeled* cost row alongside the wall-clock
/// benchmarks. Modeled rows are pure functions of configuration and state —
/// identical on every host — so CI's bench-regression gate diffs only them
/// (wall-clock rows vary with host load and are reported but never gated).
/// The row appears in the `TS_BENCH_OUT` artifact with `samples = 1` and
/// `mean_ns == best_ns == ns`.
pub fn record_modeled(label: &str, ns: f64) {
    RESULTS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((label.to_string(), ns, ns, 1));
    println!("{label:<48} modeled {ns:>12.1} ns");
}

/// Top-level harness configuration and entry point.
#[derive(Debug, Clone)]
pub struct Criterion {
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(200),
            sample_size: 10,
        }
    }
}

impl Criterion {
    /// Set the time budget for measuring each benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Set the warm-up time before measurement.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Set the number of timing samples to collect.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_string(),
            config: self.clone(),
            throughput: None,
        }
    }

    /// Run a single named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, &self.clone(), None, &mut f);
        self
    }
}

/// Throughput annotation used to report rates alongside times.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// How `iter_batched` amortises setup cost (accepted for compatibility;
/// this shim always times routine-only, per call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{}", function.into(), parameter))
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup {
    name: String,
    config: Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n.max(2);
        self
    }

    /// Override the measurement time for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.config.measurement_time = d;
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark a closure against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.0);
        run_one(&label, &self.config, self.throughput, &mut |b| f(b, input));
        self
    }

    /// Benchmark a closure with no explicit input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into().0);
        run_one(&label, &self.config, self.throughput, &mut f);
        self
    }

    /// End the group (no-op; kept for API parity).
    pub fn finish(self) {}
}

/// Either a `&str` or a [`BenchmarkId`] (group `bench_function` accepts both).
pub struct BenchId(String);

impl From<&str> for BenchId {
    fn from(s: &str) -> Self {
        BenchId(s.to_string())
    }
}

impl From<String> for BenchId {
    fn from(s: String) -> Self {
        BenchId(s)
    }
}

impl From<BenchmarkId> for BenchId {
    fn from(id: BenchmarkId) -> Self {
        BenchId(id.0)
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher<'a> {
    config: &'a Criterion,
    /// (total_ns, iters) samples collected by `iter`/`iter_batched`.
    samples: Vec<(u128, u64)>,
}

impl Bencher<'_> {
    /// Time a routine: per-sample batches sized so each batch is long
    /// enough to measure, within the configured measurement budget.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up, and calibrate iterations per batch.
        let warm_deadline = Instant::now() + self.config.warm_up_time;
        let mut warm_iters: u64 = 0;
        let warm_start = Instant::now();
        loop {
            black_box(f());
            warm_iters += 1;
            if Instant::now() >= warm_deadline {
                break;
            }
        }
        let per_iter_ns =
            (warm_start.elapsed().as_nanos() / warm_iters.max(1) as u128).max(1) as u64;
        let budget_ns = self.config.measurement_time.as_nanos() as u64;
        let per_sample_ns = budget_ns / self.config.sample_size as u64;
        let iters_per_sample = (per_sample_ns / per_iter_ns).clamp(1, 1_000_000);

        for _ in 0..self.config.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            self.samples
                .push((start.elapsed().as_nanos(), iters_per_sample));
        }
    }

    /// Time a routine whose input is rebuilt (untimed) before every call.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        // Warm-up: one call.
        black_box(routine(setup()));
        for _ in 0..self.config.sample_size {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push((start.elapsed().as_nanos(), 1));
        }
    }
}

fn run_one(
    label: &str,
    config: &Criterion,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    let mut b = Bencher {
        config,
        samples: Vec::new(),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{label:<48} (no samples)");
        return;
    }
    let per_iter: Vec<f64> = b
        .samples
        .iter()
        .map(|&(ns, iters)| ns as f64 / iters.max(1) as f64)
        .collect();
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    let best = per_iter.iter().cloned().fold(f64::INFINITY, f64::min);
    RESULTS.lock().unwrap_or_else(|e| e.into_inner()).push((
        label.to_string(),
        mean,
        best,
        per_iter.len(),
    ));
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!(
                "  {:>10.1} MiB/s",
                n as f64 / (mean / 1e9) / (1024.0 * 1024.0)
            )
        }
        Some(Throughput::Elements(n)) => {
            format!("  {:>10.1} elem/s", n as f64 / (mean / 1e9))
        }
        None => String::new(),
    };
    println!("{label:<48} mean {mean:>12.1} ns/iter  best {best:>12.1} ns/iter{rate}");
}

/// Define a benchmark group function, with or without a custom config.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $cfg;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Define `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Accept and ignore harness CLI flags (e.g. `--bench`).
            let _args: Vec<String> = std::env::args().collect();
            $( $group(); )+
            // Emit the JSON artifact when TS_BENCH_OUT is set.
            $crate::finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Criterion {
        Criterion::default()
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(2))
            .sample_size(3)
    }

    #[test]
    fn iter_collects_samples() {
        let mut c = quick();
        let mut g = c.benchmark_group("g");
        g.sample_size(3).throughput(Throughput::Bytes(4096));
        g.bench_with_input(BenchmarkId::from_parameter("x"), &41u64, |b, &v| {
            b.iter(|| black_box(v + 1))
        });
        g.finish();
        c.bench_function("plain", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
    }
}
