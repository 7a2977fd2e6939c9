#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the measurement harness times host wall-clock by definition and prints tables; it feeds no pinned artifact"
)]

//! # ts-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index). Each binary prints a human-readable table plus machine-readable
//! JSON lines (prefixed `#json `) so results can be post-processed.
//!
//! Shared here: the policy-run helper used by every end-to-end figure, the
//! experiment-scale knobs (overridable via environment variables so figures
//! can be re-run larger), and row formatting.

use tierscape_core::prelude::*;
use ts_obs::json::Value;
use ts_sim::{Fidelity, SimConfig, TieredSystem};
use ts_telemetry::TelemetryConfig;
use ts_workloads::{Scale, WorkloadId};

/// Experiment scale knobs, from environment variables with sane defaults:
///
/// * `TS_SCALE_DIV` — RSS divisor vs the paper (default 1024: GBs -> MBs).
/// * `TS_WINDOWS` — profile windows per run (default 12).
/// * `TS_WINDOW_ACCESSES` — access events per window (default 150000).
/// * `TS_SEED` — RNG seed (default 42).
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Workload scale relative to the paper's RSS.
    pub scale: Scale,
    /// Profile windows per run.
    pub windows: u64,
    /// Access events per window.
    pub window_accesses: u64,
    /// Seed.
    pub seed: u64,
}

impl BenchScale {
    /// Read the knobs from the environment.
    pub fn from_env() -> Self {
        let div: f64 = std::env::var("TS_SCALE_DIV")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1024.0);
        BenchScale {
            scale: Scale(1.0 / div),
            windows: env_u64("TS_WINDOWS", 12),
            window_accesses: env_u64("TS_WINDOW_ACCESSES", 150_000),
            seed: env_u64("TS_SEED", 42),
        }
    }

    /// Daemon config for this scale. The sampling period is denser than the
    /// paper's 5000 because scaled-down runs see proportionally fewer events.
    pub fn daemon_config(&self) -> DaemonConfig {
        DaemonConfig {
            telemetry: TelemetryConfig {
                sample_period: 29,
                ..TelemetryConfig::default()
            },
            window_accesses: self.window_accesses,
            windows: self.windows,
            ..DaemonConfig::default()
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Which system shape a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// DRAM + NVMM + CT-1 + CT-2 (§8.1 "standard mix").
    StandardMix,
    /// DRAM + C1, C2, C4, C7, C12 (§8.3 "spectrum").
    Spectrum,
    /// DRAM + NVMM only (HeMem* baseline shape).
    DramNvmm,
    /// DRAM + one CT-1-style tier (GSwap* baseline shape).
    SingleCt1,
    /// DRAM + one CT-2-style tier (TMO* baseline shape).
    SingleCt2,
}

impl Setup {
    /// Build the simulator config for workload `rss`.
    ///
    /// Applies the `TS_COMPUTE_NS` per-access application compute cost
    /// (default 200 ns), so reported slowdowns are application-level like
    /// the paper's rather than raw-memory-time ratios.
    pub fn sim_config(self, rss: u64, seed: u64) -> SimConfig {
        let compute: f64 = std::env::var("TS_COMPUTE_NS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200.0);
        self.sim_config_raw(rss, seed).with_compute_ns(compute)
    }

    /// Build the simulator config without the compute-cost adjustment.
    pub fn sim_config_raw(self, rss: u64, seed: u64) -> SimConfig {
        match self {
            Setup::StandardMix => SimConfig::standard_mix(rss, Fidelity::Modeled, seed),
            Setup::Spectrum => SimConfig::spectrum(rss, Fidelity::Modeled, seed),
            Setup::DramNvmm => SimConfig::dram_nvmm(rss, Fidelity::Modeled, seed),
            Setup::SingleCt1 => {
                SimConfig::single_ct(rss, ts_zswap::TierConfig::ct1(), Fidelity::Modeled, seed)
            }
            Setup::SingleCt2 => {
                SimConfig::single_ct(rss, ts_zswap::TierConfig::ct2(), Fidelity::Modeled, seed)
            }
        }
    }
}

/// Run one policy over one workload and return the report.
pub fn run_policy(
    workload: WorkloadId,
    setup: Setup,
    policy: &mut dyn PlacementPolicy,
    bs: &BenchScale,
) -> RunReport {
    let w = workload.build(bs.scale, bs.seed);
    let rss = w.rss_bytes();
    let mut system =
        TieredSystem::new(setup.sim_config(rss, bs.seed), w).expect("benchmark setups are valid");
    run_daemon(&mut system, policy, &bs.daemon_config())
}

/// The full policy roster for the standard-mix comparison (Fig. 7):
/// `(policy, setup)` pairs — the baselines run on their native two-tier
/// shapes, the TierScape models on the standard mix.
pub fn fig7_roster() -> Vec<(Box<dyn PlacementPolicy>, Setup, &'static str)> {
    vec![
        (
            Box::new(ThresholdPolicy::hemem(25.0)),
            Setup::DramNvmm,
            "HeMem*",
        ),
        (
            Box::new(ThresholdPolicy::gswap(25.0)),
            Setup::SingleCt1,
            "GSwap*",
        ),
        (
            Box::new(ThresholdPolicy::tmo(25.0, 0)),
            Setup::SingleCt2,
            "TMO*",
        ),
        (
            Box::new(WaterfallModel::new(25.0)),
            Setup::StandardMix,
            "WF",
        ),
        (
            Box::new(AnalyticalModel::am_tco()),
            Setup::StandardMix,
            "AM-TCO",
        ),
        (
            Box::new(AnalyticalModel::am_perf()),
            Setup::StandardMix,
            "AM-perf",
        ),
    ]
}

/// The Fig. 7 workload set (Table 2 minus nothing — all eight).
pub fn fig7_workloads() -> Vec<WorkloadId> {
    WorkloadId::ALL.to_vec()
}

/// Print a table header.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", cols.join("\t"));
}

/// Print one experiment row both human-readable and as a JSON line.
pub fn row(values: &[(&str, Value)]) {
    let human: Vec<String> = values
        .iter()
        .map(|(_, v)| match v {
            Value::Float(f) if f.fract().abs() < 1e-12 && f.abs() < 1e15 => {
                format!("{}", *f as i64)
            }
            Value::Float(f) => format!("{f:.3}"),
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        })
        .collect();
    println!("{}", human.join("\t"));
    let obj = Value::object(values.iter().map(|(k, v)| (*k, v.clone())));
    println!("#json {obj}");
}

/// Shorthand for numeric JSON values.
pub fn num(v: f64) -> Value {
    Value::Float(v)
}

/// Shorthand for string JSON values.
pub fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// Percent formatting helper (0.153 -> 15.3).
pub fn pct(frac: f64) -> f64 {
    (frac * 1000.0).round() / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults() {
        let bs = BenchScale::from_env();
        assert!(bs.windows > 0);
        assert!(bs.window_accesses > 0);
        assert!(bs.scale.0 > 0.0);
    }

    #[test]
    fn all_setups_build() {
        for setup in [
            Setup::StandardMix,
            Setup::Spectrum,
            Setup::DramNvmm,
            Setup::SingleCt1,
            Setup::SingleCt2,
        ] {
            let cfg = setup.sim_config(32 << 20, 1);
            assert!(cfg.dram_bytes > 0);
        }
    }

    #[test]
    fn quick_policy_run() {
        let bs = BenchScale {
            scale: Scale::TEST,
            windows: 2,
            window_accesses: 10_000,
            seed: 1,
        };
        let mut policy = AnalyticalModel::am_tco();
        let report = run_policy(
            WorkloadId::MemcachedYcsb,
            Setup::StandardMix,
            &mut policy,
            &bs,
        );
        assert_eq!(report.windows.len(), 2);
    }

    #[test]
    fn pct_rounds() {
        assert_eq!(pct(0.1534), 15.3);
        assert_eq!(pct(0.0), 0.0);
    }

    #[test]
    fn roster_is_complete() {
        assert_eq!(fig7_roster().len(), 6);
        assert_eq!(fig7_workloads().len(), 8);
    }
}
