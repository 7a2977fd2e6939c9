//! Placement policies: the common interface plus the prior-work baselines.
//!
//! A policy looks at one window's cooled hotness profile and recommends a
//! destination tier per 2 MiB region. The baselines reproduce §8.1:
//!
//! * **HeMem\*** — two tiers (DRAM + NVMM), percentile hotness threshold.
//! * **GSwap\*** — DRAM + one CT-1-style compressed tier (lzo/zsmalloc/DRAM).
//! * **TMO\*** — DRAM + one CT-2-style compressed tier (zstd/zsmalloc/NVMM).
//!
//! All three use the paper's percentile-based threshold: regions with
//! hotness above the `p`-th percentile are promoted to DRAM, the rest are
//! pushed to the (single) slow tier.

use ts_sim::{Placement, TieredSystem};
use ts_telemetry::HotnessSnapshot;

/// One recommendation: place `region` in `dest`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEntry {
    /// 2 MiB region index.
    pub region: u64,
    /// Destination tier.
    pub dest: Placement,
}

/// How aggressively [`PlacementPolicy::plan`] may reuse work from the
/// previous window (the plan cache, DESIGN.md §5f).
///
/// Every mode produces bit-identical plans — the cache key is pure state
/// (hotness bits, budget bits), never timing — so the mode only changes how
/// the answer is computed, not what it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanCacheMode {
    /// Cold-solve every window from scratch.
    Off,
    /// Diff hotness against the prior window and re-solve only the dirty
    /// sub-problem, seeded with the prior solution (the default).
    #[default]
    Warm,
    /// Like `Warm`, but when *no* region changed, revalidate and reuse the
    /// stored solution outright instead of re-walking the hull.
    Reuse,
}

impl PlanCacheMode {
    /// Parse a `--plan-cache` CLI value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(PlanCacheMode::Off),
            "warm" => Some(PlanCacheMode::Warm),
            "reuse" => Some(PlanCacheMode::Reuse),
            _ => None,
        }
    }

    /// The CLI spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            PlanCacheMode::Off => "off",
            PlanCacheMode::Warm => "warm",
            PlanCacheMode::Reuse => "reuse",
        }
    }
}

/// What the plan cache decided for the last window. The decision is a pure
/// function of window state (bit-exact hotness diff against the prior
/// window), independent of [`PlanCacheMode`] — the mode only selects which
/// execution path acts on the decision, so observability counters derived
/// from it are identical across modes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PlanDecision {
    /// No prior state to lean on (first window, or shape/budget changed):
    /// full cold solve.
    #[default]
    ColdSolve,
    /// Prior state valid; only `dirty_regions` changed hotness since the
    /// last window.
    WarmSolve {
        /// Regions whose hotness bits differ from the prior window, ascending.
        dirty_regions: Vec<u64>,
    },
    /// Nothing changed: the stored plan is still the optimum.
    Reuse,
}

/// A placement policy (the "model" box of Figure 6).
pub trait PlacementPolicy: Send {
    /// Display name (e.g. "AM-TCO", "WF", "HeMem*").
    fn name(&self) -> String;

    /// Produce a full placement recommendation for the coming window.
    fn plan(&mut self, snapshot: &HotnessSnapshot, system: &TieredSystem) -> Vec<PlanEntry>;

    /// CPU time the last [`PlacementPolicy::plan`] call consumed, in ns
    /// (solver tax, Fig. 14). Zero for trivial policies.
    fn last_plan_cost_ns(&self) -> f64 {
        0.0
    }

    /// Whether the plan cost is paid locally (true) or off-loaded to a
    /// remote solver machine (false) — Fig. 14's Local/Remote modes.
    fn plan_cost_is_local(&self) -> bool {
        true
    }

    /// Solver-effort units the last [`PlacementPolicy::plan`] call spent
    /// (greedy step examinations, DP relaxations, simplex pivots or
    /// branch-and-bound nodes — whatever the backing solver counts). Zero
    /// for trivial policies; feeds the `solver.iterations` metric.
    fn last_solver_iterations(&self) -> u64 {
        0
    }

    /// Select the [`PlanCacheMode`] for subsequent [`PlacementPolicy::plan`]
    /// calls. Trivial policies that never cache ignore this.
    fn set_plan_cache_mode(&mut self, _mode: PlanCacheMode) {}

    /// What the plan cache decided for the last [`PlacementPolicy::plan`]
    /// call; feeds the `solver.warm_hits`/`solver.dirty_regions` metrics.
    /// Policies without a cache always report a cold solve.
    fn last_plan_decision(&self) -> PlanDecision {
        PlanDecision::ColdSolve
    }
}

/// Hotness of every region (zero for never-sampled regions), plus the value
/// at a given percentile. Policies share this to make thresholds cover the
/// full address space, not only sampled regions.
pub fn full_hotness(snapshot: &HotnessSnapshot, system: &TieredSystem) -> Vec<f64> {
    (0..system.total_regions())
        .map(|r| snapshot.hotness(r))
        .collect()
}

/// Value at percentile `p` (0..=100) of `values`.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// Percentile-threshold two-tier policy (HeMem*/GSwap*/TMO* depending on
/// which slow tier the system config provides).
#[derive(Debug, Clone)]
pub struct ThresholdPolicy {
    name: String,
    /// Hotness percentile separating hot (→ DRAM) from cold (→ slow tier).
    pub threshold_pct: f64,
    /// Where cold regions go.
    pub slow: Placement,
}

impl ThresholdPolicy {
    /// Create a threshold policy.
    pub fn new(name: impl Into<String>, threshold_pct: f64, slow: Placement) -> Self {
        ThresholdPolicy {
            name: name.into(),
            threshold_pct,
            slow,
        }
    }

    /// HeMem*: DRAM + NVMM byte tier.
    pub fn hemem(threshold_pct: f64) -> Self {
        Self::new("HeMem*", threshold_pct, Placement::ByteTier(0))
    }

    /// GSwap*: DRAM + a single CT-1-style compressed tier (tier index 0).
    pub fn gswap(threshold_pct: f64) -> Self {
        Self::new("GSwap*", threshold_pct, Placement::Compressed(0))
    }

    /// TMO*: DRAM + a single CT-2-style compressed tier. `tier_index` names
    /// the compressed tier to use within the system config.
    pub fn tmo(threshold_pct: f64, tier_index: usize) -> Self {
        Self::new("TMO*", threshold_pct, Placement::Compressed(tier_index))
    }
}

impl PlacementPolicy for ThresholdPolicy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn plan(&mut self, snapshot: &HotnessSnapshot, system: &TieredSystem) -> Vec<PlanEntry> {
        let hot = full_hotness(snapshot, system);
        let th = percentile_of(&hot, self.threshold_pct);
        hot.iter()
            .enumerate()
            .map(|(r, &h)| PlanEntry {
                region: r as u64,
                // Paper §8.1: above the percentile → promote to DRAM; all
                // other regions → the slow tier.
                dest: if h > th { Placement::Dram } else { self.slow },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_sim::{Fidelity, SimConfig, TieredSystem};
    use ts_telemetry::{Profiler, TelemetryConfig};
    use ts_workloads::{Scale, WorkloadId};

    fn sim() -> TieredSystem {
        let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, 3);
        let rss = w.rss_bytes();
        TieredSystem::new(SimConfig::standard_mix(rss, Fidelity::Modeled, 3), w).unwrap()
    }

    fn snapshot_from(system: &mut TieredSystem, steps: u64) -> HotnessSnapshot {
        let mut prof = Profiler::new(TelemetryConfig {
            sample_period: 11,
            ..TelemetryConfig::default()
        });
        for _ in 0..steps {
            let (a, _) = system.step();
            prof.record(a.addr, a.is_store);
        }
        prof.end_window()
    }

    #[test]
    fn percentile_helper() {
        let v: Vec<f64> = (0..101).map(|i| i as f64).collect();
        // Exact, compared bit for bit as PlanCache does.
        let bits = |x: f64| x.to_bits();
        assert_eq!(bits(percentile_of(&v, 0.0)), bits(0.0));
        assert_eq!(bits(percentile_of(&v, 100.0)), bits(100.0));
        assert_eq!(bits(percentile_of(&v, 50.0)), bits(50.0));
        assert_eq!(bits(percentile_of(&[], 50.0)), bits(0.0));
    }

    #[test]
    fn threshold_policy_splits_hot_cold() {
        let mut system = sim();
        let snap = snapshot_from(&mut system, 300_000);
        let mut pol = ThresholdPolicy::hemem(25.0);
        let plan = pol.plan(&snap, &system);
        assert_eq!(plan.len() as u64, system.total_regions());
        let to_dram = plan.iter().filter(|e| e.dest == Placement::Dram).count();
        let to_slow = plan
            .iter()
            .filter(|e| e.dest == Placement::ByteTier(0))
            .count();
        assert!(to_dram > 0 && to_slow > 0);
        // With a 25th-pct threshold most never-sampled (cold) regions demote.
        assert!(
            to_slow as f64 > plan.len() as f64 * 0.2,
            "slow {to_slow}/{}",
            plan.len()
        );
    }

    #[test]
    fn higher_threshold_demotes_more() {
        let mut system = sim();
        let snap = snapshot_from(&mut system, 300_000);
        let count_slow = |pct: f64| {
            let mut pol = ThresholdPolicy::gswap(pct);
            pol.plan(&snap, &system)
                .iter()
                .filter(|e| e.dest != Placement::Dram)
                .count()
        };
        assert!(count_slow(75.0) >= count_slow(25.0));
    }

    #[test]
    fn baseline_names() {
        assert_eq!(ThresholdPolicy::hemem(25.0).name(), "HeMem*");
        assert_eq!(ThresholdPolicy::gswap(25.0).name(), "GSwap*");
        assert_eq!(ThresholdPolicy::tmo(25.0, 1).name(), "TMO*");
        assert_eq!(ThresholdPolicy::tmo(25.0, 1).slow, Placement::Compressed(1));
    }
}
