//! The benchmark's workloads: one fixed daemon configuration each.
//!
//! Every workload uses 200 ns of compute per access, 12 profile windows and
//! 2 migration workers; see README.md for why each one exists.

use tierscape_core::{AnalyticalModel, DaemonConfig, PlacementPolicy, WaterfallModel};
use ts_compress::Algorithm;
use ts_sim::{Fidelity, SimConfig, TieredSystem};
use ts_workloads::{Scale, WorkloadId};
use ts_zpool::PoolKind;

/// Profile windows per daemon run.
pub const WINDOWS: u64 = 12;
/// Migration engine worker threads (no more than the 2-core host has).
pub const MIGRATION_WORKERS: usize = 2;
/// Application compute charged per access, in modeled ns.
pub const COMPUTE_NS: f64 = 200.0;

/// Tier layout of a workload's simulated machine.
#[derive(Debug, Clone, Copy)]
pub enum Setup {
    /// DRAM + NVMM + CT-1 (lzo/zsmalloc) + CT-2 (zstd/zsmalloc).
    StandardMix,
    /// DRAM + the five compressed tiers C1, C2, C4, C7, C12.
    Spectrum,
}

/// Placement model driving the daemon.
#[derive(Debug, Clone, Copy)]
pub enum Model {
    /// The analytical (MCKP) model with TCO/performance knob `alpha`.
    Analytical(f64),
    /// The waterfall model with a hotness percentile threshold.
    Waterfall(f64),
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Table 2 workload generating the access stream and page contents.
    pub id: WorkloadId,
    /// Scale factor applied to the paper's RSS.
    pub scale: f64,
    /// Tier layout.
    pub setup: Setup,
    /// Real codecs and pools, or the calibrated model.
    pub fidelity: Fidelity,
    /// Placement model.
    pub model: Model,
    /// Region size override as a byte shift (`None` keeps 2 MiB).
    pub region_shift: Option<u32>,
    /// Accesses per profile window.
    pub window_accesses: u64,
    /// Daemon runs, each on its own seed derived from `--seed`, that the
    /// modeled metrics average over and the peak RSS is taken across. Sized
    /// from the measured spread of one seed's metrics across seeds.
    pub sub_seeds: usize,
}

/// All workloads, in the order `--workload all` runs them.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "kv-am-real",
        id: WorkloadId::MemcachedYcsb,
        scale: 1.0 / 1024.0,
        setup: Setup::StandardMix,
        fidelity: Fidelity::Real,
        model: Model::Analytical(0.2),
        region_shift: None,
        window_accesses: 150_000,
        sub_seeds: 8,
    },
    Spec {
        name: "hpc-am-fine",
        id: WorkloadId::XsBench,
        scale: 1.0 / 64.0,
        setup: Setup::Spectrum,
        fidelity: Fidelity::Modeled,
        model: Model::Analytical(0.2),
        region_shift: Some(15),
        window_accesses: 400_000,
        sub_seeds: 12,
    },
    Spec {
        name: "kv-waterfall-real",
        id: WorkloadId::MemcachedMemtier4k,
        scale: 1.0 / 1024.0,
        setup: Setup::Spectrum,
        fidelity: Fidelity::Real,
        model: Model::Waterfall(25.0),
        region_shift: None,
        window_accesses: 150_000,
        // One seed's slowdown (~1 %) varies by ~40 % across seeds.
        sub_seeds: 16,
    },
];

/// Codecs the isolated rows replay on every workload: every algorithm of
/// every workload's tiers, so each row exists on each workload.
pub const ISOLATED_ALGOS: [Algorithm; 4] = [
    Algorithm::Lz4,
    Algorithm::Lzo,
    Algorithm::Zstd,
    Algorithm::Deflate,
];

/// Pools the isolated rows replay on every workload.
pub const ISOLATED_POOLS: [PoolKind; 2] = [PoolKind::Zbud, PoolKind::Zsmalloc];

/// Compressed tiers of the largest setup; `zswap.ct<i>` rows cover these
/// indices on every workload (zero past a workload's own tier count).
pub const MAX_COMPRESSED_TIERS: usize = 5;

impl Spec {
    /// Look a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// The simulator configuration for a workload of `rss` bytes.
    pub fn sim_config(&self, rss: u64, seed: u64) -> SimConfig {
        let cfg = match self.setup {
            Setup::StandardMix => SimConfig::standard_mix(rss, self.fidelity, seed),
            Setup::Spectrum => SimConfig::spectrum(rss, self.fidelity, seed),
        }
        .with_compute_ns(COMPUTE_NS);
        match self.region_shift {
            Some(shift) => cfg.with_region_shift(shift),
            None => cfg,
        }
    }

    /// Build the workload and the tiered system it runs on (the `setup_s`
    /// interval: `WorkloadId::build` plus `TieredSystem::new`).
    pub fn build_system(&self, seed: u64) -> Result<TieredSystem, String> {
        let workload = self.id.build(Scale(self.scale), seed);
        let cfg = self.sim_config(workload.rss_bytes(), seed);
        TieredSystem::new(cfg, workload).map_err(|e| format!("TieredSystem::new: {e}"))
    }

    /// A fresh placement policy.
    pub fn policy(&self) -> Box<dyn PlacementPolicy> {
        match self.model {
            Model::Analytical(alpha) => Box::new(AnalyticalModel::new(alpha)),
            Model::Waterfall(pct) => Box::new(WaterfallModel::new(pct)),
        }
    }

    /// The daemon seed of sub-run `k` of benchmark seed `seed`.
    pub fn sub_seed(&self, seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(self.sub_seeds as u64)
            .wrapping_add(k as u64)
    }

    /// The daemon configuration shared by the untraced and traced halves.
    pub fn daemon_config(&self) -> DaemonConfig {
        DaemonConfig {
            window_accesses: self.window_accesses,
            windows: WINDOWS,
            migration_workers: MIGRATION_WORKERS,
            ..DaemonConfig::default()
        }
    }
}
