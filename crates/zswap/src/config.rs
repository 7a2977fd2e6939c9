//! Compressed-tier configuration space.
//!
//! A tier is a `(compression algorithm, pool manager, backing media)` triple
//! (Table 1). Linux exposes the first two; TierScape's kernel patch adds the
//! third. With 7 algorithms x 3 pools x 3 media this yields the paper's 63
//! possible tiers; the characterization (Fig. 2) studies 12 of them, and the
//! evaluation uses CT-1 (GSwap-style) and CT-2 (TMO-style) plus C1/C2/C4/
//! C7/C12 for the six-tier spectrum.

use ts_compress::Algorithm;
use ts_mem::MediaKind;
use ts_zpool::PoolKind;

/// Where (de)compression executes.
///
/// The paper's artifact carries an `isCPUComp` flag per tier and its kernel
/// is tagged `noiaa`, pointing at an Intel In-Memory Analytics Accelerator
/// variant: IAA offloads DEFLATE-class (de)compression from the CPU. We
/// model it as a latency divisor plus freeing the CPU cycles (the store-path
/// cost no longer counts as daemon CPU tax when offloaded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompressionEngine {
    /// Software (kernel codec) on the CPU.
    #[default]
    Cpu,
    /// IAA-style hardware offload.
    Iaa,
}

impl CompressionEngine {
    /// Latency divisor the engine applies to codec work.
    pub fn speedup(self) -> f64 {
        match self {
            CompressionEngine::Cpu => 1.0,
            // Published IAA DEFLATE numbers: single-digit-GB/s per engine,
            // ~5-10x a software deflate on one core.
            CompressionEngine::Iaa => 8.0,
        }
    }
}

/// Full configuration of one compressed tier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TierConfig {
    /// Compression algorithm.
    pub algorithm: Algorithm,
    /// Pool manager for compressed objects.
    pub pool: PoolKind,
    /// Backing medium for pool pages (TierScape's added parameter).
    pub media: MediaKind,
    /// Where codec work runs (CPU or IAA-style accelerator).
    pub engine: CompressionEngine,
    /// Human-readable label (e.g. "C7", "CT-1").
    pub label: String,
}

impl TierConfig {
    /// Create a config with an auto-generated label.
    pub fn new(algorithm: Algorithm, pool: PoolKind, media: MediaKind) -> Self {
        let label = format!(
            "{}-{}-{}",
            pool.short_name(),
            algo_short(algorithm),
            media.short_name()
        );
        TierConfig {
            algorithm,
            pool,
            media,
            engine: CompressionEngine::Cpu,
            label,
        }
    }

    /// Run this tier's codec on an IAA-style accelerator.
    pub fn accelerated(mut self) -> Self {
        self.engine = CompressionEngine::Iaa;
        if !self.label.ends_with("+IAA") {
            self.label = format!("{}+IAA", self.label);
        }
        self
    }

    /// Same config with a custom label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Enumerate the paper's full 63-tier configuration space
    /// (7 algorithms x 3 pools x 3 media).
    pub fn all() -> Vec<TierConfig> {
        let mut v = Vec::with_capacity(63);
        for &algo in &Algorithm::ALL {
            for &pool in &PoolKind::ALL {
                for &media in &MediaKind::ALL {
                    v.push(TierConfig::new(algo, pool, media));
                }
            }
        }
        v
    }

    /// The 12 characterized tiers C1..C12 of Figure 2, ordered from lowest
    /// access latency (C1) to best TCO savings (C12).
    ///
    /// Grid: {lz4, lzo, deflate} x {zbud, zsmalloc} x {DRAM, Optane}. The
    /// paper's anchor points hold: C1 = fastest (zbud/lz4/DRAM), C2 = fastest
    /// Optane-backed, C4 = lz4/zsmalloc/Optane, C7 = GSwap's lzo/zsmalloc/
    /// DRAM, C12 = best TCO (deflate/zsmalloc/Optane).
    pub fn characterized_12() -> Vec<TierConfig> {
        let grid: [(Algorithm, PoolKind, MediaKind); 12] = [
            (Algorithm::Lz4, PoolKind::Zbud, MediaKind::Dram), // C1
            (Algorithm::Lz4, PoolKind::Zbud, MediaKind::Nvmm), // C2
            (Algorithm::Lz4, PoolKind::Zsmalloc, MediaKind::Dram), // C3
            (Algorithm::Lz4, PoolKind::Zsmalloc, MediaKind::Nvmm), // C4
            (Algorithm::Lzo, PoolKind::Zbud, MediaKind::Dram), // C5
            (Algorithm::Lzo, PoolKind::Zbud, MediaKind::Nvmm), // C6
            (Algorithm::Lzo, PoolKind::Zsmalloc, MediaKind::Dram), // C7 (GSwap)
            (Algorithm::Lzo, PoolKind::Zsmalloc, MediaKind::Nvmm), // C8
            (Algorithm::Deflate, PoolKind::Zbud, MediaKind::Dram), // C9
            (Algorithm::Deflate, PoolKind::Zbud, MediaKind::Nvmm), // C10
            (Algorithm::Deflate, PoolKind::Zsmalloc, MediaKind::Dram), // C11
            (Algorithm::Deflate, PoolKind::Zsmalloc, MediaKind::Nvmm), // C12
        ];
        grid.iter()
            .enumerate()
            .map(|(i, &(a, p, m))| TierConfig::new(a, p, m).labeled(format!("C{}", i + 1)))
            .collect()
    }

    /// CT-1: GSwap-style low-latency tier (lzo + zsmalloc on DRAM), ideal for
    /// warm pages (paper §8).
    pub fn ct1() -> TierConfig {
        TierConfig::new(Algorithm::Lzo, PoolKind::Zsmalloc, MediaKind::Dram).labeled("CT-1")
    }

    /// CT-2: TMO-style high-compression tier (zstd + zsmalloc on Optane),
    /// ideal for cold pages (paper §8).
    pub fn ct2() -> TierConfig {
        TierConfig::new(Algorithm::Zstd, PoolKind::Zsmalloc, MediaKind::Nvmm).labeled("CT-2")
    }

    /// The five compressed tiers of the six-tier "spectrum" setup (§8.3):
    /// C1, C2, C4, C7 and C12.
    pub fn spectrum_5() -> Vec<TierConfig> {
        let c12 = TierConfig::characterized_12();
        [0usize, 1, 3, 6, 11]
            .iter()
            .map(|&i| c12[i].clone())
            .collect()
    }

    /// Modeled single-page (4 KiB) decompression latency in nanoseconds for
    /// this tier, before adding the per-object media streaming cost.
    ///
    /// `algo_decompress_ns x media_factor + pool management overhead`. The
    /// algorithm constants are calibrated against this crate's own codecs
    /// (see the `fig02` characterization bench) and reproduce the orderings
    /// in Fig. 2a: lz4 < lzo < deflate, zbud < zsmalloc, DRAM < Optane.
    pub fn decompress_latency_ns(&self) -> f64 {
        algo_decompress_ns(self.algorithm) * media_factor(self.media) / self.engine.speedup()
            + self.pool.mgmt_overhead_ns()
    }

    /// Modeled single-page compression latency in nanoseconds (store path).
    pub fn compress_latency_ns(&self) -> f64 {
        algo_compress_ns(self.algorithm) * media_factor(self.media) / self.engine.speedup()
            + self.pool.mgmt_overhead_ns()
    }

    /// Typical achievable compression ratio on moderately compressible data,
    /// clamped by the pool's packing bound. Used for planning before any
    /// runtime calibration is available.
    pub fn nominal_ratio(&self) -> f64 {
        let algo = algo_nominal_ratio(self.algorithm);
        algo.max(1.0 - self.pool.max_savings())
    }
}

impl std::fmt::Display for TierConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}/{}/{})",
            self.label,
            self.algorithm.name(),
            self.pool.name(),
            self.media.name()
        )
    }
}

/// Short algorithm code used in Figure 2's labels.
pub fn algo_short(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Lz4 => "L4",
        Algorithm::Lz4hc => "HC",
        Algorithm::Lzo => "LO",
        Algorithm::LzoRle => "LR",
        Algorithm::Deflate => "DE",
        Algorithm::Zstd => "ZT",
        Algorithm::Sw842 => "84",
        Algorithm::Store => "ST",
    }
}

/// Modeled per-4KiB-page decompression cost of an algorithm in ns.
///
/// Values reflect the relative ordering of the kernel codecs (lz4 fastest,
/// deflate slowest) at magnitudes consistent with published zswap fault
/// latencies (single-digit microseconds).
pub fn algo_decompress_ns(a: Algorithm) -> f64 {
    match a {
        Algorithm::Lz4 => 1_500.0,
        Algorithm::Lz4hc => 1_500.0, // Same decoder as lz4.
        Algorithm::LzoRle => 2_100.0,
        Algorithm::Lzo => 2_500.0,
        Algorithm::Sw842 => 2_800.0,
        Algorithm::Zstd => 5_000.0,
        Algorithm::Deflate => 12_000.0,
        Algorithm::Store => 400.0, // Page copy only.
    }
}

/// Modeled per-4KiB-page compression cost of an algorithm in ns.
pub fn algo_compress_ns(a: Algorithm) -> f64 {
    match a {
        Algorithm::Lz4 => 3_000.0,
        Algorithm::LzoRle => 3_600.0,
        Algorithm::Lzo => 4_200.0,
        Algorithm::Sw842 => 5_000.0,
        Algorithm::Zstd => 9_000.0,
        Algorithm::Lz4hc => 18_000.0, // HC parser is expensive.
        Algorithm::Deflate => 25_000.0,
        Algorithm::Store => 400.0,
    }
}

/// Typical compression ratio of an algorithm on mixed server data.
pub fn algo_nominal_ratio(a: Algorithm) -> f64 {
    match a {
        Algorithm::Lz4 => 0.50,
        Algorithm::Lz4hc => 0.45,
        Algorithm::LzoRle => 0.48,
        Algorithm::Lzo => 0.48,
        Algorithm::Sw842 => 0.55,
        Algorithm::Zstd => 0.33,
        Algorithm::Deflate => 0.30,
        Algorithm::Store => 1.0,
    }
}

/// Slowdown multiplier the backing medium applies to (de)compression work
/// that streams pool pages (Optane reads dominate; Fig. 2a's DR vs OP gap).
pub fn media_factor(m: MediaKind) -> f64 {
    match m {
        MediaKind::Dram => 1.0,
        MediaKind::Cxl => 1.6,
        MediaKind::Nvmm => 2.4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixty_three_configs() {
        let all = TierConfig::all();
        assert_eq!(all.len(), 63);
        let set: std::collections::BTreeSet<_> =
            all.iter().map(|c| (c.algorithm, c.pool, c.media)).collect();
        assert_eq!(set.len(), 63);
    }

    #[test]
    fn characterized_anchor_points() {
        let c = TierConfig::characterized_12();
        assert_eq!(c.len(), 12);
        // C1 fastest config.
        assert_eq!(c[0].algorithm, Algorithm::Lz4);
        assert_eq!(c[0].pool, PoolKind::Zbud);
        assert_eq!(c[0].media, MediaKind::Dram);
        // C7 = GSwap.
        assert_eq!(c[6].algorithm, Algorithm::Lzo);
        assert_eq!(c[6].pool, PoolKind::Zsmalloc);
        assert_eq!(c[6].media, MediaKind::Dram);
        // C12 best TCO.
        assert_eq!(c[11].algorithm, Algorithm::Deflate);
        assert_eq!(c[11].media, MediaKind::Nvmm);
        // C1 has the lowest modeled latency of all 12.
        let l1 = c[0].decompress_latency_ns();
        assert!(c.iter().skip(1).all(|t| t.decompress_latency_ns() >= l1));
    }

    #[test]
    fn latency_orderings_of_fig2a() {
        // Same pool+media: lz4 < lzo < deflate.
        let mk = |a| TierConfig::new(a, PoolKind::Zsmalloc, MediaKind::Dram);
        assert!(
            mk(Algorithm::Lz4).decompress_latency_ns() < mk(Algorithm::Lzo).decompress_latency_ns()
        );
        assert!(
            mk(Algorithm::Lzo).decompress_latency_ns()
                < mk(Algorithm::Deflate).decompress_latency_ns()
        );
        // Same algo+media: zbud < zsmalloc.
        let zb = TierConfig::new(Algorithm::Lz4, PoolKind::Zbud, MediaKind::Dram);
        let zs = TierConfig::new(Algorithm::Lz4, PoolKind::Zsmalloc, MediaKind::Dram);
        assert!(zb.decompress_latency_ns() < zs.decompress_latency_ns());
        // Same algo+pool: DRAM < Optane.
        let dr = TierConfig::new(Algorithm::Lz4, PoolKind::Zbud, MediaKind::Dram);
        let op = TierConfig::new(Algorithm::Lz4, PoolKind::Zbud, MediaKind::Nvmm);
        assert!(dr.decompress_latency_ns() < op.decompress_latency_ns());
    }

    #[test]
    fn ct_tiers_match_prior_work() {
        let ct1 = TierConfig::ct1();
        assert_eq!(ct1.algorithm, Algorithm::Lzo);
        assert_eq!(ct1.media, MediaKind::Dram);
        let ct2 = TierConfig::ct2();
        assert_eq!(ct2.algorithm, Algorithm::Zstd);
        assert_eq!(ct2.media, MediaKind::Nvmm);
        assert!(ct1.decompress_latency_ns() < ct2.decompress_latency_ns());
        assert!(ct2.nominal_ratio() < ct1.nominal_ratio());
    }

    #[test]
    fn spectrum_labels() {
        let s = TierConfig::spectrum_5();
        let labels: Vec<_> = s.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["C1", "C2", "C4", "C7", "C12"]);
    }

    #[test]
    fn iaa_acceleration_collapses_the_deflate_penalty() {
        let sw = TierConfig::new(Algorithm::Deflate, PoolKind::Zsmalloc, MediaKind::Dram);
        let hw = sw.clone().accelerated();
        assert!(hw.decompress_latency_ns() < sw.decompress_latency_ns() / 3.0);
        // Accelerated deflate undercuts *software* lzo — the reason IAA
        // changes which tiers are worth building.
        let lzo = TierConfig::new(Algorithm::Lzo, PoolKind::Zsmalloc, MediaKind::Dram);
        assert!(hw.decompress_latency_ns() < lzo.decompress_latency_ns());
        assert!(hw.label.ends_with("+IAA"));
        // Ratio is unaffected: the bytes are the same DEFLATE stream.
        assert_eq!(hw.nominal_ratio(), sw.nominal_ratio());
    }

    #[test]
    fn zbud_bounds_nominal_ratio() {
        // deflate on zbud cannot beat 0.5 overall.
        let t = TierConfig::new(Algorithm::Deflate, PoolKind::Zbud, MediaKind::Dram);
        assert!(t.nominal_ratio() >= 0.5);
        let t2 = TierConfig::new(Algorithm::Deflate, PoolKind::Zsmalloc, MediaKind::Dram);
        assert!(t2.nominal_ratio() < 0.5);
    }
}
