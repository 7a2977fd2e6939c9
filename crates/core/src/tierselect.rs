//! Tier-set selection: which K compressed tiers should a deployment build?
//!
//! The paper leaves "selecting the optimal set of compressed tiers" as
//! future work (§9(i)). This module implements a principled advisor: given a
//! workload profile (content-class mix + temperature distribution) and the
//! calibrated codec behaviour, greedily pick the tier set that minimizes a
//! combined access-latency + TCO objective. The marginal-utility greedy is
//! the classic approximation for this submodular-ish facility-location
//! shape: each added tier "serves" the temperature buckets that prefer it.

use ts_sim::{Calibration, TieredSystem};
use ts_telemetry::HotnessSnapshot;
use ts_workloads::PageClass;
use ts_zswap::TierConfig;

/// A temperature bucket: a fraction of the data with an access intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TempBucket {
    /// Fraction of total bytes in this bucket, in `[0, 1]`.
    pub bytes_frac: f64,
    /// Relative access intensity (accesses per byte per window; hot >> cold).
    pub access_weight: f64,
}

/// What the selector knows about a workload.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Content-class mix by bytes.
    pub class_mix: Vec<(PageClass, f64)>,
    /// Temperature buckets, hot first. Should sum to 1.0 in `bytes_frac`.
    pub buckets: Vec<TempBucket>,
}

impl WorkloadProfile {
    /// Build a profile by sampling a live system + hotness snapshot:
    /// class mix from region content, temperature deciles from hotness.
    pub fn from_system(system: &TieredSystem, snapshot: &HotnessSnapshot) -> WorkloadProfile {
        let nregions = system.total_regions();
        let mut class_acc: std::collections::BTreeMap<PageClass, f64> =
            std::collections::BTreeMap::new();
        let mut hotness: Vec<f64> = Vec::with_capacity(nregions as usize);
        for r in 0..nregions {
            for (c, f) in system.region_class_mix(r) {
                *class_acc.entry(c).or_default() += f;
            }
            hotness.push(snapshot.hotness(r));
        }
        let total: f64 = class_acc.values().sum();
        let class_mix = class_acc
            .into_iter()
            .map(|(c, v)| (c, v / total.max(1e-12)))
            .collect();
        // Deciles of hotness -> 10 buckets, normalized so the hottest
        // bucket has weight 100 (the scale [`WorkloadProfile::synthetic`]
        // uses): raw sample counts depend on the sampling period and run
        // length and would otherwise dominate the objective arbitrarily.
        hotness.sort_by(|a, b| b.total_cmp(a));
        let peak = hotness.first().copied().unwrap_or(0.0).max(1e-12);
        let mut buckets = Vec::with_capacity(10);
        let per = (hotness.len() / 10).max(1);
        for chunk in hotness.chunks(per) {
            let w: f64 = chunk.iter().sum::<f64>() / chunk.len() as f64;
            buckets.push(TempBucket {
                bytes_frac: chunk.len() as f64 / hotness.len() as f64,
                access_weight: w / peak * 100.0,
            });
        }
        WorkloadProfile { class_mix, buckets }
    }

    /// A synthetic profile: hot/warm/cold fractions with one content class.
    pub fn synthetic(class: PageClass, hot: f64, warm: f64) -> WorkloadProfile {
        let cold = (1.0 - hot - warm).max(0.0);
        WorkloadProfile {
            class_mix: vec![(class, 1.0)],
            buckets: vec![
                TempBucket {
                    bytes_frac: hot,
                    access_weight: 100.0,
                },
                TempBucket {
                    bytes_frac: warm,
                    access_weight: 5.0,
                },
                TempBucket {
                    bytes_frac: cold,
                    access_weight: 0.05,
                },
            ],
        }
    }
}

/// The selector's output.
#[derive(Debug, Clone)]
pub struct TierChoice {
    /// Chosen tier configs, in selection order.
    pub tiers: Vec<TierConfig>,
    /// Objective value (lower is better) of the final set.
    pub objective: f64,
    /// Expected TCO relative to all-DRAM under the induced placement.
    pub expected_tco_ratio: f64,
}

/// Greedy tier-set selector.
#[derive(Debug, Clone)]
pub struct TierSelector {
    /// How many compressed tiers to build.
    pub max_tiers: usize,
    /// Candidate space (defaults to all 63 configs).
    pub candidates: Vec<TierConfig>,
    /// Latency-vs-TCO trade-off: the objective is
    /// `sum_b bytes_b * (access_weight_b * latency(t_b) * lambda + cost(t_b))`.
    /// Larger `lambda` favors low-latency tiers.
    pub lambda: f64,
}

impl Default for TierSelector {
    fn default() -> Self {
        TierSelector {
            max_tiers: 5,
            candidates: TierConfig::all(),
            lambda: 1e-6,
        }
    }
}

impl TierSelector {
    /// Expected compression ratio of `tier` on `profile`'s content.
    fn expected_ratio(tier: &TierConfig, profile: &WorkloadProfile, calib: &Calibration) -> f64 {
        let mut ratio = 0.0;
        let mut total = 0.0;
        for &(class, frac) in &profile.class_mix {
            let s = calib.stats(tier.algorithm, class);
            ratio += frac * (s.mean * (1.0 - s.reject_rate) + s.reject_rate);
            total += frac;
        }
        let raw = if total > 0.0 {
            ratio / total
        } else {
            tier.nominal_ratio()
        };
        raw.max(1.0 - tier.pool.max_savings()).min(1.0)
    }

    /// Per-byte serving cost of a tier for a bucket (the objective's inner
    /// term). DRAM is modeled as `None`.
    fn serve_cost(
        &self,
        tier: Option<(&TierConfig, f64)>,
        bucket: &TempBucket,
        dram_cost_gb: f64,
    ) -> f64 {
        match tier {
            None => {
                // DRAM: fast, expensive.
                bucket.access_weight * 33.0 * self.lambda + dram_cost_gb
            }
            Some((t, ratio)) => {
                let lat = t.decompress_latency_ns()
                    + t.media.default_spec().stream_ns((ratio * 4096.0) as u64);
                // Every fault implies an eventual re-compression when the
                // page cools again, so compression cost scales with access
                // intensity too (this is what disqualifies lz4hc/deflate for
                // warm data despite their good ratios).
                let churn = bucket.access_weight * (lat + t.compress_latency_ns());
                churn * self.lambda + t.media.default_spec().cost_per_gb * ratio
            }
        }
    }

    /// Objective of a tier set over the profile (lower is better); every
    /// bucket is served by its best option (DRAM or a chosen tier).
    fn objective(
        &self,
        set: &[(TierConfig, f64)],
        profile: &WorkloadProfile,
        dram_cost_gb: f64,
    ) -> (f64, f64) {
        let mut obj = 0.0;
        let mut tco = 0.0;
        for b in &profile.buckets {
            let mut best = self.serve_cost(None, b, dram_cost_gb);
            let mut best_tco = dram_cost_gb;
            for (t, ratio) in set {
                let c = self.serve_cost(Some((t, *ratio)), b, dram_cost_gb);
                if c < best {
                    best = c;
                    best_tco = t.media.default_spec().cost_per_gb * ratio;
                }
            }
            obj += b.bytes_frac * best;
            tco += b.bytes_frac * best_tco;
        }
        (obj, tco / dram_cost_gb)
    }

    /// Select up to `max_tiers` tiers for `profile`.
    pub fn select(&self, profile: &WorkloadProfile, calib: &Calibration) -> TierChoice {
        let dram_cost_gb = ts_mem::MediaKind::Dram.default_spec().cost_per_gb;
        let rated: Vec<(TierConfig, f64)> = self
            .candidates
            .iter()
            .map(|t| (t.clone(), Self::expected_ratio(t, profile, calib)))
            .collect();
        let mut chosen: Vec<(TierConfig, f64)> = Vec::new();
        let (mut cur_obj, mut cur_tco) = self.objective(&chosen, profile, dram_cost_gb);
        while chosen.len() < self.max_tiers {
            let mut best: Option<(usize, f64, f64)> = None;
            for (i, cand) in rated.iter().enumerate() {
                if chosen.iter().any(|(t, _)| {
                    t.algorithm == cand.0.algorithm
                        && t.pool == cand.0.pool
                        && t.media == cand.0.media
                }) {
                    continue;
                }
                let mut trial = chosen.clone();
                trial.push(cand.clone());
                let (obj, tco) = self.objective(&trial, profile, dram_cost_gb);
                if obj < cur_obj - 1e-12 && best.map(|(_, o, _)| obj < o).unwrap_or(true) {
                    best = Some((i, obj, tco));
                }
            }
            match best {
                Some((i, obj, tco)) => {
                    chosen.push(rated[i].clone());
                    cur_obj = obj;
                    cur_tco = tco;
                }
                None => break, // No tier improves the objective.
            }
        }
        TierChoice {
            tiers: chosen.into_iter().map(|(t, _)| t).collect(),
            objective: cur_obj,
            expected_tco_ratio: cur_tco,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_mem::MediaKind;
    use ts_zpool::PoolKind;

    fn calib() -> Calibration {
        Calibration::build(7)
    }

    #[test]
    fn cold_compressible_data_gets_dense_cheap_tier() {
        let profile = WorkloadProfile::synthetic(PageClass::HighlyCompressible, 0.02, 0.08);
        let sel = TierSelector {
            max_tiers: 1,
            ..TierSelector::default()
        };
        let choice = sel.select(&profile, &calib());
        assert_eq!(choice.tiers.len(), 1);
        let t = &choice.tiers[0];
        // Dense pool on cheap media with a strong codec.
        assert_eq!(t.pool, PoolKind::Zsmalloc, "{t}");
        assert_eq!(t.media, MediaKind::Nvmm, "{t}");
        assert!(
            choice.expected_tco_ratio < 0.4,
            "{}",
            choice.expected_tco_ratio
        );
    }

    #[test]
    fn warm_heavy_profile_prefers_low_latency_tier() {
        // Almost everything warm: latency matters.
        let profile = WorkloadProfile {
            class_mix: vec![(PageClass::Text, 1.0)],
            buckets: vec![
                TempBucket {
                    bytes_frac: 0.2,
                    access_weight: 100.0,
                },
                TempBucket {
                    bytes_frac: 0.8,
                    access_weight: 30.0,
                },
            ],
        };
        let sel = TierSelector {
            max_tiers: 1,
            lambda: 1e-4,
            ..TierSelector::default()
        };
        let choice = sel.select(&profile, &calib());
        if let Some(t) = choice.tiers.first() {
            // A fast codec; never deflate for warm-dominated data.
            assert_ne!(t.algorithm, ts_compress::Algorithm::Deflate, "{t}");
        }
    }

    #[test]
    fn mixed_profile_selects_a_spectrum() {
        let profile = WorkloadProfile {
            class_mix: vec![(PageClass::Text, 0.6), (PageClass::HighlyCompressible, 0.4)],
            buckets: vec![
                TempBucket {
                    bytes_frac: 0.15,
                    access_weight: 100.0,
                },
                TempBucket {
                    bytes_frac: 0.45,
                    access_weight: 8.0,
                },
                TempBucket {
                    bytes_frac: 0.40,
                    access_weight: 0.02,
                },
            ],
        };
        let sel = TierSelector {
            max_tiers: 3,
            lambda: 1e-5,
            ..TierSelector::default()
        };
        let choice = sel.select(&profile, &calib());
        assert!(
            choice.tiers.len() >= 2,
            "mixed workload warrants >= 2 tiers: {choice:?}"
        );
        // The chosen set must include at least two distinct latency classes.
        let mut lats: Vec<f64> = choice
            .tiers
            .iter()
            .map(|t| t.decompress_latency_ns())
            .collect();
        lats.sort_by(f64::total_cmp);
        assert!(lats.last().expect("nonempty") > &(lats[0] * 1.5));
    }

    #[test]
    fn incompressible_data_yields_no_useful_tier() {
        let profile = WorkloadProfile::synthetic(PageClass::Incompressible, 0.1, 0.2);
        let sel = TierSelector {
            max_tiers: 3,
            ..TierSelector::default()
        };
        let choice = sel.select(&profile, &calib());
        // Compression cannot beat DRAM/NVMM meaningfully here; whatever is
        // selected must not promise real savings from compression.
        assert!(
            choice.expected_tco_ratio > 0.3,
            "no fake savings on noise: {}",
            choice.expected_tco_ratio
        );
    }

    #[test]
    fn adding_tiers_never_hurts_objective() {
        let profile = WorkloadProfile {
            class_mix: vec![(PageClass::Text, 1.0)],
            buckets: vec![
                TempBucket {
                    bytes_frac: 0.3,
                    access_weight: 50.0,
                },
                TempBucket {
                    bytes_frac: 0.7,
                    access_weight: 0.1,
                },
            ],
        };
        let c = calib();
        let mut last = f64::INFINITY;
        for k in 1..=4 {
            let sel = TierSelector {
                max_tiers: k,
                lambda: 1e-5,
                ..TierSelector::default()
            };
            let choice = sel.select(&profile, &c);
            assert!(choice.objective <= last + 1e-12, "k={k}");
            last = choice.objective;
        }
    }
}
