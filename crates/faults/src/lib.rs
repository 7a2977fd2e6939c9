#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Deterministic fault injection for the TierScape reproduction.
//!
//! TierScape's kernel path must survive compression failures, pool
//! exhaustion under memory pressure, and aborted migrations. This crate
//! provides the seedable, deterministic fault model the simulator and
//! daemon use to reproduce those failure modes on demand:
//!
//! * [`FaultSite`] — the named injection points (zswap store, zpool
//!   allocation, planned migration copy, tier-capacity pressure spikes).
//! * [`FaultPlan`] — per-site trip probabilities plus a seed. Every
//!   trip decision is a pure function of `(seed, site, key)`, so a run
//!   is bit-identical for a fixed seed regardless of scheduling, worker
//!   count, or wall-clock time. Plans round-trip through JSON
//!   ([`ts_obs::json`]); parsing is strict about fields and ranges.
//! * [`FaultCounters`] — per-site counts of faults injected/handled,
//!   surfaced in `MigrationReport`/`RunReport`.
//! * [`TierError`] — the error taxonomy threaded through `ts-zpool`,
//!   `ts-zswap` and `ts-sim` in place of panics on these paths.
//!
//! A rate of exactly `0.0` for a site short-circuits before any RNG
//! work, making a disabled plan (and the default no-plan state)
//! zero-cost and behaviorally identical to the fault-free build.

#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ts_obs::json::{self, Value};

/// Golden-ratio multiplier used to whiten per-draw keys before they are
/// folded into the RNG seed (same constant as SplitMix64's increment).
const KEY_WHITENER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A named fault-injection site in the tiering stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `zswap::store`: the compressor fails on a page (distinct from the
    /// codec's own incompressible-data rejection).
    ZswapStore,
    /// zpool allocation: the destination pool reports capacity
    /// exhaustion (`PoolError::OutOfMemory`).
    PoolAlloc,
    /// `TieredSystem::execute_plan` copy: a planned page migration
    /// aborts before the copy happens (drawn while the plan is classified).
    MigrationCopy,
    /// A tier-capacity pressure spike: for one profile window the tier
    /// must be treated as full and accepts no migrations.
    CapacityPressure,
}

impl FaultSite {
    /// All injection sites, in a fixed canonical order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::ZswapStore,
        FaultSite::PoolAlloc,
        FaultSite::MigrationCopy,
        FaultSite::CapacityPressure,
    ];

    /// Stable human-readable name (matches the JSON field spelling).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ZswapStore => "zswap_store",
            FaultSite::PoolAlloc => "pool_alloc",
            FaultSite::MigrationCopy => "migration_copy",
            FaultSite::CapacityPressure => "capacity_pressure",
        }
    }

    /// Per-site salt folded into every trip decision so that distinct
    /// sites sharing a key draw independent values.
    fn salt(self) -> u64 {
        match self {
            FaultSite::ZswapStore => 0x5157_4150_5354_4f52,
            FaultSite::PoolAlloc => 0x504f_4f4c_414c_4c4f,
            FaultSite::MigrationCopy => 0x4d49_4752_434f_5059,
            FaultSite::CapacityPressure => 0x4341_5050_5245_5353,
        }
    }
}

/// The fault/error taxonomy threaded through `ts-zpool`, `ts-zswap`
/// and `ts-sim::system` in place of panics on failure paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierError {
    /// The destination pool (and every overflow pool below it, when the
    /// waterfall fallback was attempted) could not allocate.
    PoolExhausted,
    /// The compressor failed on the page; it stays uncompressed in its
    /// source tier.
    CompressFailed,
    /// A planned migration was aborted before its copy; the page keeps
    /// its source placement.
    MigrationAborted,
    /// The destination tier is under a capacity-pressure spike and
    /// accepts no migrations this window.
    CapacityPressure,
}

impl TierError {
    /// The injection site that produces this error.
    pub fn site(self) -> FaultSite {
        match self {
            TierError::PoolExhausted => FaultSite::PoolAlloc,
            TierError::CompressFailed => FaultSite::ZswapStore,
            TierError::MigrationAborted => FaultSite::MigrationCopy,
            TierError::CapacityPressure => FaultSite::CapacityPressure,
        }
    }
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::PoolExhausted => write!(f, "pool capacity exhausted"),
            TierError::CompressFailed => write!(f, "compression failed"),
            TierError::MigrationAborted => write!(f, "migration aborted"),
            TierError::CapacityPressure => write!(f, "tier under capacity pressure"),
        }
    }
}

impl std::error::Error for TierError {}

/// A seeded fault-injection plan: one trip probability per site.
///
/// `trips` is a pure function of `(seed, site, key)`: callers key each
/// decision by a stable, scheduling-independent counter (a serial
/// nonce, or a per-tier/per-pool store count advanced only by serial inserts),
/// which makes whole runs bit-identical for a fixed seed at any
/// `migration_workers` count.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every trip decision.
    pub seed: u64,
    /// Trip probability in `[0, 1]` for [`FaultSite::ZswapStore`].
    pub zswap_store: f64,
    /// Trip probability in `[0, 1]` for [`FaultSite::PoolAlloc`].
    pub pool_alloc: f64,
    /// Trip probability in `[0, 1]` for [`FaultSite::MigrationCopy`].
    pub migration_copy: f64,
    /// Trip probability in `[0, 1]` for [`FaultSite::CapacityPressure`].
    pub capacity_pressure: f64,
}

impl FaultPlan {
    /// A plan that never trips (all rates zero).
    pub fn disabled(seed: u64) -> Self {
        FaultPlan {
            seed,
            zswap_store: 0.0,
            pool_alloc: 0.0,
            migration_copy: 0.0,
            capacity_pressure: 0.0,
        }
    }

    /// A plan with the same trip probability at every site.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            zswap_store: rate,
            pool_alloc: rate,
            migration_copy: rate,
            capacity_pressure: rate,
        }
    }

    /// Builder-style: return a copy with `site`'s rate set to `rate`.
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        match site {
            FaultSite::ZswapStore => self.zswap_store = rate,
            FaultSite::PoolAlloc => self.pool_alloc = rate,
            FaultSite::MigrationCopy => self.migration_copy = rate,
            FaultSite::CapacityPressure => self.capacity_pressure = rate,
        }
        self
    }

    /// The trip probability configured for `site`.
    pub fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::ZswapStore => self.zswap_store,
            FaultSite::PoolAlloc => self.pool_alloc,
            FaultSite::MigrationCopy => self.migration_copy,
            FaultSite::CapacityPressure => self.capacity_pressure,
        }
    }

    /// Whether `site` can ever trip under this plan.
    pub fn site_active(&self, site: FaultSite) -> bool {
        self.rate(site) > 0.0
    }

    /// Whether any site can ever trip under this plan.
    pub fn is_active(&self) -> bool {
        FaultSite::ALL.iter().any(|&s| self.site_active(s))
    }

    /// Decide deterministically whether `site` trips for `key`.
    ///
    /// A rate of `0` returns `false` before any RNG work (zero-cost
    /// when disabled); a rate `>= 1` always trips. Otherwise one
    /// double-precision draw from an RNG seeded by
    /// `seed ^ site-salt ^ whiten(key)` decides.
    pub fn trips(&self, site: FaultSite, key: u64) -> bool {
        let rate = self.rate(site);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let mix = self.seed ^ site.salt() ^ key.wrapping_mul(KEY_WHITENER);
        let mut rng = SmallRng::seed_from_u64(mix);
        rng.random::<f64>() < rate
    }

    /// Whether `rate` is a valid trip probability: a finite value in
    /// `[0, 1]`.
    pub fn is_valid_rate(rate: f64) -> bool {
        (0.0..=1.0).contains(&rate)
    }

    /// Serialize the plan to pretty-printed JSON: `seed` plus one rate per
    /// site, keyed by [`FaultSite::name`].
    pub fn to_json(&self) -> String {
        let rates = FaultSite::ALL.map(|s| (s.name(), Value::Float(self.rate(s))));
        Value::object([("seed", Value::Int(self.seed))].into_iter().chain(rates)).to_pretty()
    }

    /// Parse a plan from JSON produced by [`FaultPlan::to_json`] (or
    /// written by hand with the same field names).
    ///
    /// # Errors
    ///
    /// Malformed JSON, and any unknown, duplicate or missing field; a seed
    /// that is not a non-negative integer; a rate outside `[0, 1]`. The
    /// message names the field.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let err = |msg: String| format!("invalid fault plan: {msg}");
        let Value::Object(fields) = json::parse(s).map_err(err)? else {
            return Err(err("expected a JSON object".into()));
        };
        if let Some(key) = fields
            .keys()
            .find(|k| *k != "seed" && !FaultSite::ALL.iter().any(|s| s.name() == *k))
        {
            return Err(err(format!("unknown field {key:?}")));
        }
        let field = |name: &str| {
            fields
                .get(name)
                .ok_or_else(|| err(format!("missing field {name:?}")))
        };
        let seed = field("seed")?
            .as_u64()
            .ok_or_else(|| err("\"seed\" must be a non-negative integer".into()))?;
        let mut plan = FaultPlan::disabled(seed);
        for site in FaultSite::ALL {
            let rate = field(site.name())?
                .as_f64()
                .filter(|&r| Self::is_valid_rate(r))
                .ok_or_else(|| err(format!("{:?} must be a rate in [0, 1]", site.name())))?;
            plan = plan.with_rate(site, rate);
        }
        Ok(plan)
    }
}

/// Per-site counts of faults injected (or, for genuine failures routed
/// through the same degradation paths, handled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults at [`FaultSite::ZswapStore`].
    pub zswap_store: u64,
    /// Faults at [`FaultSite::PoolAlloc`].
    pub pool_alloc: u64,
    /// Faults at [`FaultSite::MigrationCopy`].
    pub migration_copy: u64,
    /// Faults at [`FaultSite::CapacityPressure`].
    pub capacity_pressure: u64,
}

impl FaultCounters {
    /// Increment the counter for `site`.
    pub fn bump(&mut self, site: FaultSite) {
        match site {
            FaultSite::ZswapStore => self.zswap_store += 1,
            FaultSite::PoolAlloc => self.pool_alloc += 1,
            FaultSite::MigrationCopy => self.migration_copy += 1,
            FaultSite::CapacityPressure => self.capacity_pressure += 1,
        }
    }

    /// The count recorded for `site`.
    pub fn get(&self, site: FaultSite) -> u64 {
        match site {
            FaultSite::ZswapStore => self.zswap_store,
            FaultSite::PoolAlloc => self.pool_alloc,
            FaultSite::MigrationCopy => self.migration_copy,
            FaultSite::CapacityPressure => self.capacity_pressure,
        }
    }

    /// Total faults across all sites.
    pub fn total(&self) -> u64 {
        FaultSite::ALL.iter().map(|&s| self.get(s)).sum()
    }

    /// `(site name, count)` pairs in [`FaultSite::ALL`] order — the
    /// deterministic enumeration the observability layer snapshots into
    /// its `faults.<site>` counters.
    pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
        FaultSite::ALL
            .iter()
            .map(|&s| (s.name(), self.get(s)))
            .collect()
    }

    /// Per-site difference `self - earlier` (saturating), for carving a
    /// window or plan-execution delta out of cumulative counters.
    pub fn since(&self, earlier: FaultCounters) -> FaultCounters {
        FaultCounters {
            zswap_store: self.zswap_store.saturating_sub(earlier.zswap_store),
            pool_alloc: self.pool_alloc.saturating_sub(earlier.pool_alloc),
            migration_copy: self.migration_copy.saturating_sub(earlier.migration_copy),
            capacity_pressure: self
                .capacity_pressure
                .saturating_sub(earlier.capacity_pressure),
        }
    }
}

impl std::fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "store={} pool={} abort={} pressure={}",
            self.zswap_store, self.pool_alloc, self.migration_copy, self.capacity_pressure
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_is_deterministic() {
        let p = FaultPlan::uniform(42, 0.3);
        for site in FaultSite::ALL {
            for key in 0..256u64 {
                assert_eq!(p.trips(site, key), p.trips(site, key));
            }
        }
        // A different seed gives a different trip pattern.
        let q = FaultPlan::uniform(43, 0.3);
        let differs = (0..256u64)
            .any(|k| p.trips(FaultSite::ZswapStore, k) != q.trips(FaultSite::ZswapStore, k));
        assert!(differs, "seed must perturb trip decisions");
    }

    #[test]
    fn rate_zero_never_trips_and_rate_one_always_trips() {
        let zero = FaultPlan::disabled(7);
        let one = FaultPlan::uniform(7, 1.0);
        for site in FaultSite::ALL {
            assert!(!zero.site_active(site));
            for key in 0..64u64 {
                assert!(!zero.trips(site, key));
                assert!(one.trips(site, key));
            }
        }
        assert!(!zero.is_active());
        assert!(one.is_active());
    }

    #[test]
    fn sites_draw_independently() {
        let p = FaultPlan::uniform(9, 0.5);
        let differs = (0..256u64)
            .any(|k| p.trips(FaultSite::ZswapStore, k) != p.trips(FaultSite::PoolAlloc, k));
        assert!(differs, "per-site salts must decorrelate sites");
    }

    #[test]
    fn trip_rate_is_statistically_plausible() {
        let p = FaultPlan::uniform(1234, 0.2);
        let n = 20_000u64;
        let hits = (0..n).filter(|&k| p.trips(FaultSite::PoolAlloc, k)).count() as f64;
        let observed = hits / n as f64;
        assert!(
            (observed - 0.2).abs() < 0.02,
            "observed trip rate {observed} too far from 0.2"
        );
    }

    #[test]
    fn json_round_trip() {
        // Bit-exact, including seeds past 2^53 that an f64 would round.
        for seed in [99, (1u64 << 53) + 1, u64::MAX] {
            let p = FaultPlan::uniform(seed, 1.0 / 3.0).with_rate(FaultSite::MigrationCopy, 0.5);
            let back = FaultPlan::from_json(&p.to_json()).unwrap();
            assert_eq!(p, back);
        }
        assert!(FaultPlan::from_json("{ not json").is_err());
    }

    #[test]
    fn counters_bump_total_and_since() {
        let mut c = FaultCounters::default();
        c.bump(FaultSite::ZswapStore);
        c.bump(FaultSite::ZswapStore);
        c.bump(FaultSite::CapacityPressure);
        assert_eq!(c.get(FaultSite::ZswapStore), 2);
        assert_eq!(c.total(), 3);
        let mut later = c;
        later.bump(FaultSite::PoolAlloc);
        let d = later.since(c);
        assert_eq!(d.pool_alloc, 1);
        assert_eq!(d.total(), 1);
        assert_eq!(format!("{d}"), "store=0 pool=1 abort=0 pressure=0");
    }

    #[test]
    fn tier_error_maps_to_site_and_displays() {
        assert_eq!(TierError::PoolExhausted.site(), FaultSite::PoolAlloc);
        assert_eq!(TierError::CompressFailed.site(), FaultSite::ZswapStore);
        assert_eq!(TierError::MigrationAborted.site(), FaultSite::MigrationCopy);
        assert_eq!(
            TierError::CapacityPressure.site(),
            FaultSite::CapacityPressure
        );
        assert_eq!(
            format!("{}", TierError::PoolExhausted),
            "pool capacity exhausted"
        );
        assert_eq!(FaultSite::PoolAlloc.name(), "pool_alloc");
    }
}
