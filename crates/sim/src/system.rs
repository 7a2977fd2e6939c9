//! The tiered memory system simulator.
//!
//! Owns the page table (residency of every page), the fault path
//! (decompress-into-DRAM, §6.5's `Lat_CT + Lat_TD` cost), the migration
//! engine the TS-Daemon drives, and the performance / TCO accounting of
//! Eq. 3–10. The workload supplies the access stream and page contents.

use crate::calib::Calibration;
use crate::histogram::LatencyHistogram;
use crate::{Fidelity, Placement, SimConfig, SimError, SimResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use ts_faults::{FaultCounters, FaultPlan, FaultSite, TierError};
use ts_mem::{Machine, MediaKind, MediaSpec, PAGE_SIZE};
use ts_obs::{Registry, SpanTimer};
use ts_workloads::{Access, Workload};
use ts_zpool::{PoolError, PoolKind};
use ts_zswap::{
    Compressed, MigrationCopy, MigrationOutcome, StoredPage, SwapDevice, TierId, ZswapError,
    ZswapResult, ZswapSubsystem,
};

/// Where a page currently lives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Residency {
    /// In DRAM (tier 0).
    Dram,
    /// In byte-addressable tier `i` (index into `SimConfig::byte_tiers`).
    Byte(u16),
    /// In compressed tier `i` with the given compressed length; `stored` is
    /// populated in `Real` fidelity only.
    Compressed {
        tier: u16,
        comp_len: u32,
        stored: Option<StoredPage>,
    },
    /// Written back to the swap device under pool pressure; `slot` is a real
    /// device slot in `Real` fidelity only.
    Swapped {
        comp_len: u32,
        slot: Option<ts_zswap::SwapSlot>,
        origin_tier: u16,
    },
}

/// Per-compressed-tier simulator-side state.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTierStats {
    /// Pages currently stored.
    pub pages: u64,
    /// Compressed payload bytes currently stored.
    pub comp_bytes: u64,
    /// Modeled pool backing bytes (includes allocator overhead).
    pub pool_bytes_modeled: u64,
    /// Cumulative faults served.
    pub faults: u64,
    /// Cumulative stores.
    pub stores: u64,
    /// Cumulative incompressible rejections.
    pub rejections: u64,
    /// Cumulative pages written back to swap under pool pressure.
    pub writebacks: u64,
}

/// Report of one region migration or one whole window plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationReport {
    /// Pages moved to the destination.
    pub moved: u64,
    /// Pages rejected (incompressible) and left in place.
    pub rejected: u64,
    /// Modeled migration cost in nanoseconds (daemon tax).
    pub cost_ns: f64,
    /// Plan entries (regions) with at least one page moved.
    /// [`TieredSystem::migrate_region`] reports 0 or 1.
    pub regions_moved: u64,
    /// Worker threads the migration engine was configured with
    /// (0 for the serial per-region path).
    pub workers: u32,
    /// Destination batches the migration engine executed
    /// (0 for the serial per-region path).
    pub batches: u32,
    /// Modeled worker idle time: sum over batches of (critical-path ns −
    /// that batch's busy ns). High stall means one destination dominated
    /// the plan and the others' logical workers sat idle.
    pub stall_ns: f64,
    /// Per-site fault events injected/handled while executing this plan.
    pub faults: FaultCounters,
}

/// One entry of a window plan: move every page of `region` to `dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedMove {
    /// Region to move.
    pub region: u64,
    /// Destination placement.
    pub dest: Placement,
}

/// Batched pages prepared per chunk before the chunk is inserted. Every
/// prepared copy is held until its insert, so this bounds what the engine
/// buffers: a whole `kv-am-real` plan (~2,000 zstd pages at ratio 2.6)
/// would hold ~3.2 MiB, more than that benchmark's ~2 MiB of peak-RSS
/// headroom, while 32 pages hold at most 128 KiB. Larger chunks cost RSS:
/// 128 pages measured +0.3 MiB of peak RSS on `kv-am-real` (2-vCPU host).
const PREPARE_CHUNK: usize = 32;

/// The pure half of moving one page: what [`prepare`] computes from
/// `&ZswapSubsystem` alone, before anything is written.
enum Prepared {
    /// A DRAM, byte-tier or swapped page compressed for compressed tier `.0`.
    Store(usize, Compressed),
    /// A compressed page made ready for compressed tier `.0`.
    Migrate(usize, MigrationCopy),
    /// A compressed page decompressed toward byte placement `.0` (the
    /// bytes are discarded: content is regenerable).
    Decompressed(Placement),
}

/// What a page's insert left for its commit.
#[derive(Clone)]
enum Inserted {
    /// Stored into compressed tier `t` (`stored` is `None` in `Modeled`
    /// fidelity, where only the length is known).
    Stored {
        t: usize,
        comp_len: u32,
        stored: Option<StoredPage>,
    },
    /// Migrated into compressed tier `.0`; the source copy is still live.
    Migrated(usize, MigrationOutcome),
    /// Nothing to insert: the page moves to byte placement `.0`.
    Bytes(Placement),
}

impl Prepared {
    /// The stateful half: insert into the destination tier. Fault draws,
    /// pool stores and zswap statistics all happen here, on one thread.
    fn insert(self, z: &mut ZswapSubsystem, ids: &[TierId]) -> ZswapResult<Inserted> {
        Ok(match self {
            Prepared::Store(t, page) => {
                let s = z.tier_mut(ids[t])?.insert(page, PAGE_SIZE)?;
                Inserted::Stored {
                    t,
                    comp_len: s.compressed_len as u32,
                    stored: Some(s),
                }
            }
            Prepared::Migrate(t, copy) => Inserted::Migrated(t, z.insert_migration(copy)?),
            Prepared::Decompressed(dest) => Inserted::Bytes(dest),
        })
    }
}

/// Prepare moving `vpage`, whose residency is `snap`, to `dest`: fill and
/// compress, read and recompress (or only read, on the same-algorithm fast
/// path), or decompress a page faulting out toward a byte placement. A pure
/// function of the subsystem and the workload; writes only `scratch`.
fn prepare(
    z: &ZswapSubsystem,
    ids: &[TierId],
    wl: &dyn Workload,
    (vpage, snap, dest): (u64, Residency, Placement),
    scratch: &mut [u8],
) -> ZswapResult<Prepared> {
    let source = match snap {
        Residency::Compressed {
            tier,
            stored: Some(s),
            ..
        } => Some((ids[tier as usize], s)),
        _ => None,
    };
    match (source, dest) {
        (Some((from, s)), Placement::Compressed(t)) => {
            Ok(Prepared::Migrate(t, z.prepare_migration(from, ids[t], s)?))
        }
        (None, Placement::Compressed(t)) => {
            wl.fill_page(vpage, scratch);
            Ok(Prepared::Store(t, z.tier(ids[t])?.compress(scratch)))
        }
        (Some((from, s)), _) => {
            z.tier(from)?.decompress(s)?;
            Ok(Prepared::Decompressed(dest))
        }
        (None, _) => {
            unreachable!("moves into byte placements from uncompressed pages are never prepared")
        }
    }
}

/// Record the per-destination `migrate.<scope>.*` counters of one batched
/// page at its insert.
fn record_insert(obs: &mut Registry, scope: &str, inserted: &ZswapResult<Inserted>) {
    let (faulted, failed, bytes) = match inserted {
        Ok(Inserted::Stored { comp_len, .. }) => (0, 0, Some(u64::from(*comp_len))),
        Ok(Inserted::Migrated(_, m)) => (0, 0, Some(m.stored.compressed_len as u64)),
        Ok(Inserted::Bytes(_)) => (1, 0, None),
        Err(_) => (0, 1, None),
    };
    obs.inc(&format!("migrate.{scope}.jobs"));
    obs.add(
        &format!("migrate.{scope}.stored"),
        u64::from(bytes.is_some()),
    );
    obs.add(&format!("migrate.{scope}.faulted"), faulted);
    obs.add(&format!("migrate.{scope}.failed"), failed);
    obs.add(&format!("migrate.{scope}.bytes_out"), bytes.unwrap_or(0));
    if let Some(b) = bytes {
        obs.observe(&format!("migrate.{scope}.compressed_len"), b as f64);
    }
}

/// One page of a window plan, as classified before anything runs.
struct PlanPage {
    /// Index of the plan entry the page belongs to.
    entry: usize,
    vpage: u64,
    /// Residency when the plan was classified.
    snap: Residency,
    disp: Disposition,
}

/// How one page of a plan is executed.
enum Disposition {
    /// Already at the destination — nothing to do.
    Skip,
    /// [`TieredSystem::migrate_page`] at commit (swapped or same-filled
    /// sources, handle-less `Modeled` pages, duplicate plan entries).
    Serial,
    /// Prepared in parallel and inserted serially ahead of every commit,
    /// as job `job` of destination batch `batch`.
    Batched { batch: usize, job: usize },
    /// Injected migration abort (fault plan): the page was never
    /// enqueued, keeps its source placement, and is counted neither moved
    /// nor rejected.
    Aborted,
}

/// Performance accounting snapshot (Eq. 3–7).
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Total access events processed.
    pub accesses: u64,
    /// Simulated application time (ns) with the current placement history.
    pub app_time_ns: f64,
    /// Optimal time if every access had hit DRAM (Eq. 3).
    pub perf_opt_ns: f64,
    /// `app_time / perf_opt - 1`: fractional slowdown vs all-DRAM.
    pub slowdown: f64,
    /// Mean access latency in ns.
    pub mean_latency_ns: f64,
    /// 95th percentile access latency in ns.
    pub p95_ns: f64,
    /// 99.9th percentile access latency in ns.
    pub p999_ns: f64,
}

/// TCO accounting snapshot (Eq. 8–10).
#[derive(Debug, Clone)]
pub struct TcoReport {
    /// Instantaneous TCO at the time of the call.
    pub tco_now: f64,
    /// Time-averaged TCO over the run.
    pub tco_avg: f64,
    /// TCO with everything in DRAM (the baseline).
    pub tco_max: f64,
    /// Fractional savings of the time-averaged TCO vs all-DRAM.
    pub savings: f64,
}

/// The simulated tiered-memory system.
pub struct TieredSystem {
    cfg: SimConfig,
    machine: Arc<Machine>,
    zswap: Option<ZswapSubsystem>,
    /// zswap tier ids parallel to `cfg.compressed_tiers` (Real mode).
    zswap_ids: Vec<TierId>,
    calib: Calibration,
    workload: Box<dyn Workload>,
    pages: Vec<Residency>,
    dram_spec: MediaSpec,
    byte_specs: Vec<MediaSpec>,
    tier_stats: Vec<SimTierStats>,
    /// Resident page counts: [dram, byte tiers...].
    resident: Vec<u64>,
    accesses: u64,
    app_time_ns: f64,
    daemon_ns: f64,
    hist: LatencyHistogram,
    tco_integral: f64,
    tco_clock_ns: f64,
    /// Pages that faulted into DRAM when DRAM was at capacity.
    pub dram_overflow_faults: u64,
    page_buf: Vec<u8>,
    /// Modeled swap device for pool-limit writeback.
    swap: SwapDevice,
    /// Pages currently on the swap device (modeled accounting).
    swap_pages: u64,
    /// Compressed bytes currently on the swap device.
    swap_bytes: u64,
    /// Cumulative swap-in faults.
    pub swap_faults: u64,
    /// Per-tier insertion order of compressed pages (writeback LRU).
    wb_order: Vec<std::collections::VecDeque<u64>>,
    /// Installed fault-injection plan (None = fault-free, zero-cost).
    faults: Option<Arc<FaultPlan>>,
    /// Cumulative per-site fault events injected/handled.
    fault_counters: FaultCounters,
    /// Serial draw counter keying sim-level fault decisions; only ever
    /// advanced on serial paths, so runs are scheduling-independent.
    fault_nonce: u64,
    /// Installed metrics registry (None = observability off, zero cost).
    /// Boxed to keep the hot struct small; recorded values are pure
    /// functions of the run configuration (see ts-obs).
    obs: Option<Box<Registry>>,
}

impl TieredSystem {
    /// Build a system from `cfg` and a workload. All pages start in DRAM.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for inconsistent configurations.
    pub fn new(cfg: SimConfig, workload: Box<dyn Workload>) -> SimResult<Self> {
        if cfg.dram_bytes < PAGE_SIZE as u64 {
            return Err(SimError::Config("dram capacity below one page"));
        }
        // Build the machine: DRAM node, byte-tier nodes, plus pool-only
        // nodes for compressed-tier media not otherwise present.
        let mut builder = Machine::builder().node(MediaKind::Dram, cfg.dram_bytes);
        let mut media_present = vec![MediaKind::Dram];
        for &(kind, bytes) in &cfg.byte_tiers {
            builder = builder.node(kind, bytes);
            media_present.push(kind);
        }
        let pool_only_cap = workload.rss_bytes().max(cfg.dram_bytes) * 2;
        for t in &cfg.compressed_tiers {
            if !media_present.contains(&t.media) {
                builder = builder.node(t.media, pool_only_cap);
                media_present.push(t.media);
            }
        }
        let machine = Arc::new(builder.build());

        let (zswap, zswap_ids) = match cfg.fidelity {
            Fidelity::Real => {
                let mut z = ZswapSubsystem::new(machine.clone());
                let mut ids = Vec::new();
                for t in &cfg.compressed_tiers {
                    ids.push(z.create_tier(t.clone()).map_err(SimError::Zswap)?);
                }
                (Some(z), ids)
            }
            Fidelity::Modeled => (None, Vec::new()),
        };

        let total_pages = workload.total_pages() as usize;
        let dram_spec = MediaKind::Dram.default_spec();
        let byte_specs = cfg
            .byte_tiers
            .iter()
            .map(|&(k, _)| k.default_spec())
            .collect();
        let ntiers = cfg.compressed_tiers.len();
        let nbyte = cfg.byte_tiers.len();
        let mut resident = vec![0u64; 1 + nbyte];
        resident[0] = total_pages as u64;
        Ok(TieredSystem {
            calib: Calibration::build(cfg.seed),
            cfg,
            machine,
            zswap,
            zswap_ids,
            workload,
            pages: vec![Residency::Dram; total_pages],
            dram_spec,
            byte_specs,
            tier_stats: vec![SimTierStats::default(); ntiers],
            resident,
            accesses: 0,
            app_time_ns: 0.0,
            daemon_ns: 0.0,
            hist: LatencyHistogram::new(),
            tco_integral: 0.0,
            tco_clock_ns: 0.0,
            dram_overflow_faults: 0,
            page_buf: vec![0u8; PAGE_SIZE],
            swap: SwapDevice::new(),
            swap_pages: 0,
            swap_bytes: 0,
            swap_faults: 0,
            wb_order: vec![std::collections::VecDeque::new(); ntiers],
            faults: None,
            fault_counters: FaultCounters::default(),
            fault_nonce: 0,
            obs: None,
        })
    }

    /// Install a fresh metrics registry; instrumented paths (migration
    /// engine, window snapshots) record into it until [`Self::take_obs`].
    pub fn install_obs(&mut self) {
        self.obs = Some(Box::default());
    }

    /// The installed metrics registry, if any.
    pub fn obs(&self) -> Option<&Registry> {
        self.obs.as_deref()
    }

    /// Mutable access to the installed metrics registry, if any.
    pub fn obs_mut(&mut self) -> Option<&mut Registry> {
        self.obs.as_deref_mut()
    }

    /// Remove and return the registry (observability off afterwards).
    pub fn take_obs(&mut self) -> Option<Registry> {
        self.obs.take().map(|b| *b)
    }

    /// Snapshot window-end simulator state into the registry: per-tier
    /// occupancy/ratio/fault counters, zswap-side tier and pool stats
    /// (`Real` fidelity), swap-device state, fault-site counters and the
    /// daemon-tax account. Counters use monotonic `counter_max` because the
    /// underlying statistics are cumulative. No-op without a registry.
    pub fn obs_record_window(&mut self) {
        if self.obs.is_none() {
            return;
        }
        let nct = self.cfg.compressed_tiers.len();
        let rows: Vec<(SimTierStats, u64, f64)> = (0..nct)
            .map(|i| {
                (
                    self.tier_stats[i],
                    self.tier_pool_bytes(i),
                    self.tier_effective_ratio(i),
                )
            })
            .collect();
        let zrows = self.zswap.as_ref().map(|z| z.obs_snapshot());
        let resident = self.resident.clone();
        let (swap_pages, swap_bytes, swap_faults) =
            (self.swap_pages, self.swap_bytes, self.swap_faults);
        let fc = self.fault_counters;
        let (daemon_ns, accesses) = (self.daemon_ns, self.accesses);
        let tco = self.current_tco();
        let obs = self.obs.as_deref_mut().expect("checked above");
        for (i, (s, pool, ratio)) in rows.iter().enumerate() {
            let p = format!("tier.ct{i}");
            obs.gauge_set(&format!("{p}.pages"), s.pages as f64);
            obs.gauge_set(&format!("{p}.comp_bytes"), s.comp_bytes as f64);
            obs.gauge_set(&format!("{p}.pool_bytes"), *pool as f64);
            obs.gauge_set(&format!("{p}.ratio"), *ratio);
            obs.counter_max(&format!("{p}.stores"), s.stores);
            obs.counter_max(&format!("{p}.faults"), s.faults);
            obs.counter_max(&format!("{p}.rejections"), s.rejections);
            obs.counter_max(&format!("{p}.writebacks"), s.writebacks);
        }
        if let Some(zrows) = zrows {
            for (i, (ts, ps)) in zrows.iter().enumerate() {
                let p = format!("zswap.ct{i}");
                obs.counter_max(&format!("{p}.stores"), ts.stores);
                obs.counter_max(&format!("{p}.faults"), ts.faults);
                obs.counter_max(&format!("{p}.same_filled"), ts.same_filled);
                obs.counter_max(&format!("{p}.compress_failures"), ts.compress_failures);
                obs.counter_max(&format!("{p}.pool_loads"), ps.loads);
                obs.counter_max(&format!("{p}.pool_ops"), ps.ops_total());
                obs.gauge_set(&format!("{p}.pool_density"), ps.density());
            }
        }
        obs.gauge_set("tier.dram.pages", resident[0] as f64);
        for (i, r) in resident.iter().enumerate().skip(1) {
            obs.gauge_set(&format!("tier.bt{}.pages", i - 1), *r as f64);
        }
        obs.gauge_set("swap.pages", swap_pages as f64);
        obs.gauge_set("swap.bytes", swap_bytes as f64);
        obs.counter_max("swap.faults", swap_faults);
        for (name, v) in fc.as_pairs() {
            obs.counter_max(&format!("faults.{name}"), v);
        }
        obs.gauge_set("daemon.tax_ns", daemon_ns);
        obs.counter_max("sim.accesses", accesses);
        obs.gauge_set("window.tco_now", tco);
    }

    /// Install a deterministic fault-injection plan. In `Real` fidelity
    /// the plan also reaches every zswap tier and its pool. Installing a
    /// plan additionally arms the graceful-degradation paths (waterfall
    /// overflow on pool exhaustion); without a plan those paths are
    /// byte-identical to the fault-free build.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let plan = Arc::new(plan);
        if let Some(z) = &mut self.zswap {
            z.set_fault_plan(&plan);
        }
        self.faults = Some(plan);
    }

    /// Cumulative per-site fault events injected (or handled by the
    /// degradation paths) so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault_counters
    }

    /// One serial fault draw for `site`. Advances the nonce only when the
    /// site can trip at all, so a plan with rate 0 (and the default
    /// no-plan state) leaves behavior byte-identical to fault-free runs.
    fn fault_trips(&mut self, site: FaultSite) -> bool {
        let Some(plan) = &self.faults else {
            return false;
        };
        if !plan.site_active(site) {
            return false;
        }
        let key = self.fault_nonce;
        self.fault_nonce += 1;
        plan.trips(site, key)
    }

    /// Waterfall fallback destination when `dest`'s pool is exhausted:
    /// the next compressed tier down, if any.
    fn overflow_dest(&self, dest: Placement) -> Option<Placement> {
        match dest {
            Placement::Compressed(t) if t + 1 < self.cfg.compressed_tiers.len() => {
                Some(Placement::Compressed(t + 1))
            }
            _ => None,
        }
    }

    /// Draw this window's capacity-pressure spikes: compressed tiers the
    /// migration filter must treat as full (they accept no migrations
    /// for one window). One serial draw per tier; empty without a plan.
    pub fn draw_pressure_spikes(&mut self) -> Vec<Placement> {
        let mut spiked = Vec::new();
        for i in 0..self.cfg.compressed_tiers.len() {
            if self.fault_trips(FaultSite::CapacityPressure) {
                self.fault_counters.bump(FaultSite::CapacityPressure);
                spiked.push(Placement::Compressed(i));
            }
        }
        spiked
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The workload driving this system.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// Total pages managed.
    pub fn total_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Pages per region under the configured granularity.
    pub fn pages_per_region(&self) -> u64 {
        1u64 << (self.cfg.region_shift - ts_mem::PAGE_SHIFT)
    }

    /// Region id of a page under the configured granularity (2 MiB default).
    pub fn region_of_page(&self, vpage: u64) -> u64 {
        vpage >> (self.cfg.region_shift - ts_mem::PAGE_SHIFT)
    }

    /// Number of regions.
    pub fn total_regions(&self) -> u64 {
        (self.pages.len() as u64).div_ceil(self.pages_per_region())
    }

    /// Page range of a region.
    pub fn region_pages(&self, region: u64) -> std::ops::Range<u64> {
        let per = self.pages_per_region();
        let start = region * per;
        start..(start + per).min(self.pages.len() as u64)
    }

    /// All placements in tier order: DRAM, byte tiers, compressed tiers
    /// (assumed configured from low to high latency, as the paper orders
    /// tiers).
    pub fn placements(&self) -> Vec<Placement> {
        let mut v = vec![Placement::Dram];
        for i in 0..self.cfg.byte_tiers.len() {
            v.push(Placement::ByteTier(i));
        }
        for i in 0..self.cfg.compressed_tiers.len() {
            v.push(Placement::Compressed(i));
        }
        v
    }

    /// Current placement of a page.
    pub fn page_placement(&self, vpage: u64) -> Placement {
        match self.pages[vpage as usize] {
            Residency::Dram => Placement::Dram,
            Residency::Byte(i) => Placement::ByteTier(i as usize),
            Residency::Compressed { tier, .. } => Placement::Compressed(tier as usize),
            // Swapped pages logically belong to their origin tier's cold
            // set; promoting the region pulls them back through the
            // swap-fault path.
            Residency::Swapped { origin_tier, .. } => Placement::Compressed(origin_tier as usize),
        }
    }

    /// Dominant placement of a region (most pages win).
    pub fn region_placement(&self, region: u64) -> Placement {
        let mut counts = std::collections::BTreeMap::new();
        for p in self.region_pages(region) {
            *counts.entry(self.page_placement(p)).or_insert(0u64) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .map(|(p, _)| p)
            .unwrap_or(Placement::Dram)
    }

    /// Page counts per placement, in [`TieredSystem::placements`] order,
    /// with one trailing bucket for pages written back to the swap device
    /// (always last; zero unless pool limits are configured).
    pub fn placement_counts(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.resident.clone();
        for s in &self.tier_stats {
            v.push(s.pages);
        }
        v.push(self.swap_pages);
        v
    }

    /// Simulator-side stats for compressed tier `i`.
    pub fn tier_stats(&self, i: usize) -> SimTierStats {
        self.tier_stats[i]
    }

    /// Average access latency of a placement for planning purposes: the
    /// latency the analytical model uses for `Lat` / `delta` terms (Eq. 6/7).
    pub fn placement_latency_ns(&self, p: Placement) -> f64 {
        match p {
            Placement::Dram => self.dram_spec.avg_latency_ns(),
            Placement::ByteTier(i) => self.byte_specs[i].avg_latency_ns(),
            Placement::Compressed(i) => {
                let t = &self.cfg.compressed_tiers[i];
                // Fault cost: decompress + place in DRAM (Eq. 5's Lat_CT +
                // Lat_TD); use the tier's nominal compressed size for the
                // stream term.
                let comp = (t.nominal_ratio() * PAGE_SIZE as f64) as u64;
                t.decompress_latency_ns()
                    + t.media.default_spec().stream_ns(comp)
                    + self.dram_spec.avg_latency_ns()
            }
        }
    }

    /// Per-page TCO cost of a placement in normalized $ (Eq. 8/10 terms).
    /// Compressed placements use the tier's calibrated effective ratio.
    pub fn placement_cost_per_page(&self, p: Placement) -> f64 {
        match p {
            Placement::Dram => self.dram_spec.cost_of_bytes(PAGE_SIZE as u64),
            Placement::ByteTier(i) => self.byte_specs[i].cost_of_bytes(PAGE_SIZE as u64),
            Placement::Compressed(i) => {
                let t = &self.cfg.compressed_tiers[i];
                let ratio = self.tier_effective_ratio(i);
                t.media.default_spec().cost_of_bytes(PAGE_SIZE as u64) * ratio
            }
        }
    }

    /// Sampled content-class mix of a region: `(class, fraction)` pairs from
    /// a 32-page stratified sample. Deterministic per region.
    pub fn region_class_mix(&self, region: u64) -> Vec<(ts_workloads::PageClass, f64)> {
        let range = self.region_pages(region);
        let len = range.end - range.start;
        if len == 0 {
            return Vec::new();
        }
        let step = (len / 32).max(1) | 1; // Odd stride avoids layout aliasing.
        let mut counts: std::collections::BTreeMap<ts_workloads::PageClass, u64> =
            std::collections::BTreeMap::new();
        let mut n = 0u64;
        let mut p = range.start;
        while p < range.end {
            *counts.entry(self.workload.page_class(p)).or_default() += 1;
            n += 1;
            p += step;
        }
        counts
            .into_iter()
            .map(|(c, k)| (c, k as f64 / n as f64))
            .collect()
    }

    /// Predicted compression ratio of `region`'s content in compressed tier
    /// `t`: the calibration-table mean per content class, weighted by the
    /// region's sampled class mix, clamped by the pool's packing bound.
    ///
    /// This is the §9(ii) "choosing tiers based on data compressibility"
    /// extension: the analytical model can use it for per-region TCO costs
    /// instead of a tier-wide average.
    pub fn region_compress_ratio(&self, region: u64, t: usize) -> f64 {
        let cfg = &self.cfg.compressed_tiers[t];
        let mix = self.region_class_mix(region);
        if mix.is_empty() {
            return cfg.nominal_ratio();
        }
        let mut ratio = 0.0;
        for (class, frac) in mix {
            let stats = self.calib.stats(cfg.algorithm, class);
            // Rejected pages stay uncompressed: ratio contribution 1.0.
            let class_ratio = stats.mean * (1.0 - stats.reject_rate) + 1.0 * stats.reject_rate;
            ratio += frac * class_ratio;
        }
        ratio.max(1.0 - cfg.pool.max_savings()).min(1.0)
    }

    /// Effective (pool-overhead-inclusive) compression ratio of tier `i`:
    /// measured when the tier holds pages, nominal otherwise.
    pub fn tier_effective_ratio(&self, i: usize) -> f64 {
        let s = &self.tier_stats[i];
        if s.pages > 0 {
            self.tier_pool_bytes(i) as f64 / (s.pages * PAGE_SIZE as u64) as f64
        } else {
            self.cfg.compressed_tiers[i].nominal_ratio()
        }
    }

    /// Backing pool bytes of compressed tier `i`.
    pub fn tier_pool_bytes(&self, i: usize) -> u64 {
        match &self.zswap {
            Some(z) => z.tiers()[i].pool_stats().pool_bytes(),
            None => self.tier_stats[i].pool_bytes_modeled,
        }
    }

    /// Modeled pool share of one object in a pool of `kind`. Same-filled
    /// markers (comp_len 0) consume no pool space at all.
    fn pool_share(kind: PoolKind, comp_len: u32) -> u64 {
        if comp_len == 0 {
            return 0;
        }
        match kind {
            PoolKind::Zsmalloc => (comp_len as f64 / 0.96) as u64,
            PoolKind::Zbud => (comp_len as u64).max(PAGE_SIZE as u64 / 2),
            PoolKind::Z3fold => (comp_len as u64).max(PAGE_SIZE as u64 / 3),
        }
    }

    /// Bytes of DRAM currently in use (resident pages + DRAM-backed pools).
    pub fn dram_used_bytes(&self) -> u64 {
        let mut used = self.resident[0] * PAGE_SIZE as u64;
        for (i, t) in self.cfg.compressed_tiers.iter().enumerate() {
            if t.media == MediaKind::Dram {
                used += self.tier_pool_bytes(i);
            }
        }
        used
    }

    /// Occupancy fraction of a placement's capacity.
    pub fn placement_pressure(&self, p: Placement) -> f64 {
        match p {
            Placement::Dram => self.dram_used_bytes() as f64 / self.cfg.dram_bytes as f64,
            Placement::ByteTier(i) => {
                let used = self.resident[1 + i] * PAGE_SIZE as u64;
                used as f64 / self.cfg.byte_tiers[i].1.max(1) as f64
            }
            Placement::Compressed(i) => {
                // Pools grow dynamically; pressure is relative to the
                // backing node they draw from.
                let t = &self.cfg.compressed_tiers[i];
                match t.media {
                    MediaKind::Dram => self.dram_used_bytes() as f64 / self.cfg.dram_bytes as f64,
                    _ => {
                        let node = self
                            .machine
                            .node_of_kind(t.media)
                            .expect("node exists by construction");
                        // Modeled mode doesn't allocate real frames; use the
                        // modeled pool bytes against the node capacity.
                        match &self.zswap {
                            Some(_) => node.pressure(),
                            None => self.tier_pool_bytes(i) as f64 / node.capacity_bytes() as f64,
                        }
                    }
                }
            }
        }
    }

    /// Process the next workload access; returns the access and its latency.
    pub fn step(&mut self) -> (Access, f64) {
        let access = self.workload.next_access();
        let lat = self.access(access.addr, access.is_store);
        (access, lat)
    }

    /// Apply one access at `addr`; returns the modeled latency in ns
    /// (memory latency plus the configured per-access compute cost).
    pub fn access(&mut self, addr: u64, is_store: bool) -> f64 {
        let vpage = (addr / PAGE_SIZE as u64).min(self.pages.len() as u64 - 1);
        let mem_lat = match self.pages[vpage as usize] {
            Residency::Dram => {
                if is_store {
                    self.dram_spec.write_latency_ns
                } else {
                    self.dram_spec.read_latency_ns
                }
            }
            Residency::Byte(i) => {
                let s = &self.byte_specs[i as usize];
                if is_store {
                    s.write_latency_ns
                } else {
                    s.read_latency_ns
                }
            }
            Residency::Compressed { tier, .. } => self.fault_in(vpage, tier as usize),
            Residency::Swapped {
                comp_len,
                slot,
                origin_tier,
            } => self.swap_fault_in(vpage, comp_len, slot, origin_tier as usize),
        };
        let lat = mem_lat + self.cfg.compute_ns_per_access;
        self.accesses += 1;
        self.app_time_ns += lat;
        self.hist.record(lat);
        self.advance_tco(lat);
        lat
    }

    /// Fault path: decompress and place the page in DRAM (or the first byte
    /// tier with room when DRAM is full — §6.5). The cost is decompression
    /// plus the landing tier's access (Eq. 5); same-filled pages
    /// reconstruct with a memset.
    fn fault_in(&mut self, vpage: u64, tier: usize) -> f64 {
        self.tier_stats[tier].faults += 1;
        self.remove_from_current(vpage, false) + self.land_faulted(vpage)
    }

    /// Swap-in path: read the compressed object from the swap device,
    /// decompress it, and place the page like a compressed-tier fault.
    fn swap_fault_in(
        &mut self,
        vpage: u64,
        comp_len: u32,
        slot: Option<ts_zswap::SwapSlot>,
        origin_tier: usize,
    ) -> f64 {
        if let Some(slot) = slot {
            // Real fidelity: the bytes really come off the device.
            let bytes = self.swap.read(slot).expect("slot is live");
            let codec = self.cfg.compressed_tiers[origin_tier].algorithm.codec();
            ts_zswap::decode_page(codec.as_ref(), &bytes, PAGE_SIZE)
                .expect("swap holds a whole page compressed by its origin tier");
        }
        self.swap_pages -= 1;
        self.swap_bytes -= comp_len as u64;
        self.swap_faults += 1;
        let tcfg = &self.cfg.compressed_tiers[origin_tier];
        SwapDevice::READ_NS + tcfg.decompress_latency_ns() + self.land_faulted(vpage)
    }

    /// Land a faulted page in DRAM if it has room, else in the first byte
    /// tier with room, else overcommit DRAM (tracked; real systems would
    /// reclaim). Returns the landing tier's read latency.
    fn land_faulted(&mut self, vpage: u64) -> f64 {
        if self.dram_used_bytes() + (PAGE_SIZE as u64) > self.cfg.dram_bytes {
            for (i, &(_, cap)) in self.cfg.byte_tiers.iter().enumerate() {
                if (self.resident[1 + i] + 1) * PAGE_SIZE as u64 <= cap {
                    self.pages[vpage as usize] = Residency::Byte(i as u16);
                    self.resident[1 + i] += 1;
                    return self.byte_specs[i].read_latency_ns;
                }
            }
            self.dram_overflow_faults += 1;
        }
        self.pages[vpage as usize] = Residency::Dram;
        self.resident[0] += 1;
        self.dram_spec.read_latency_ns
    }

    /// Enforce tier `t`'s pool limit by writing the oldest compressed pages
    /// back to the swap device (kernel zswap's `max_pool_percent` behaviour).
    /// Returns the writeback cost in ns (daemon tax).
    fn enforce_pool_limit(&mut self, t: usize) -> f64 {
        let Some(&Some(limit)) = self.cfg.pool_limits.get(t).map(|l| l as &Option<u64>) else {
            return 0.0;
        };
        let mut cost = 0.0;
        while self.tier_pool_bytes(t) > limit {
            let Some(victim) = self.wb_order[t].pop_front() else {
                break;
            };
            // Stale entries (already faulted or migrated) are skipped.
            let Residency::Compressed {
                tier,
                comp_len,
                stored,
            } = self.pages[victim as usize]
            else {
                continue;
            };
            if tier as usize != t {
                continue;
            }
            let slot = match (self.zswap.as_mut(), stored) {
                (Some(z), Some(sp)) => {
                    let id = self.zswap_ids[t];
                    // Residency says compressed, but if the zswap entry is
                    // gone (stale handle) skip the victim instead of
                    // panicking; the loop tries the next-oldest page.
                    let bytes = match z.tier(id).ok().and_then(|tr| tr.peek_compressed(sp).ok()) {
                        Some(b) => b,
                        None => continue,
                    };
                    if z.invalidate(id, sp).is_err() {
                        continue;
                    }
                    Some(self.swap.write(bytes))
                }
                _ => None,
            };
            let st = &mut self.tier_stats[t];
            st.pages -= 1;
            st.comp_bytes -= comp_len as u64;
            st.writebacks += 1;
            if self.zswap.is_none() {
                st.pool_bytes_modeled = st.pool_bytes_modeled.saturating_sub(Self::pool_share(
                    self.cfg.compressed_tiers[t].pool,
                    comp_len,
                ));
            }
            self.swap_pages += 1;
            self.swap_bytes += comp_len as u64;
            self.pages[victim as usize] = Residency::Swapped {
                comp_len,
                slot,
                origin_tier: t as u16,
            };
            cost += self.cfg.compressed_tiers[t]
                .media
                .default_spec()
                .stream_ns(comp_len as u64)
                + SwapDevice::WRITE_NS;
        }
        cost
    }

    /// The zswap subsystem behind the compressed tiers (`Real` fidelity).
    pub fn zswap(&self) -> Option<&ZswapSubsystem> {
        self.zswap.as_ref()
    }

    /// Pages currently written back to the swap device.
    pub fn swapped_pages(&self) -> u64 {
        self.swap_pages
    }

    /// Migrate one page to `dest`; returns the migration cost in ns, charged
    /// to the daemon (not application time).
    ///
    /// When a fault plan is installed and a compressed destination's pool
    /// is exhausted ([`TierError::PoolExhausted`]), the move overflows
    /// waterfall-style into the next compressed tier down, tier by tier,
    /// until one accepts the page or none remain.
    ///
    /// # Errors
    ///
    /// [`SimError::Rejected`] when a compressed destination rejects the page
    /// as incompressible; [`SimError::Tier`] when a fault (injected or
    /// genuine, with a plan installed) leaves the page in its source
    /// placement. Either way the page stays where it was.
    pub fn migrate_page(&mut self, vpage: u64, dest: Placement) -> SimResult<f64> {
        let mut dest = dest;
        loop {
            match self.migrate_page_once(vpage, dest) {
                Err(SimError::Tier(TierError::PoolExhausted)) => match self.overflow_dest(dest) {
                    Some(next) => dest = next,
                    None => return Err(SimError::Tier(TierError::PoolExhausted)),
                },
                other => return other,
            }
        }
    }

    /// One migration attempt to exactly `dest` (no waterfall fallback):
    /// insert into the destination, then commit, back to back.
    fn migrate_page_once(&mut self, vpage: u64, dest: Placement) -> SimResult<f64> {
        if self.page_placement(vpage) == dest {
            return Ok(0.0);
        }
        let inserted = match dest {
            Placement::Dram | Placement::ByteTier(_) => Inserted::Bytes(dest),
            Placement::Compressed(t) => self.insert_serial(vpage, t)?,
        };
        let (move_ns, wb_ns) = self.commit(vpage, inserted, false);
        let cost = move_ns + wb_ns;
        self.daemon_ns += cost;
        self.advance_tco(cost);
        Ok(cost)
    }

    /// Insert `vpage` into compressed tier `t` on the serial path: prepare
    /// and insert in one go (`Real`), or model the store (`Modeled`).
    fn insert_serial(&mut self, vpage: u64, t: usize) -> SimResult<Inserted> {
        let Some(z) = self.zswap.as_mut() else {
            return self.model_store(vpage, t);
        };
        let dest = Placement::Compressed(t);
        let job = (vpage, self.pages[vpage as usize], dest);
        let inserted = prepare(
            z,
            &self.zswap_ids,
            self.workload.as_ref(),
            job,
            &mut self.page_buf,
        )
        .and_then(|p| p.insert(z, &self.zswap_ids));
        inserted.map_err(|e| self.insert_error(dest, e))
    }

    /// Model storing `vpage` into compressed tier `t` (`Modeled` fidelity).
    /// With no zswap layer to trip inside, the store-path faults are drawn
    /// here (`Real` fidelity injects inside ts-zswap/ts-zpool, keyed by the
    /// serial insert step's store counters); the compressed length comes
    /// from the calibration table.
    fn model_store(&mut self, vpage: u64, t: usize) -> SimResult<Inserted> {
        if self.fault_trips(FaultSite::ZswapStore) {
            self.fault_counters.bump(FaultSite::ZswapStore);
            return Err(SimError::Tier(TierError::CompressFailed));
        }
        if self.fault_trips(FaultSite::PoolAlloc) {
            self.fault_counters.bump(FaultSite::PoolAlloc);
            return Err(SimError::Tier(TierError::PoolExhausted));
        }
        let class = self.workload.page_class(vpage);
        let comp_len = if class == ts_workloads::PageClass::Zero {
            // Same-filled page: a marker, no pool bytes (kernel zswap's
            // same-filled optimization).
            0
        } else {
            let tag = vpage ^ self.cfg.seed.rotate_left(13);
            let algorithm = self.cfg.compressed_tiers[t].algorithm;
            match self.calib.modeled_len(algorithm, class, tag) {
                Some(n) => n as u32,
                None => {
                    self.tier_stats[t].rejections += 1;
                    return Err(SimError::Rejected);
                }
            }
        };
        Ok(Inserted::Stored {
            t,
            comp_len,
            stored: None,
        })
    }

    /// Map a zswap insert error for a move to `dest` into the simulator's
    /// error space, counting rejections and faults where they surface.
    fn insert_error(&mut self, dest: Placement, e: ZswapError) -> SimError {
        match e {
            ZswapError::Incompressible => {
                if let Placement::Compressed(t) = dest {
                    self.tier_stats[t].rejections += 1;
                }
                SimError::Rejected
            }
            ZswapError::CompressFailed => {
                self.fault_counters.bump(FaultSite::ZswapStore);
                SimError::Tier(TierError::CompressFailed)
            }
            ZswapError::Pool(PoolError::OutOfMemory) if self.faults.is_some() => {
                self.fault_counters.bump(FaultSite::PoolAlloc);
                SimError::Tier(TierError::PoolExhausted)
            }
            e => SimError::Zswap(e),
        }
    }

    /// Commit one page whose destination insert already happened: release
    /// the source, then update the page table, statistics and writeback
    /// queue. Returns the move cost and the pool-limit writeback cost it
    /// triggered. `batched` pages were decompressed while being prepared,
    /// so a compressed source is invalidated rather than loaded.
    fn commit(&mut self, vpage: u64, inserted: Inserted, batched: bool) -> (f64, f64) {
        match inserted {
            Inserted::Bytes(dest) => {
                let out_ns = self.remove_from_current(vpage, batched);
                (out_ns + self.place_byte(vpage, dest), 0.0)
            }
            Inserted::Stored {
                t,
                comp_len,
                stored,
            } => {
                let out_ns = self.remove_from_current(vpage, false);
                let wb_ns = self.enter_compressed(vpage, t, comp_len, stored);
                let tcfg = &self.cfg.compressed_tiers[t];
                let store_ns = tcfg.compress_latency_ns();
                let stream_ns = tcfg.media.default_spec().stream_ns(comp_len as u64);
                // Batched charges sum left to right and serial ones group
                // the insert terms; goldens pin both orders bit for bit.
                let move_ns = if batched {
                    out_ns + store_ns + stream_ns
                } else {
                    out_ns + (store_ns + stream_ns)
                };
                (move_ns, wb_ns)
            }
            Inserted::Migrated(t, out) => {
                let Residency::Compressed {
                    tier: from,
                    comp_len,
                    stored: Some(s),
                } = self.pages[vpage as usize]
                else {
                    unreachable!("migrations start from stored compressed pages")
                };
                let from = from as usize;
                self.zswap
                    .as_mut()
                    .expect("migrations imply Real fidelity")
                    .release_source(self.zswap_ids[from], s)
                    .expect("source copy is live until its commit");
                let fs = &mut self.tier_stats[from];
                fs.pages -= 1;
                fs.comp_bytes -= comp_len as u64;
                let new_len = out.stored.compressed_len as u32;
                let wb_ns = self.enter_compressed(vpage, t, new_len, Some(out.stored));
                (out.cost_ns, wb_ns)
            }
        }
    }

    /// Record `vpage` as stored in compressed tier `t` and enforce the
    /// tier's pool limit, now that the page is a writeback candidate there;
    /// returns the writeback cost.
    fn enter_compressed(
        &mut self,
        vpage: u64,
        t: usize,
        comp_len: u32,
        stored: Option<StoredPage>,
    ) -> f64 {
        let st = &mut self.tier_stats[t];
        st.pages += 1;
        st.comp_bytes += comp_len as u64;
        st.stores += 1;
        if self.zswap.is_none() {
            st.pool_bytes_modeled += Self::pool_share(self.cfg.compressed_tiers[t].pool, comp_len);
        }
        self.pages[vpage as usize] = Residency::Compressed {
            tier: t as u16,
            comp_len,
            stored,
        };
        self.wb_order[t].push_back(vpage);
        self.enforce_pool_limit(t)
    }

    /// Remove a page from its current residency, returning the read-out
    /// cost. A zswap-backed source is loaded, unless it was `decompressed`
    /// already while being prepared; then it is only invalidated, which
    /// keeps zswap fault statistics for real faults.
    fn remove_from_current(&mut self, vpage: u64, decompressed: bool) -> f64 {
        match self.pages[vpage as usize] {
            Residency::Dram => {
                self.resident[0] -= 1;
                self.dram_spec.stream_ns(PAGE_SIZE as u64)
            }
            Residency::Byte(i) => {
                self.resident[1 + i as usize] -= 1;
                self.byte_specs[i as usize].stream_ns(PAGE_SIZE as u64)
            }
            Residency::Swapped {
                comp_len,
                slot,
                origin_tier,
            } => {
                if let Some(slot) = slot {
                    let _ = self.swap.read(slot).expect("slot is live");
                }
                self.swap_pages -= 1;
                self.swap_bytes -= comp_len as u64;
                let t = &self.cfg.compressed_tiers[origin_tier as usize];
                SwapDevice::READ_NS + t.decompress_latency_ns()
            }
            Residency::Compressed {
                tier,
                comp_len,
                stored,
            } => {
                if let (Some(z), Some(s)) = (self.zswap.as_mut(), stored) {
                    let id = self.zswap_ids[tier as usize];
                    if decompressed {
                        z.invalidate(id, s).expect("stored page is live");
                    } else {
                        let _ = z.load(id, s).expect("stored page is live");
                    }
                }
                let st = &mut self.tier_stats[tier as usize];
                st.pages -= 1;
                st.comp_bytes -= comp_len as u64;
                if self.zswap.is_none() {
                    st.pool_bytes_modeled = st.pool_bytes_modeled.saturating_sub(Self::pool_share(
                        self.cfg.compressed_tiers[tier as usize].pool,
                        comp_len,
                    ));
                }
                let t = &self.cfg.compressed_tiers[tier as usize];
                if comp_len == 0 {
                    ts_zswap::tier::SAME_FILLED_FAULT_NS
                } else {
                    t.decompress_latency_ns() + t.media.default_spec().stream_ns(comp_len as u64)
                }
            }
        }
    }

    /// Place a (already removed) page into DRAM or a byte tier.
    fn place_byte(&mut self, vpage: u64, dest: Placement) -> f64 {
        match dest {
            Placement::Dram => {
                self.pages[vpage as usize] = Residency::Dram;
                self.resident[0] += 1;
                self.dram_spec.stream_ns(PAGE_SIZE as u64)
            }
            Placement::ByteTier(i) => {
                self.pages[vpage as usize] = Residency::Byte(i as u16);
                self.resident[1 + i] += 1;
                self.byte_specs[i].stream_ns(PAGE_SIZE as u64)
            }
            Placement::Compressed(_) => unreachable!("byte placement only"),
        }
    }

    /// Migrate every page of `region` to `dest`; rejected pages stay put.
    pub fn migrate_region(&mut self, region: u64, dest: Placement) -> MigrationReport {
        let mut report = MigrationReport::default();
        let faults_before = self.fault_counters;
        for p in self.region_pages(region) {
            match self.migrate_page(p, dest) {
                Ok(c) => {
                    if c > 0.0 {
                        report.moved += 1;
                    }
                    report.cost_ns += c;
                }
                Err(SimError::Rejected) => report.rejected += 1,
                Err(_) => report.rejected += 1,
            }
        }
        report.regions_moved = u64::from(report.moved > 0);
        report.faults = self.fault_counters.since(faults_before);
        report
    }

    /// Execute a whole window plan through the migration engine, in three
    /// steps:
    ///
    /// 1. **Classify.** Every plan page is classified against a snapshot of
    ///    the page table, and the pages the engine can batch are grouped
    ///    into one batch per destination placement, in first-appearance
    ///    order. Injected migration aborts are drawn here, serially.
    /// 2. **Prepare, then insert, chunk by chunk.** Batched pages are walked
    ///    in batch order (plan order within a batch). Each chunk of
    ///    [`PREPARE_CHUNK`] pages is prepared on `workers` threads — pure
    ///    compression, recompression or decompression from `&self` — and
    ///    then inserted into its destination tier on this thread.
    /// 3. **Commit.** The plan is walked in plan order: batched pages
    ///    release their source and update the page table, statistics and
    ///    writeback queue through the same helpers the serial path uses;
    ///    the others run [`TieredSystem::migrate_page`] at their position.
    ///
    /// Every insert happens before any commit-time source release or
    /// pool-limit writeback, and every state change happens on this thread
    /// in an order fixed by the plan, so the outcome — placements,
    /// statistics, and every charged nanosecond — is bit-identical for any
    /// `workers` value. The charged daemon time models one logical worker
    /// per batch: the *slowest batch's* busy time (plus the serial
    /// writeback extras), not the sum over batches.
    ///
    /// Pages the engine cannot batch (swapped or same-filled sources,
    /// `Modeled`-fidelity pages without real handles, duplicate plan
    /// entries) take the serial path.
    pub fn execute_plan(&mut self, moves: &[PlannedMove], workers: usize) -> MigrationReport {
        let workers = workers.max(1);
        let mut report = MigrationReport {
            workers: workers as u32,
            ..MigrationReport::default()
        };
        let faults_before = self.fault_counters;

        // Classify every page of the plan against a snapshot of the page
        // table. Nothing below mutates simulator state until the commit
        // step, so the snapshot is exact; only a commit-time pool-limit
        // writeback can invalidate it (caught by the stale guard below).
        // A region listed twice would see the first entry's effects, so
        // duplicates take the serial path.
        let mut seen = std::collections::BTreeSet::new();
        let mut batch_of: std::collections::BTreeMap<Placement, usize> =
            std::collections::BTreeMap::new();
        // Batches in first-appearance order of their destination, each
        // listing its pages (indices into `plan`) in plan order.
        let mut batches: Vec<(Placement, Vec<usize>)> = Vec::new();
        let mut plan: Vec<PlanPage> = Vec::new();

        for (entry, mv) in moves.iter().enumerate() {
            let fresh = seen.insert(mv.region);
            for vpage in self.region_pages(mv.region) {
                let snap = self.pages[vpage as usize];
                let disp = if self.page_placement(vpage) == mv.dest {
                    Disposition::Skip
                } else if self.fault_trips(FaultSite::MigrationCopy) {
                    // Injected migration abort: drawn here, on the serial
                    // classification pass, so the decision sequence (and
                    // thus the whole run) is identical at any worker count.
                    // The page is never enqueued and keeps its placement.
                    self.fault_counters.bump(FaultSite::MigrationCopy);
                    Disposition::Aborted
                } else if fresh && self.zswap.is_some() && Self::batchable(snap, mv.dest) {
                    let batch = *batch_of.entry(mv.dest).or_insert_with(|| {
                        batches.push((mv.dest, Vec::new()));
                        batches.len() - 1
                    });
                    batches[batch].1.push(plan.len());
                    let job = batches[batch].1.len() - 1;
                    Disposition::Batched { batch, job }
                } else {
                    Disposition::Serial
                };
                plan.push(PlanPage {
                    entry,
                    vpage,
                    snap,
                    disp,
                });
            }
        }
        report.batches = batches.len() as u32;

        // Prepare, then insert, chunk by chunk, in batch order. Only the
        // inserts write, and they run here in a fixed order, so every
        // destination pool (and every frame of a shared node) sees the same
        // sequence of stores at any worker count. Host wall time per batch
        // (prepare + insert) feeds only the trace.
        let scopes: Vec<String> = batches.iter().map(|(dest, _)| dest.to_string()).collect();
        let mut inserted: Vec<Vec<ZswapResult<Inserted>>> = vec![Vec::new(); batches.len()];
        let mut wall = vec![0u64; batches.len()];
        let order: Vec<(usize, usize)> = batches
            .iter()
            .enumerate()
            .flat_map(|(b, (_, pages))| pages.iter().map(move |&i| (b, i)))
            .collect();
        for chunk in order.chunks(PREPARE_CHUNK) {
            let jobs: Vec<(u64, Residency, Placement)> = chunk
                .iter()
                .map(|&(_, i)| (plan[i].vpage, plan[i].snap, moves[plan[i].entry].dest))
                .collect();
            for (&(b, _), (prepared, prepare_ns)) in
                chunk.iter().zip(self.prepare_chunk(&jobs, workers))
            {
                let timer = SpanTimer::new();
                let z = self
                    .zswap
                    .as_mut()
                    .expect("batched pages imply Real fidelity");
                let result = prepared.and_then(|p| p.insert(z, &self.zswap_ids));
                wall[b] += prepare_ns + timer.elapsed_ns();
                if let Some(obs) = self.obs.as_deref_mut() {
                    record_insert(obs, &scopes[b], &result);
                }
                inserted[b].push(result);
            }
        }

        // Commit serially, in plan order.
        let mut busy = vec![0.0f64; batches.len()];
        let mut serial_extra = 0.0f64;
        let mut tail_ns = 0.0f64;
        let mut entry_moved = vec![false; moves.len()];
        let mut serial_pages = 0u64;
        let mut skipped_pages = 0u64;
        let mut aborted_pages = 0u64;

        for PlanPage {
            entry,
            vpage,
            snap,
            disp,
        } in plan
        {
            let dest = moves[entry].dest;
            // Where the page still has to go through `migrate_page`.
            let serial_dest = match disp {
                Disposition::Skip => {
                    skipped_pages += 1;
                    None
                }
                Disposition::Aborted => {
                    aborted_pages += 1;
                    None
                }
                Disposition::Serial => {
                    serial_pages += 1;
                    Some(dest)
                }
                Disposition::Batched { batch, job } => {
                    let inserted = inserted[batch][job].clone();
                    if self.pages[vpage as usize] != snap {
                        // An earlier commit's pool-limit writeback evicted
                        // this page to swap after the snapshot: the copy
                        // the insert made is an orphan. Roll it back and
                        // take the serial path, which handles the swap
                        // source.
                        self.roll_back(&inserted);
                        Some(dest)
                    } else {
                        match inserted.map_err(|e| self.insert_error(dest, e)) {
                            Ok(ins) => {
                                let (move_ns, wb_ns) = self.commit(vpage, ins, true);
                                busy[batch] += move_ns;
                                serial_extra += wb_ns;
                                report.moved += 1;
                                entry_moved[entry] = true;
                                None
                            }
                            // Destination pool exhausted at insert: retry
                            // on the serial waterfall path, which overflows
                            // into the next compressed tier down.
                            Err(SimError::Tier(TierError::PoolExhausted)) => {
                                let next = self.overflow_dest(dest);
                                report.rejected += u64::from(next.is_none());
                                next
                            }
                            Err(_) => {
                                report.rejected += 1;
                                None
                            }
                        }
                    }
                }
            };
            if let Some(dest) = serial_dest {
                match self.migrate_page(vpage, dest) {
                    Ok(c) => {
                        if c > 0.0 {
                            report.moved += 1;
                            entry_moved[entry] = true;
                        }
                        tail_ns += c;
                    }
                    Err(_) => report.rejected += 1,
                }
            }
        }

        // Deterministic reduction: the engine models one logical worker
        // per destination batch, so the charged wall-clock is the slowest
        // batch's busy time — invariant in the configured `workers`, which
        // only changes how fast the *host* prepares pages.
        let critical = busy.iter().fold(0.0f64, |a, &b| a.max(b));
        report.stall_ns = busy.iter().map(|&b| critical - b).sum();
        let engine_ns = critical + serial_extra;
        self.daemon_ns += engine_ns;
        self.advance_tco(engine_ns);
        report.cost_ns = engine_ns + tail_ns;
        report.regions_moved = entry_moved.iter().filter(|&&m| m).count() as u64;
        report.faults = self.fault_counters.since(faults_before);

        // Record the plan into the metrics registry. Like the report, it is
        // bit-identical at any worker count; only span wall-clocks vary, and
        // those stay out of the snapshot artifact by construction.
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.inc("migrate.plans");
            obs.add("migrate.pages_moved", report.moved);
            obs.add("migrate.pages_rejected", report.rejected);
            obs.add("migrate.regions_moved", report.regions_moved);
            obs.add("migrate.batches", report.batches as u64);
            obs.add("migrate.serial_pages", serial_pages);
            obs.add("migrate.skipped_pages", skipped_pages);
            obs.add("migrate.aborted_pages", aborted_pages);
            obs.add("migrate.faults_injected", report.faults.total());
            obs.gauge_add("migrate.stall_ns", report.stall_ns);
            if !moves.is_empty() {
                obs.observe("migrate.plan_cost_ns", report.cost_ns);
            }
            for (b, (_, pages)) in batches.iter().enumerate() {
                obs.span_raw(
                    "migrate.batch",
                    &scopes[b],
                    wall[b],
                    busy[b],
                    &[("jobs", pages.len() as f64)],
                );
            }
        }
        report
    }

    /// Whether a page with residency `snap` can move to `dest` as a batched
    /// page: a real-handle compressed source (not a same-filled marker)
    /// toward another compressed tier, a DRAM or byte-tier source toward a
    /// compressed tier, or a real-handle compressed source toward a byte
    /// placement. Swapped sources need the single-writer swap device, and
    /// same-filled and handle-less pages are pure bookkeeping: all cheap,
    /// all serial.
    fn batchable(snap: Residency, dest: Placement) -> bool {
        match (snap, dest) {
            (
                Residency::Compressed {
                    stored: Some(s), ..
                },
                Placement::Compressed(_),
            ) => !s.is_same_filled(),
            (Residency::Dram | Residency::Byte(_), Placement::Compressed(_)) => true,
            (
                Residency::Compressed {
                    stored: Some(_),
                    comp_len,
                    ..
                },
                Placement::Dram | Placement::ByteTier(_),
            ) => comp_len > 0,
            _ => false,
        }
    }

    /// Prepare one chunk of batched pages on up to `workers` threads, the
    /// calling thread included. Each thread claims the next unprepared job
    /// from one shared counter until none is left, so a thread that drew
    /// cheap jobs (a same-algorithm copy costs ~1 µs, a fill and deflate
    /// ~150 µs) takes more of them instead of idling at the join. Results
    /// are merged back into job order, each with the host nanoseconds its
    /// prepare took.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place threads are created: a job's prepare is pure and results merge in job order"
    )]
    fn prepare_chunk(
        &self,
        jobs: &[(u64, Residency, Placement)],
        workers: usize,
    ) -> Vec<(ZswapResult<Prepared>, u64)> {
        let z = self
            .zswap
            .as_ref()
            .expect("batched pages imply Real fidelity");
        let (ids, wl) = (&self.zswap_ids[..], self.workload.as_ref());
        // The counter only hands out job indices; each result travels back
        // through its thread's join, so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        let run = || {
            let mut scratch = vec![0u8; PAGE_SIZE];
            let mut claimed = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&job) = jobs.get(i) else {
                    return claimed;
                };
                let timer = SpanTimer::new();
                let prepared = prepare(z, ids, wl, job, &mut scratch);
                claimed.push((i, prepared, timer.elapsed_ns()));
            }
        };
        let mut claimed = if workers == 1 || jobs.len() < 2 {
            run()
        } else {
            let run = &run;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (1..workers.min(jobs.len()))
                    .map(|_| scope.spawn(run))
                    .collect();
                let mut claimed = run();
                for h in handles {
                    claimed.extend(h.join().expect("prepare worker panicked"));
                }
                claimed
            })
        };
        claimed.sort_unstable_by_key(|&(i, ..)| i);
        debug_assert!(claimed.iter().enumerate().all(|(k, &(i, ..))| k == i));
        claimed.into_iter().map(|(_, p, ns)| (p, ns)).collect()
    }

    /// Invalidate the destination copy a stale batched page's insert left
    /// behind. Decompressed pages and failed inserts left nothing.
    fn roll_back(&mut self, inserted: &ZswapResult<Inserted>) {
        let (t, orphan) = match inserted {
            Ok(Inserted::Stored {
                t, stored: Some(s), ..
            }) => (*t, *s),
            Ok(Inserted::Migrated(t, out)) => (*t, out.stored),
            _ => return,
        };
        self.zswap
            .as_mut()
            .expect("batched pages imply Real fidelity")
            .invalidate(self.zswap_ids[t], orphan)
            .expect("orphaned copy is live");
    }

    /// Charge extra daemon time (profiling, solver) to the tax account.
    pub fn charge_daemon_ns(&mut self, ns: f64) {
        self.daemon_ns += ns;
        self.advance_tco(ns);
    }

    /// Cumulative daemon (TierScape tax) time in ns.
    pub fn daemon_ns(&self) -> f64 {
        self.daemon_ns
    }

    fn advance_tco(&mut self, dt_ns: f64) {
        self.tco_integral += self.current_tco() * dt_ns;
        self.tco_clock_ns += dt_ns;
    }

    /// Instantaneous memory TCO (Eq. 10).
    pub fn current_tco(&self) -> f64 {
        let mut tco = self
            .dram_spec
            .cost_of_bytes(self.resident[0] * PAGE_SIZE as u64);
        for (i, spec) in self.byte_specs.iter().enumerate() {
            tco += spec.cost_of_bytes(self.resident[1 + i] * PAGE_SIZE as u64);
        }
        for (i, t) in self.cfg.compressed_tiers.iter().enumerate() {
            tco += t
                .media
                .default_spec()
                .cost_of_bytes(self.tier_pool_bytes(i));
        }
        tco += SwapDevice::COST_PER_GB * self.swap_bytes as f64 / (1u64 << 30) as f64;
        tco
    }

    /// TCO with every page in DRAM (Eq. 1's `TCO_max`).
    pub fn tco_max(&self) -> f64 {
        self.dram_spec
            .cost_of_bytes(self.total_pages() * PAGE_SIZE as u64)
    }

    /// Estimated minimum TCO: every page in its cheapest placement
    /// (Eq. 1's `TCO_min`).
    pub fn tco_min(&self) -> f64 {
        let per_page = self
            .placements()
            .iter()
            .map(|&p| self.placement_cost_per_page(p))
            .fold(f64::INFINITY, f64::min);
        per_page * self.total_pages() as f64
    }

    /// Performance report (Eq. 3–7 accounting plus tail latencies).
    pub fn perf_report(&self) -> PerfReport {
        let perf_opt = self.accesses as f64
            * (self.dram_spec.read_latency_ns + self.cfg.compute_ns_per_access);
        PerfReport {
            accesses: self.accesses,
            app_time_ns: self.app_time_ns,
            perf_opt_ns: perf_opt,
            slowdown: if perf_opt > 0.0 {
                self.app_time_ns / perf_opt - 1.0
            } else {
                0.0
            },
            mean_latency_ns: self.hist.mean(),
            p95_ns: self.hist.percentile(95.0),
            p999_ns: self.hist.percentile(99.9),
        }
    }

    /// TCO report over the run so far.
    pub fn tco_report(&self) -> TcoReport {
        let tco_now = self.current_tco();
        let tco_avg = if self.tco_clock_ns > 0.0 {
            self.tco_integral / self.tco_clock_ns
        } else {
            tco_now
        };
        let tco_max = self.tco_max();
        TcoReport {
            tco_now,
            tco_avg,
            tco_max,
            savings: 1.0 - tco_avg / tco_max,
        }
    }

    /// Region hotness helper: total pages currently compressed anywhere.
    pub fn compressed_pages(&self) -> u64 {
        self.tier_stats.iter().map(|s| s.pages).sum()
    }

    /// Mutable access to the workload (e.g. to drive phases in tests).
    pub fn workload_mut(&mut self) -> &mut dyn Workload {
        self.workload.as_mut()
    }
}

impl std::fmt::Debug for TieredSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredSystem")
            .field("pages", &self.pages.len())
            .field("resident", &self.resident)
            .field("accesses", &self.accesses)
            .finish()
    }
}
