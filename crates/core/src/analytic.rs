//! TierScape's analytical placement model (§6.2–6.7).
//!
//! At each profile window the model solves the ILP of Eq. 2:
//!
//! ```text
//! minimize   perf_ovh                      (Eq. 7)
//! subject to TCO <= TCO_min + alpha * MTS  (Eq. 1/2, MTS = TCO_max - TCO_min)
//! ```
//!
//! choosing one destination tier per 2 MiB region. The per-region
//! performance term charges `delta_TN * MemAcc` for byte tiers and
//! `Lat_CT * MemAcc` for compressed tiers (Eq. 7), with next-window accesses
//! assumed proportional to the cooled hotness of the closing window (§6.6).
//! The ILP is a multiple-choice knapsack and is solved with
//! [`ts_solver::mckp`]; the knob `alpha in [0, 1]` trades TCO savings
//! against performance (Fig. 5).

use crate::policy::{full_hotness, PlacementPolicy, PlanCacheMode, PlanDecision, PlanEntry};
use ts_sim::{Placement, TieredSystem};
use ts_solver::mckp::{MckpItem, MckpProblem, MckpSolution, WarmState};
use ts_telemetry::HotnessSnapshot;

/// Where the ILP solver runs (Fig. 14's Local vs Remote configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverSite {
    /// Solve on the local machine: solver CPU time is daemon tax.
    Local,
    /// Ship the profile to a remote solver: only the modeled round trip
    /// (`remote_round_trip_ns`) is charged locally.
    Remote,
}

/// Modeled network round trip to the remote solver machine, in ns: one
/// request/response over a datacenter TCP connection within a rack.
pub(crate) const REMOTE_RTT_NS: f64 = 20_000.0;

/// Modeled link bandwidth to the remote solver machine, in bytes per ns
/// (10 Gb/s).
pub(crate) const REMOTE_LINK_BYTES_PER_NS: f64 = 1.25;

/// Modeled cost of one remote solve as seen by the daemon, in ns: the
/// fixed round trip plus the instance out (16 B per MCKP item: its perf and
/// TCO costs as two `f64`s) and the choice vector back (8 B per region),
/// both over the link. The solver CPU runs on the remote machine, so no
/// solve time is charged; like every other cost here it is a model, so the
/// remote rows are as reproducible as the local ones.
pub(crate) fn remote_round_trip_ns(regions: usize, n_items: usize) -> f64 {
    let bytes = n_items as f64 * 16.0 + regions as f64 * 8.0;
    REMOTE_RTT_NS + bytes / REMOTE_LINK_BYTES_PER_NS
}

/// Window-to-window solver state for incremental re-solves (DESIGN.md §5f).
///
/// The cache key is pure state: the previous window's hotness vector,
/// compared bit-for-bit. Neither wall-clock time nor anything derived from
/// it ever enters — the same window sequence always produces the same
/// decisions, on any host, at any worker count.
#[derive(Debug, Default)]
struct PlanCache {
    /// `f64::to_bits` of the prior window's full hotness vector.
    prev_hot_bits: Vec<u64>,
    /// Sorted-step state from the prior solve, for warm re-solves.
    warm: Option<WarmState>,
    /// The prior solution, for `Reuse` revalidation and warm seeding.
    prev_solution: Option<MckpSolution>,
}

impl PlanCache {
    /// Decide what this window needs, from a bit-exact hotness diff.
    ///
    /// This is a pure function of state and deliberately independent of the
    /// active [`PlanCacheMode`]: the mode selects which execution path acts
    /// on the decision, so `solver.warm_hits`/`solver.dirty_regions`
    /// counters derived from the decision are identical across modes.
    fn decide(&self, hot_bits: &[u64]) -> PlanDecision {
        if self.prev_solution.is_none() || self.prev_hot_bits.len() != hot_bits.len() {
            return PlanDecision::ColdSolve;
        }
        let dirty_regions: Vec<u64> = self
            .prev_hot_bits
            .iter()
            .zip(hot_bits)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(r, _)| r as u64)
            .collect();
        if dirty_regions.is_empty() {
            PlanDecision::Reuse
        } else {
            PlanDecision::WarmSolve { dirty_regions }
        }
    }
}

/// The analytical model.
#[derive(Debug)]
pub struct AnalyticalModel {
    /// The TCO/performance knob, `[0, 1]`: 1 = maximum performance (all
    /// DRAM), 0 = maximum TCO savings.
    pub alpha: f64,
    /// Solver placement (Fig. 14).
    pub site: SolverSite,
    last_cost_ns: f64,
    last_iterations: u64,
    label: Option<String>,
    /// Use per-region compressibility for TCO costs (§9(ii) extension).
    pub content_aware: bool,
    cache_mode: PlanCacheMode,
    cache: PlanCache,
    last_decision: PlanDecision,
}

impl AnalyticalModel {
    /// Create a model with knob `alpha` and a local solver.
    pub fn new(alpha: f64) -> Self {
        AnalyticalModel {
            alpha: alpha.clamp(0.0, 1.0),
            site: SolverSite::Local,
            last_cost_ns: 0.0,
            last_iterations: 0,
            label: None,
            content_aware: false,
            cache_mode: PlanCacheMode::default(),
            cache: PlanCache::default(),
            last_decision: PlanDecision::default(),
        }
    }

    /// The paper's TCO-preferred configuration (small alpha).
    ///
    /// The paper does not publish its exact knob values. 0.2 was calibrated
    /// to sit just below the "all-NVMM knee" of our cost geometry (the
    /// budget at which compressing becomes necessary), which reproduces the
    /// paper's Fig. 9 behaviour: most pages recommended to NVMM or CT-2,
    /// with CT-2 faults climbing under shifting access patterns. See
    /// EXPERIMENTS.md for the calibration notes.
    pub fn am_tco() -> Self {
        Self::new(0.2).labeled("AM-TCO")
    }

    /// The paper's performance-preferred configuration (large alpha).
    pub fn am_perf() -> Self {
        Self::new(0.9).labeled("AM-perf")
    }

    /// Use a remote solver site.
    pub fn remote(mut self) -> Self {
        self.site = SolverSite::Remote;
        self
    }

    /// Enable compressibility-aware placement: each region's TCO cost in a
    /// compressed tier uses the region's own predicted compression ratio
    /// (sampled content classes x calibration) rather than the tier-wide
    /// average. Incompressible regions then prefer byte-addressable tiers
    /// (§3.3: "even if the page is cold, it is not beneficial to place it in
    /// a compressed tier if the page is not compressible").
    pub fn content_aware(mut self) -> Self {
        self.content_aware = true;
        self
    }

    /// Attach a display label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Modeled CPU cost of one local greedy MCKP solve over `n_items`
    /// candidate (region, tier) pairs, in ns.
    ///
    /// The greedy solver sorts the incremental-ratio candidates and sweeps
    /// them once — O(N log N) comparisons at ~25 ns each on a server core.
    /// Charging a modeled figure instead of a stopwatch reading keeps daemon
    /// runs bit-reproducible: the same plan costs the same tax on any host,
    /// under any `migration_workers` setting. The charge is also invariant
    /// under [`PlanCacheMode`] — warm/reuse windows charge the cold figure
    /// so artifacts stay byte-identical across modes; the warm saving is
    /// surfaced by the solver criterion bench's modeled rows instead
    /// ([`ts_solver::mckp::cost`]).
    fn local_solve_ns(n_items: usize) -> f64 {
        ts_solver::mckp::cost::greedy_cold_ns(n_items)
    }

    /// Solve one window locally through the plan cache.
    ///
    /// The decision (cold / warm / reuse) is computed from state alone; the
    /// configured [`PlanCacheMode`] then picks the execution path. Every
    /// path yields a bit-identical [`MckpSolution`]: warm re-solves merge
    /// into the exact cold step order (asserted against a cold solve in
    /// debug builds), and `Reuse` revalidates the stored solution against
    /// the rebuilt problem before trusting it.
    fn solve_local(&mut self, hot: &[f64], problem: &MckpProblem) -> MckpSolution {
        const FEASIBLE: &str = "budget >= TCO_min by construction, so always feasible";
        let hot_bits: Vec<u64> = hot.iter().map(|h| h.to_bits()).collect();
        let decision = self.cache.decide(&hot_bits);
        let (solution, warm) = match (&decision, self.cache_mode) {
            (PlanDecision::ColdSolve, _) | (_, PlanCacheMode::Off) => {
                problem.solve_greedy_with_state().expect(FEASIBLE)
            }
            (PlanDecision::WarmSolve { dirty_regions }, _) => {
                let dirty: Vec<usize> = dirty_regions.iter().map(|&r| r as usize).collect();
                match self.cache.warm.take() {
                    Some(w) => problem.resolve_warm(w, &dirty).expect(FEASIBLE),
                    None => problem.solve_greedy_with_state().expect(FEASIBLE),
                }
            }
            (PlanDecision::Reuse, PlanCacheMode::Warm) => match self.cache.warm.take() {
                Some(w) => problem.resolve_warm(w, &[]).expect(FEASIBLE),
                None => problem.solve_greedy_with_state().expect(FEASIBLE),
            },
            (PlanDecision::Reuse, PlanCacheMode::Reuse) => {
                let revalidated = self
                    .cache
                    .prev_solution
                    .as_ref()
                    .and_then(|s| problem.reuse_solution(s));
                match (self.cache.warm.take(), revalidated) {
                    (Some(w), Some(sol)) => (sol, w),
                    _ => problem.solve_greedy_with_state().expect(FEASIBLE),
                }
            }
        };
        self.cache.prev_hot_bits = hot_bits;
        self.cache.warm = Some(warm);
        self.cache.prev_solution = Some(solution.clone());
        self.last_decision = decision;
        solution
    }

    /// Build the MCKP instance for the current window.
    fn build_problem(&self, hot: &[f64], system: &TieredSystem) -> (MckpProblem, Vec<Placement>) {
        let placements = system.placements();
        let dram_lat = system.placement_latency_ns(Placement::Dram);
        let region_pages = system.pages_per_region() as f64;
        let page_bytes = ts_mem::PAGE_SIZE as u64;
        let mut groups = Vec::with_capacity(hot.len());
        for (region, &h) in hot.iter().enumerate() {
            let items: Vec<MckpItem> = placements
                .iter()
                .map(|&p| {
                    // Eq. 7: delta for byte tiers (Lat_T - Lat_DRAM);
                    // full fault cost for compressed tiers.
                    let perf = match p {
                        Placement::Dram => 0.0,
                        Placement::ByteTier(_) => h * (system.placement_latency_ns(p) - dram_lat),
                        Placement::Compressed(_) => h * system.placement_latency_ns(p),
                    };
                    let tco = match (self.content_aware, p) {
                        (true, Placement::Compressed(t)) => {
                            let ratio = system.region_compress_ratio(region as u64, t);
                            let media = system.config().compressed_tiers[t].media.default_spec();
                            region_pages * media.cost_of_bytes(page_bytes) * ratio
                        }
                        _ => region_pages * system.placement_cost_per_page(p),
                    };
                    MckpItem::new(perf, tco)
                })
                .collect();
            groups.push(items);
        }
        // Budget: TCO_min + alpha * (TCO_max - TCO_min), computed over the
        // same per-region item costs so units always agree.
        let tco_max: f64 = groups
            .iter()
            .map(|g| g[0].tco_cost) // Placement 0 is DRAM.
            .sum();
        let tco_min: f64 = groups
            .iter()
            .map(|g| g.iter().map(|i| i.tco_cost).fold(f64::INFINITY, f64::min))
            .sum();
        let budget = tco_min + self.alpha * (tco_max - tco_min);
        (MckpProblem { groups, budget }, placements)
    }
}

impl PlacementPolicy for AnalyticalModel {
    fn name(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| format!("AM(a={:.2})", self.alpha))
    }

    fn plan(&mut self, snapshot: &HotnessSnapshot, system: &TieredSystem) -> Vec<PlanEntry> {
        let hot = full_hotness(snapshot, system);
        let (problem, placements) = self.build_problem(&hot, system);
        let n_items: usize = problem.groups.iter().map(Vec::len).sum();
        let solution = match self.site {
            SolverSite::Local => {
                self.last_cost_ns = Self::local_solve_ns(n_items);
                self.solve_local(&hot, &problem)
            }
            SolverSite::Remote => {
                // The remote machine cold-solves the shipped instance; the
                // daemon pays the modeled round trip. The plan cache does
                // not engage: there is no local warm state to carry.
                self.last_decision = PlanDecision::ColdSolve;
                self.last_cost_ns = remote_round_trip_ns(problem.groups.len(), n_items);
                problem
                    .solve_greedy()
                    .expect("budget >= TCO_min by construction, so always feasible")
            }
        };
        self.last_iterations = solution.iterations;
        let plan = solution
            .choice
            .iter()
            .enumerate()
            .map(|(r, &c)| PlanEntry {
                region: r as u64,
                dest: placements[c],
            })
            .collect();
        plan
    }

    fn last_plan_cost_ns(&self) -> f64 {
        // Local: modeled solver CPU time (see local_solve_ns). Remote: the
        // modeled round trip (see remote_round_trip_ns).
        self.last_cost_ns
    }

    fn plan_cost_is_local(&self) -> bool {
        self.site == SolverSite::Local
    }

    fn last_solver_iterations(&self) -> u64 {
        self.last_iterations
    }

    fn set_plan_cache_mode(&mut self, mode: PlanCacheMode) {
        self.cache_mode = mode;
    }

    fn last_plan_decision(&self) -> PlanDecision {
        self.last_decision.clone()
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

    fn window(system: &mut TieredSystem, steps: u64) -> HotnessSnapshot {
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
    fn alpha_one_keeps_everything_in_dram() {
        let mut system = sim();
        let snap = window(&mut system, 100_000);
        let mut am = AnalyticalModel::new(1.0);
        let plan = am.plan(&snap, &system);
        assert!(plan.iter().all(|e| e.dest == Placement::Dram));
    }

    #[test]
    fn alpha_zero_maximizes_savings() {
        let mut system = sim();
        let snap = window(&mut system, 100_000);
        let mut am = AnalyticalModel::new(0.0);
        let plan = am.plan(&snap, &system);
        // Budget equals TCO_min: every region must sit in its cheapest tier.
        let cheapest = system
            .placements()
            .into_iter()
            .min_by(|&a, &b| {
                system
                    .placement_cost_per_page(a)
                    .total_cmp(&system.placement_cost_per_page(b))
            })
            .unwrap();
        assert!(plan.iter().all(|e| e.dest == cheapest));
    }

    #[test]
    fn smaller_alpha_saves_more_tco() {
        let mut system = sim();
        let snap = window(&mut system, 200_000);
        let planned_tco = |alpha: f64, system: &TieredSystem, snap: &HotnessSnapshot| {
            let mut am = AnalyticalModel::new(alpha);
            let plan = am.plan(snap, system);
            plan.iter()
                .map(|e| 512.0 * system.placement_cost_per_page(e.dest))
                .sum::<f64>()
        };
        let t_perf = planned_tco(0.9, &system, &snap);
        let t_mid = planned_tco(0.5, &system, &snap);
        let t_tco = planned_tco(0.1, &system, &snap);
        assert!(t_tco < t_mid && t_mid < t_perf, "{t_tco} {t_mid} {t_perf}");
    }

    #[test]
    fn hot_regions_stay_fast_under_tight_budget() {
        let mut system = sim();
        let snap = window(&mut system, 300_000);
        let mut am = AnalyticalModel::new(0.3);
        let plan = am.plan(&snap, &system);
        // The hottest region must be placed no slower than the median one.
        let hot = crate::policy::full_hotness(&snap, &system);
        let hottest = hot
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(r, _)| r as u64)
            .unwrap();
        let order = system.placements();
        let rank = |p: Placement| order.iter().position(|&x| x == p).unwrap();
        let hot_rank = rank(plan.iter().find(|e| e.region == hottest).unwrap().dest);
        let mean_rank: f64 =
            plan.iter().map(|e| rank(e.dest) as f64).sum::<f64>() / plan.len() as f64;
        assert!(
            (hot_rank as f64) <= mean_rank,
            "hottest region rank {hot_rank} vs mean {mean_rank}"
        );
    }

    #[test]
    fn cold_regions_go_direct_to_best_tier() {
        // Unlike Waterfall, AM places cold data straight into the best
        // TCO tier (§6.7 "Quick convergence").
        let mut system = sim();
        let snap = window(&mut system, 200_000);
        // Aggressive knob: the direct-placement property is about how the
        // model reaches its target, not the target itself.
        let mut am = AnalyticalModel::new(0.05);
        let plan = am.plan(&snap, &system);
        let hot = crate::policy::full_hotness(&snap, &system);
        let p25 = crate::policy::percentile_of(&hot, 25.0);
        let coldest: Vec<u64> = hot
            .iter()
            .enumerate()
            .filter(|(_, &h)| h <= p25)
            .map(|(r, _)| r as u64)
            .collect();
        assert!(!coldest.is_empty());
        let cheapest = system
            .placements()
            .into_iter()
            .min_by(|&a, &b| {
                system
                    .placement_cost_per_page(a)
                    .total_cmp(&system.placement_cost_per_page(b))
            })
            .unwrap();
        let direct = coldest
            .iter()
            .filter(|&&r| plan.iter().find(|e| e.region == r).unwrap().dest == cheapest)
            .count();
        assert!(
            direct as f64 / coldest.len() as f64 > 0.9,
            "cold regions should go straight to {cheapest}: {direct}/{}",
            coldest.len()
        );
    }

    #[test]
    fn remote_solve_is_modeled_round_trip_of_the_greedy_plan() {
        let mut system = sim();
        let snap = window(&mut system, 100_000);
        let mut local = AnalyticalModel::am_tco();
        local.plan(&snap, &system);
        assert!(local.last_plan_cost_ns() > 0.0);
        assert!(local.plan_cost_is_local());

        let mut remote = AnalyticalModel::am_tco().remote();
        let plan = remote.plan(&snap, &system);
        assert!(!remote.plan_cost_is_local());
        // The cost is the formula: RTT plus 16 B per item out and 8 B per
        // region back, over the link.
        let regions = system.total_regions() as f64;
        let items = regions * system.placements().len() as f64;
        let expected = REMOTE_RTT_NS + (items * 16.0 + regions * 8.0) / REMOTE_LINK_BYTES_PER_NS;
        assert_eq!(remote.last_plan_cost_ns().to_bits(), expected.to_bits());
        // A second plan costs bit-identically: nothing host-dependent enters.
        let first_cost = remote.last_plan_cost_ns();
        remote.plan(&snap, &system);
        assert_eq!(remote.last_plan_cost_ns().to_bits(), first_cost.to_bits());
        // The plan is the greedy solver's choice.
        let hot = crate::policy::full_hotness(&snap, &system);
        let (problem, placements) = remote.build_problem(&hot, &system);
        let greedy = problem.solve_greedy().unwrap();
        let dests: Vec<Placement> = plan.iter().map(|e| e.dest).collect();
        let greedy_dests: Vec<Placement> = greedy.choice.iter().map(|&c| placements[c]).collect();
        assert_eq!(dests, greedy_dests);
    }

    #[test]
    fn plan_cache_decisions_track_hotness_changes() {
        let mut system = sim();
        let snap_a = window(&mut system, 100_000);
        let snap_b = window(&mut system, 100_000);
        let mut am = AnalyticalModel::am_tco();
        am.plan(&snap_a, &system);
        assert_eq!(am.last_plan_decision(), PlanDecision::ColdSolve);
        // Same snapshot again: bit-identical hotness, nothing to re-solve.
        am.plan(&snap_a, &system);
        assert_eq!(am.last_plan_decision(), PlanDecision::Reuse);
        // A different window dirties some (not all) regions.
        am.plan(&snap_b, &system);
        match am.last_plan_decision() {
            PlanDecision::WarmSolve { dirty_regions } => {
                assert!(!dirty_regions.is_empty());
                assert!(dirty_regions.len() as u64 <= system.total_regions());
                assert!(dirty_regions.windows(2).all(|w| w[0] < w[1]), "ascending");
            }
            other => panic!("expected WarmSolve, got {other:?}"),
        }
    }

    #[test]
    fn plan_cache_modes_are_bit_identical_and_decision_invariant() {
        let mut system = sim();
        let snaps: Vec<HotnessSnapshot> = (0..4).map(|_| window(&mut system, 80_000)).collect();
        // Repeat one snapshot so the Reuse path actually fires.
        let sequence: Vec<&HotnessSnapshot> = vec![&snaps[0], &snaps[1], &snaps[1], &snaps[2]];
        let run = |mode: PlanCacheMode| {
            let mut am = AnalyticalModel::am_tco();
            am.set_plan_cache_mode(mode);
            sequence
                .iter()
                .map(|s| {
                    let plan = am.plan(s, &system);
                    (
                        plan,
                        am.last_plan_decision(),
                        am.last_plan_cost_ns().to_bits(),
                        am.last_solver_iterations(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let off = run(PlanCacheMode::Off);
        for mode in [PlanCacheMode::Warm, PlanCacheMode::Reuse] {
            let other = run(mode);
            assert_eq!(off, other, "{} diverged from off", mode.name());
        }
        assert_eq!(off[2].1, PlanDecision::Reuse, "repeated snapshot reuses");
    }

    #[test]
    fn plan_cache_mode_parses_cli_values() {
        assert_eq!(PlanCacheMode::parse("off"), Some(PlanCacheMode::Off));
        assert_eq!(PlanCacheMode::parse("warm"), Some(PlanCacheMode::Warm));
        assert_eq!(PlanCacheMode::parse("reuse"), Some(PlanCacheMode::Reuse));
        assert_eq!(PlanCacheMode::parse("hot"), None);
        assert_eq!(PlanCacheMode::default(), PlanCacheMode::Warm);
        assert_eq!(PlanCacheMode::Reuse.name(), "reuse");
    }

    #[test]
    fn labels() {
        assert_eq!(AnalyticalModel::am_tco().name(), "AM-TCO");
        assert_eq!(AnalyticalModel::am_perf().name(), "AM-perf");
        assert_eq!(AnalyticalModel::new(0.5).name(), "AM(a=0.50)");
    }

    #[test]
    fn content_aware_spares_incompressible_regions() {
        // XSBench: the energy-grid region is highly compressible, the table
        // is binary (lzo-class codecs reject much of it). The aware model
        // must see higher TCO costs for compressing binary regions.
        let w = WorkloadId::XsBench.build(Scale::TEST, 5);
        let rss = w.rss_bytes();
        let system =
            TieredSystem::new(SimConfig::standard_mix(rss, Fidelity::Modeled, 5), w).unwrap();
        // Region 0 holds the grid (HighlyCompressible); later regions the
        // binary table. CT-0 is CT-1 (lzo): big ratio difference expected.
        let r_grid = system.region_compress_ratio(0, 0);
        let r_table = system.region_compress_ratio(system.total_regions() - 1, 0);
        assert!(
            r_grid < r_table * 0.85,
            "grid ratio {r_grid} should beat table ratio {r_table}"
        );

        // And the aware model exploits it: build both problems and compare
        // the tco cost of placing the last region in CT-0.
        let aware = AnalyticalModel::new(0.3).content_aware();
        let unaware = AnalyticalModel::new(0.3);
        let hot = vec![0.0; system.total_regions() as usize];
        let (p_aware, placements) = aware.build_problem(&hot, &system);
        let (p_unaware, _) = unaware.build_problem(&hot, &system);
        let ct0 = placements
            .iter()
            .position(|&p| p == Placement::Compressed(0))
            .expect("standard mix has CT-0");
        let last = hot.len() - 1;
        assert!(
            p_aware.groups[last][ct0].tco_cost > p_unaware.groups[last][ct0].tco_cost * 1.1,
            "aware {} vs unaware {}",
            p_aware.groups[last][ct0].tco_cost,
            p_unaware.groups[last][ct0].tco_cost
        );
    }
}
