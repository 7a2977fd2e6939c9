//! The migration engine's determinism guarantee: with a fixed seed, a daemon
//! run produces a bit-identical [`RunReport`] for *any* `migration_workers`
//! setting. Worker threads only prepare pages (pure compression work);
//! every insert and commit runs serially in an order fixed by the plan, and
//! costs are closed-form, so the worker count may only change how fast the
//! host executes a window plan — never what the plan does to the system.

use tierscape::core::prelude::*;
use tierscape::sim::{Fidelity, SimConfig, TieredSystem};
use tierscape::workloads::{Scale, WorkloadId};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn standard_system(wl: WorkloadId, fidelity: Fidelity, seed: u64) -> TieredSystem {
    let w = wl.build(Scale::TEST, seed);
    let rss = w.rss_bytes();
    TieredSystem::new(SimConfig::standard_mix(rss, fidelity, seed), w)
        .expect("standard mix is valid")
}

/// Assert two runs are bit-identical: every per-window record and every
/// report-level float, compared by bit pattern (no tolerance).
fn assert_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.policy, b.policy, "{label}: policy name");
    assert_eq!(a.windows.len(), b.windows.len(), "{label}: window count");
    for (wa, wb) in a.windows.iter().zip(&b.windows) {
        let w = wa.window;
        assert_eq!(wa.recommended, wb.recommended, "{label} w{w}: recommended");
        assert_eq!(wa.actual, wb.actual, "{label} w{w}: actual placements");
        assert_eq!(wa.tier_faults, wb.tier_faults, "{label} w{w}: tier faults");
        assert_eq!(wa.migrations, wb.migrations, "{label} w{w}: migrations");
        assert_eq!(
            wa.tco_now.to_bits(),
            wb.tco_now.to_bits(),
            "{label} w{w}: tco_now {} vs {}",
            wa.tco_now,
            wb.tco_now
        );
        assert_eq!(
            wa.migration_cost_ns.to_bits(),
            wb.migration_cost_ns.to_bits(),
            "{label} w{w}: migration cost {} vs {}",
            wa.migration_cost_ns,
            wb.migration_cost_ns
        );
        assert_eq!(
            wa.solver_cost_ns.to_bits(),
            wb.solver_cost_ns.to_bits(),
            "{label} w{w}: solver cost"
        );
        assert_eq!(
            wa.hotness_total.to_bits(),
            wb.hotness_total.to_bits(),
            "{label} w{w}: hotness"
        );
        assert_eq!(wa.faults, wb.faults, "{label} w{w}: fault counters");
    }
    assert_eq!(a.faults, b.faults, "{label}: fault counters");
    assert_eq!(a.perf.accesses, b.perf.accesses, "{label}: accesses");
    assert_eq!(
        a.perf.app_time_ns.to_bits(),
        b.perf.app_time_ns.to_bits(),
        "{label}: app time {} vs {}",
        a.perf.app_time_ns,
        b.perf.app_time_ns
    );
    assert_eq!(
        a.perf.slowdown.to_bits(),
        b.perf.slowdown.to_bits(),
        "{label}: slowdown"
    );
    assert_eq!(
        a.perf.p95_ns.to_bits(),
        b.perf.p95_ns.to_bits(),
        "{label}: p95"
    );
    assert_eq!(
        a.tco.tco_avg.to_bits(),
        b.tco.tco_avg.to_bits(),
        "{label}: tco_avg"
    );
    assert_eq!(
        a.tco.savings.to_bits(),
        b.tco.savings.to_bits(),
        "{label}: tco savings {} vs {}",
        a.tco.savings,
        b.tco.savings
    );
    assert_eq!(
        a.daemon_ns.to_bits(),
        b.daemon_ns.to_bits(),
        "{label}: daemon_ns {} vs {}",
        a.daemon_ns,
        b.daemon_ns
    );
    assert_eq!(
        a.profiling_ns.to_bits(),
        b.profiling_ns.to_bits(),
        "{label}: profiling_ns"
    );
}

fn run_with_workers(
    wl: WorkloadId,
    fidelity: Fidelity,
    mk_policy: &dyn Fn() -> Box<dyn PlacementPolicy>,
    workers: usize,
    window_accesses: u64,
    seed: u64,
) -> RunReport {
    run_with_workers_plan(
        wl,
        fidelity,
        mk_policy,
        workers,
        window_accesses,
        seed,
        None,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_with_workers_plan(
    wl: WorkloadId,
    fidelity: Fidelity,
    mk_policy: &dyn Fn() -> Box<dyn PlacementPolicy>,
    workers: usize,
    window_accesses: u64,
    seed: u64,
    fault_plan: Option<FaultPlan>,
) -> RunReport {
    let mut system = standard_system(wl, fidelity, seed);
    let mut policy = mk_policy();
    let cfg = DaemonConfig {
        windows: 3,
        window_accesses,
        migration_workers: workers,
        fault_plan,
        ..DaemonConfig::default()
    };
    run_daemon(&mut system, policy.as_mut(), &cfg)
}

fn assert_workers_invariant(
    fidelity: Fidelity,
    mk_policy: &dyn Fn() -> Box<dyn PlacementPolicy>,
    window_accesses: u64,
    workloads: &[WorkloadId],
) {
    for &wl in workloads {
        let baseline = run_with_workers(wl, fidelity, mk_policy, 1, window_accesses, 7);
        assert!(
            baseline.windows.iter().any(|w| w.migrations > 0),
            "{}: the run must actually migrate for the test to mean anything",
            wl.name()
        );
        for &workers in &WORKER_COUNTS[1..] {
            let other = run_with_workers(wl, fidelity, mk_policy, workers, window_accesses, 7);
            let label = format!("{} workers=1 vs {}", wl.name(), workers);
            assert_identical(&baseline, &other, &label);
        }
    }
}

#[test]
fn waterfall_identical_across_worker_counts_every_workload() {
    assert_workers_invariant(
        Fidelity::Modeled,
        &|| Box::new(WaterfallModel::new(25.0)),
        20_000,
        &WorkloadId::ALL,
    );
}

#[test]
fn analytical_identical_across_worker_counts_every_workload() {
    assert_workers_invariant(
        Fidelity::Modeled,
        &|| Box::new(AnalyticalModel::am_tco()),
        20_000,
        &WorkloadId::ALL,
    );
}

#[test]
fn real_fidelity_identical_across_worker_counts() {
    // Real codecs and real pools: batched pages are compressed on the
    // worker threads, then inserted and committed serially. The aggressive
    // knob guarantees multi-destination plans (several batches).
    assert_workers_invariant(
        Fidelity::Real,
        &|| Box::new(AnalyticalModel::new(0.05)),
        8_000,
        &[WorkloadId::MemcachedYcsb, WorkloadId::Bfs],
    );
}

#[test]
fn remote_solver_identical_across_worker_counts() {
    // The remote solver's round trip is modeled, not timed, so Fig. 14's
    // remote rows are as reproducible as the local ones. Real fidelity, so
    // the worker axis actually spawns workers.
    let remote = || Box::new(AnalyticalModel::am_tco().remote()) as Box<dyn PlacementPolicy>;
    let wl = WorkloadId::MemcachedYcsb;
    let one = run_with_workers(wl, Fidelity::Real, &remote, 1, 8_000, 7);
    let eight = run_with_workers(wl, Fidelity::Real, &remote, 8, 8_000, 7);
    assert!(one.windows.iter().all(|w| w.solver_cost_ns > 0.0));
    assert!(one.windows.iter().any(|w| w.migrations > 0));
    assert_identical(&one, &eight, "remote solver workers=1 vs 8");
}

#[test]
fn fault_injection_identical_across_worker_counts() {
    // With a fault plan active at every site, a fixed --fault-seed must
    // still give bit-identical reports *and fault counters* at any
    // worker count: sim-level draws happen on serial paths keyed by a
    // nonce, and zswap/zpool draws are keyed by per-tier store counters
    // that only the serial insert step advances.
    let plan = FaultPlan::uniform(99, 0.05);
    for (fidelity, accesses) in [(Fidelity::Modeled, 20_000), (Fidelity::Real, 8_000)] {
        for &wl in &[WorkloadId::MemcachedYcsb, WorkloadId::Bfs] {
            let mk: &dyn Fn() -> Box<dyn PlacementPolicy> =
                &|| Box::new(AnalyticalModel::new(0.05));
            let base = run_with_workers_plan(wl, fidelity, mk, 1, accesses, 7, Some(plan.clone()));
            assert!(
                base.faults.total() > 0,
                "{} {fidelity:?}: the plan must actually inject for the test to mean anything",
                wl.name()
            );
            for &workers in &WORKER_COUNTS[1..] {
                let other = run_with_workers_plan(
                    wl,
                    fidelity,
                    mk,
                    workers,
                    accesses,
                    7,
                    Some(plan.clone()),
                );
                let label = format!("faulty {} {fidelity:?} workers=1 vs {workers}", wl.name());
                assert_identical(&base, &other, &label);
            }
        }
    }
}

#[test]
fn plan_cache_modes_byte_identical_reports_and_metrics() {
    // The plan cache's determinism bar: `--plan-cache=warm` (and `reuse`)
    // must produce byte-identical RunReports AND metrics artifacts to
    // `--plan-cache=off`, at 1 and 8 workers, with fault-degraded windows
    // in the mix. The cache key is pure hotness state, so the mode and the
    // worker count may only change host wall-clock, never any artifact.
    let plan = FaultPlan::uniform(42, 0.1);
    let run = |mode: PlanCacheMode, workers: usize| {
        let mut system = standard_system(WorkloadId::MemcachedYcsb, Fidelity::Modeled, 7);
        let mut policy = AnalyticalModel::am_tco();
        let cfg = DaemonConfig {
            windows: 6,
            window_accesses: 20_000,
            migration_workers: workers,
            fault_plan: Some(plan.clone()),
            obs: ObsConfig::enabled(),
            plan_cache: mode,
            ..DaemonConfig::default()
        };
        run_daemon(&mut system, &mut policy, &cfg)
    };
    let base = run(PlanCacheMode::Off, 1);
    let base_snap = base.obs.as_ref().expect("obs enabled").snapshot_json();
    assert!(
        base.faults.total() > 0,
        "the plan must actually inject for the test to mean anything"
    );
    assert!(
        base_snap.contains("solver.warm_hits"),
        "warm-hit counter present even with the cache off (decision is mode-independent)"
    );
    for workers in [1usize, 8] {
        for mode in [
            PlanCacheMode::Off,
            PlanCacheMode::Warm,
            PlanCacheMode::Reuse,
        ] {
            let other = run(mode, workers);
            let label = format!("plan-cache={} workers={workers}", mode.name());
            assert_identical(&base, &other, &label);
            let snap = other.obs.as_ref().expect("obs enabled").snapshot_json();
            assert_eq!(base_snap, snap, "{label}: metrics artifact diverged");
        }
    }
}

#[test]
fn execute_plan_report_is_worker_invariant() {
    // Below the daemon: drive execute_plan directly with a fan-out plan
    // and check the *report* (moved/rejected/costs/stall) is identical,
    // while the workers field faithfully records the configuration.
    use tierscape::sim::{Placement, PlannedMove};

    let mk = || standard_system(WorkloadId::MemcachedYcsb, Fidelity::Real, 21);
    let plan: Vec<PlannedMove> = (0..8)
        .map(|r| PlannedMove {
            region: r,
            dest: match r % 3 {
                0 => Placement::Compressed(0),
                1 => Placement::Compressed(1),
                _ => Placement::ByteTier(0),
            },
        })
        .collect();

    let mut base_sys = mk();
    let base = base_sys.execute_plan(&plan, 1);
    assert!(base.moved > 0, "plan must move pages");
    assert!(base.batches >= 2, "fan-out plan must form several batches");
    for workers in [2, 4, 8] {
        let mut sys = mk();
        let rep = sys.execute_plan(&plan, workers);
        assert_eq!(rep.workers, workers as u32, "workers field records config");
        assert_eq!(rep.moved, base.moved, "workers={workers}: moved");
        assert_eq!(rep.rejected, base.rejected, "workers={workers}: rejected");
        assert_eq!(rep.batches, base.batches, "workers={workers}: batches");
        assert_eq!(
            rep.regions_moved, base.regions_moved,
            "workers={workers}: regions_moved"
        );
        assert_eq!(
            rep.cost_ns.to_bits(),
            base.cost_ns.to_bits(),
            "workers={workers}: cost {} vs {}",
            rep.cost_ns,
            base.cost_ns
        );
        assert_eq!(
            rep.stall_ns.to_bits(),
            base.stall_ns.to_bits(),
            "workers={workers}: stall"
        );
        // And the systems themselves ended up in the same state.
        assert_eq!(
            sys.placement_counts(),
            base_sys.placement_counts(),
            "workers={workers}: placements"
        );
        assert_eq!(
            sys.current_tco().to_bits(),
            base_sys.current_tco().to_bits(),
            "workers={workers}: tco"
        );
        assert_eq!(
            sys.daemon_ns().to_bits(),
            base_sys.daemon_ns().to_bits(),
            "workers={workers}: daemon_ns"
        );
    }
}

/// Report fields and end state of one `execute_plan` call.
fn plan_outcome(sys: &TieredSystem, rep: &tierscape::sim::MigrationReport) -> String {
    format!(
        "moved {} rejected {} regions {} batches {} cost {:#x} stall {:#x} \
         placements {:?} tco {:#x} daemon {:#x}",
        rep.moved,
        rep.rejected,
        rep.regions_moved,
        rep.batches,
        rep.cost_ns.to_bits(),
        rep.stall_ns.to_bits(),
        sys.placement_counts(),
        sys.current_tco().to_bits(),
        sys.daemon_ns().to_bits()
    )
}

#[test]
fn stale_snapshot_rolls_back_orphaned_copies() {
    // Region B goes into CT-1 first, so its pages head CT-1's writeback
    // queue, and CT-1's pool limit is set to about B's size. Then one plan
    // moves A (DRAM→CT-1) and B (CT-1→CT-2). Both are batched: B's copies
    // land in CT-2 at insert time, before any commit. A's first commit
    // pushes CT-1 over its limit and writes B's pages back to swap, so B's
    // batched copies are stale: they must be rolled back, and B must move
    // from swap through the serial path.
    use tierscape::sim::{Placement, PlannedMove};
    const A: u64 = 0;
    const B: u64 = 1;
    let into_ct1 = [PlannedMove {
        region: B,
        dest: Placement::Compressed(0),
    }];
    let b_pool_bytes = {
        let mut sys = standard_system(WorkloadId::MemcachedYcsb, Fidelity::Real, 5);
        sys.execute_plan(&into_ct1, 1);
        sys.tier_pool_bytes(0)
    };
    let plan = [
        PlannedMove {
            region: A,
            dest: Placement::Compressed(0),
        },
        PlannedMove {
            region: B,
            dest: Placement::Compressed(1),
        },
    ];
    let run = |workers: usize| {
        let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, 5);
        let mut cfg = SimConfig::standard_mix(w.rss_bytes(), Fidelity::Real, 5);
        cfg.pool_limits = vec![Some(b_pool_bytes), None];
        let mut sys = TieredSystem::new(cfg, w).expect("standard mix is valid");
        let before = sys.execute_plan(&into_ct1, workers);
        assert_eq!(sys.swapped_pages(), 0, "B alone fits under the limit");
        assert!(before.moved > 0);
        let rep = sys.execute_plan(&plan, workers);
        (sys, rep)
    };

    let (sys, rep) = run(1);
    assert_eq!(rep.batches, 2, "A and B are both batched");
    let z = sys.zswap().expect("real fidelity");
    let ct2 = z.tiers()[1].stats();
    assert!(
        ct2.stores > ct2.pages,
        "the rollback ran: {} copies inserted into CT-2, {} kept",
        ct2.stores,
        ct2.pages
    );
    assert_eq!(
        sys.region_placement(B),
        Placement::Compressed(1),
        "B still moved, from swap"
    );
    assert_eq!(
        z.total_pages(),
        sys.compressed_pages(),
        "no orphaned copy is left in zswap"
    );
    assert_eq!(
        sys.placement_counts().iter().sum::<u64>(),
        sys.total_pages(),
        "page count is conserved"
    );
    let base = plan_outcome(&sys, &rep);
    for workers in [2, 8] {
        let (sys, rep) = run(workers);
        assert_eq!(plan_outcome(&sys, &rep), base, "workers={workers}");
    }
}

/// A fan-out policy for the capacity-edge test: every window sends each
/// region to CT-1, CT-2 or DRAM in rotation, so every plan targets both
/// compressed tiers.
struct Rotating(u64);

impl PlacementPolicy for Rotating {
    fn name(&self) -> String {
        "rotating".into()
    }

    fn plan(
        &mut self,
        _snapshot: &tierscape::telemetry::HotnessSnapshot,
        system: &TieredSystem,
    ) -> Vec<PlanEntry> {
        use tierscape::sim::Placement;
        const DESTS: [Placement; 3] = [
            Placement::Compressed(0),
            Placement::Compressed(1),
            Placement::Dram,
        ];
        self.0 += 1;
        (0..system.total_regions())
            .map(|region| PlanEntry {
                region,
                dest: DESTS[((region + self.0) % 3) as usize],
            })
            .collect()
    }
}

#[test]
fn real_fidelity_identical_at_node_capacity_edge() {
    // Both compressed tiers draw pool frames from one small NVMM node, so
    // it fills partway through plans that store into both. Inserts run
    // serially in batch order, so which store hits the wall first is fixed
    // by the plan, never by the worker count. A zero-rate fault plan turns
    // genuine pool exhaustion into counted `pool_alloc` events (and the
    // waterfall retry) without injecting anything.
    use tierscape::compress::Algorithm;
    use tierscape::mem::MediaKind;
    use tierscape::zpool::PoolKind;
    use tierscape::zswap::TierConfig;

    let run = |workers: usize| {
        let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, 3);
        let rss = w.rss_bytes();
        let mut cfg = SimConfig::standard_mix(rss, Fidelity::Real, 3);
        cfg.byte_tiers = vec![(MediaKind::Nvmm, rss / 4)];
        cfg.compressed_tiers = vec![
            TierConfig::new(Algorithm::Lz4, PoolKind::Zsmalloc, MediaKind::Nvmm),
            TierConfig::new(Algorithm::Zstd, PoolKind::Zbud, MediaKind::Nvmm),
        ];
        let mut system = TieredSystem::new(cfg, w).expect("valid configuration");
        let cfg = DaemonConfig {
            windows: 4,
            window_accesses: 8_000,
            migration_workers: workers,
            fault_plan: Some(FaultPlan::disabled(3)),
            obs: ObsConfig::enabled(),
            ..DaemonConfig::default()
        };
        run_daemon(&mut system, &mut Rotating(0), &cfg)
    };

    let base = run(1);
    let obs = base.obs.as_ref().expect("obs enabled");
    let first = &base.windows[0];
    assert!(first.faults.pool_alloc > 0, "the node fills in window 1");
    assert!(
        first.actual[2] > 0 && first.actual[3] > 0,
        "both tiers took pages before it filled: {:?}",
        first.actual
    );
    let batches = obs
        .spans()
        .iter()
        .filter(|s| s.window == first.window && s.name == "migrate.batch")
        .count();
    assert_eq!(batches, 2, "window 1 batched into both compressed tiers");
    let base_snap = obs.snapshot_json();
    for workers in [2, 8] {
        let other = run(workers);
        let label = format!("capacity edge workers=1 vs {workers}");
        assert_identical(&base, &other, &label);
        let snap = other.obs.as_ref().expect("obs enabled").snapshot_json();
        assert_eq!(base_snap, snap, "{label}: metrics artifact diverged");
    }
}
