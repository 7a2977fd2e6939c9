//! The traced half: one daemon run driven window by window from here.
//!
//! This mirrors `tierscape_core::run_daemon` for the benchmark's
//! configuration (PEBS profiler, no fault plan, observability off, fixed
//! windows), calling each layer's public function in turn and timing the
//! call from outside:
//!
//! | span                    | call                                        |
//! |-------------------------|---------------------------------------------|
//! | `workloads.next_access` | `Workload::next_access` via `workload_mut`  |
//! | `sim.access`            | `TieredSystem::access`                      |
//! | `telemetry.record`      | `Profiler::record`                          |
//! | `telemetry.end_window`  | `Profiler::end_window`                      |
//! | `policy.plan`           | `PlacementPolicy::plan`                     |
//! | `filter.apply`          | `MigrationFilter::apply_degraded`           |
//! | `engine.execute`        | `TieredSystem::execute_plan`                |
//!
//! The three per-access calls are timed on one access in
//! [`ACCESS_SAMPLE`]; a clock read around every access would add ~40 % to
//! the run. Spans are kept in memory and written out after the run.

use crate::digest::{RunDigest, WindowDigest};
use crate::spec::{Spec, MAX_COMPRESSED_TIERS, MIGRATION_WORKERS, WINDOWS};
use crate::Metric;
use std::collections::BTreeMap;
use std::time::Instant;
use tierscape_core::{FilterState, PlanDecision};
use ts_sim::{Placement, PlannedMove, TieredSystem};
use ts_telemetry::{Profiler, TelemetrySource};

/// Per-access layers are timed on one access in this many.
pub const ACCESS_SAMPLE: u64 = 256;

/// One timed call. Times are ns since the traced run started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name (see the module table), or `window`/`window.profile`.
    pub name: &'static str,
    /// Profile window the call belongs to (its parent `window` span).
    pub window: u64,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span named `name` from `start_ns` to now.
    fn close(&mut self, name: &'static str, window: u64, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            window,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, window: u64, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        self.close(name, window, start_ns);
        out
    }

    /// Total ns of all spans named `name`.
    fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Mean ns of the spans named `name` (0 when there are none).
    fn mean_ns(&self, name: &str) -> f64 {
        let n = self.spans.iter().filter(|s| s.name == name).count();
        if n == 0 {
            0.0
        } else {
            self.total_ns(name) as f64 / n as f64
        }
    }
}

/// Counts the traced loop gathers at the layer boundaries.
#[derive(Debug, Default)]
struct Counts {
    plan_entries: u64,
    kept: u64,
    solver_iterations: u64,
    warm_windows: u64,
    dirty_regions: u64,
    solver_modeled_ns: f64,
    pages_moved: u64,
    pages_rejected: u64,
    repeat_moves: u64,
    engine_modeled_ns: f64,
    stall_ns: f64,
}

/// Regions that return to a placement they left in one of the previous two
/// windows. `left` keeps, per region, the placements it left and when.
#[derive(Debug, Default)]
struct RepeatTracker {
    left: BTreeMap<u64, Vec<(Placement, u64)>>,
}

impl RepeatTracker {
    /// Record the moves of `window`; returns how many were repeats.
    fn observe(&mut self, window: u64, moves: &[(u64, Placement, Placement)]) -> u64 {
        let mut repeats = 0;
        for &(region, before, after) in moves {
            let history = self.left.entry(region).or_default();
            history.retain(|&(_, w)| w + 2 >= window);
            if history.iter().any(|&(p, w)| p == after && w < window) {
                repeats += 1;
            }
            history.push((before, window));
        }
        repeats
    }
}

/// Result of one traced run.
pub struct TracedRun {
    /// Digest to compare with the untraced report.
    pub digest: RunDigest,
    /// Host seconds from the first window to the last.
    pub wall_s: f64,
    /// Per-layer metrics of this run.
    pub metrics: Vec<Metric>,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

/// Drive `system` through the daemon windows of `spec`, recording spans.
pub fn run(spec: &Spec, system: &mut TieredSystem) -> TracedRun {
    let cfg = spec.daemon_config();
    let mut policy = spec.policy();
    let mut telemetry = cfg.telemetry;
    telemetry.region_shift = system.config().region_shift;
    let mut profiler = Profiler::new(telemetry);
    policy.set_plan_cache_mode(cfg.plan_cache);
    let mut filter_state = FilterState::default();
    let mut profiling_charged = 0.0f64;
    let mut counts = Counts::default();
    let mut repeats = RepeatTracker::default();
    let mut windows = Vec::with_capacity(WINDOWS as usize);
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
    };

    for w in 1..=WINDOWS {
        let window_start = rec.now();
        for i in 0..cfg.window_accesses {
            if i % ACCESS_SAMPLE == 0 {
                let a = rec.span("workloads.next_access", w, || {
                    system.workload_mut().next_access()
                });
                rec.span("sim.access", w, || system.access(a.addr, a.is_store));
                rec.span("telemetry.record", w, || {
                    profiler.record(a.addr, a.is_store)
                });
            } else {
                let a = system.workload_mut().next_access();
                system.access(a.addr, a.is_store);
                profiler.record(a.addr, a.is_store);
            }
        }
        let snapshot = rec.span("telemetry.end_window", w, || profiler.end_window());
        let prof_ns = profiler.cost_ns() - profiling_charged;
        profiling_charged = profiler.cost_ns();
        system.charge_daemon_ns(prof_ns);
        rec.close("window.profile", w, window_start);

        let plan = rec.span("policy.plan", w, || policy.plan(&snapshot, system));
        let solver_cost = policy.last_plan_cost_ns();
        if policy.plan_cost_is_local() {
            system.charge_daemon_ns(solver_cost);
        } else {
            system.charge_daemon_ns(solver_cost.min(50_000.0));
        }
        counts.plan_entries += plan.len() as u64;
        counts.solver_iterations += policy.last_solver_iterations();
        counts.solver_modeled_ns += solver_cost;
        match policy.last_plan_decision() {
            PlanDecision::ColdSolve => {}
            PlanDecision::WarmSolve { dirty_regions } => {
                counts.warm_windows += 1;
                counts.dirty_regions += dirty_regions.len() as u64;
            }
            PlanDecision::Reuse => counts.warm_windows += 1,
        }

        let spiked = system.draw_pressure_spikes();
        let filtered = rec.span("filter.apply", w, || {
            cfg.filter
                .apply_degraded(&plan, system, &mut filter_state, &spiked)
        });
        counts.kept += filtered.len() as u64;
        let moves: Vec<PlannedMove> = filtered
            .iter()
            .map(|e| PlannedMove {
                region: e.region,
                dest: e.dest,
            })
            .collect();

        let before: Vec<Placement> = moves
            .iter()
            .map(|m| system.region_placement(m.region))
            .collect();
        let report = rec.span("engine.execute", w, || {
            system.execute_plan(&moves, MIGRATION_WORKERS)
        });
        let changed: Vec<(u64, Placement, Placement)> = moves
            .iter()
            .zip(before)
            .map(|(m, b)| (m.region, b, system.region_placement(m.region)))
            .filter(|&(_, b, a)| a != b)
            .collect();
        counts.repeat_moves += repeats.observe(w, &changed);
        counts.pages_moved += report.moved;
        counts.pages_rejected += report.rejected;
        counts.engine_modeled_ns += report.cost_ns;
        counts.stall_ns += report.stall_ns;

        windows.push(WindowDigest {
            window: w,
            actual: system.placement_counts(),
            migrations: report.regions_moved,
            tco_bits: system.current_tco().to_bits(),
        });
        rec.close("window", w, window_start);
    }
    let wall_s = rec.now() as f64 * 1e-9;
    let digest = RunDigest::new(
        windows,
        &system.perf_report(),
        &system.tco_report(),
        system.daemon_ns(),
    );
    let metrics = layer_metrics(system, &profiler, &counts, &rec);
    TracedRun {
        digest,
        wall_s,
        metrics,
        spans: rec.spans,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(
    system: &TieredSystem,
    profiler: &Profiler,
    c: &Counts,
    rec: &Recorder,
) -> Vec<Metric> {
    let tiers = system.config().compressed_tiers.len();
    let faults_served: u64 =
        (0..tiers).map(|i| system.tier_stats(i).faults).sum::<u64>() + system.swap_faults;
    let exec_us = rec.total_ns("engine.execute") as f64 * 1e-3;
    let mut m = vec![
        Metric::new(
            "workloads.next_access_ns",
            rec.mean_ns("workloads.next_access"),
            "ns",
        ),
        Metric::new("sim.access_ns", rec.mean_ns("sim.access"), "ns"),
        Metric::new("sim.faults_served", faults_served as f64, "count"),
        Metric::new("telemetry.record_ns", rec.mean_ns("telemetry.record"), "ns"),
        Metric::new(
            "telemetry.end_window_ms",
            rec.mean_ns("telemetry.end_window") * 1e-6,
            "ms",
        ),
        Metric::new(
            "telemetry.samples",
            profiler.sampler_stats().1 as f64,
            "count",
        ),
        Metric::new("policy.plan_ms", rec.mean_ns("policy.plan") * 1e-6, "ms"),
        Metric::new("policy.plan_entries", c.plan_entries as f64, "count"),
        Metric::new("solver.iterations", c.solver_iterations as f64, "count"),
        Metric::new(
            "solver.warm_share",
            c.warm_windows as f64 / WINDOWS as f64,
            "ratio",
        ),
        Metric::new("solver.dirty_regions", c.dirty_regions as f64, "count"),
        Metric::new("solver.modeled_ns", c.solver_modeled_ns, "model-ns"),
        Metric::new("filter.apply_ms", rec.mean_ns("filter.apply") * 1e-6, "ms"),
        Metric::new(
            "filter.kept_ratio",
            ratio(c.kept as f64, c.plan_entries as f64),
            "ratio",
        ),
        Metric::new(
            "engine.execute_ms",
            rec.mean_ns("engine.execute") * 1e-6,
            "ms",
        ),
        Metric::new(
            "engine.us_per_page_moved",
            ratio(exec_us, c.pages_moved as f64),
            "us",
        ),
        Metric::new("engine.pages_moved", c.pages_moved as f64, "count"),
        Metric::new("engine.pages_rejected", c.pages_rejected as f64, "count"),
        Metric::new(
            "engine.reject_ratio",
            ratio(
                c.pages_rejected as f64,
                (c.pages_moved + c.pages_rejected) as f64,
            ),
            "ratio",
        ),
        Metric::new("engine.repeat_moves", c.repeat_moves as f64, "count"),
        Metric::new("engine.modeled_ns", c.engine_modeled_ns, "model-ns"),
        Metric::new("engine.stall_ns", c.stall_ns, "model-ns"),
    ];
    for i in 0..MAX_COMPRESSED_TIERS {
        let (stores, faults, rejections, ratio_x, pool_bytes) = if i < tiers {
            let s = system.tier_stats(i);
            let pool = system.tier_pool_bytes(i);
            let raw = (s.pages * ts_mem::PAGE_SIZE as u64) as f64;
            (
                s.stores,
                s.faults,
                s.rejections,
                ratio(raw, pool as f64),
                pool,
            )
        } else {
            (0, 0, 0, 0.0, 0)
        };
        m.extend([
            Metric::new(format!("zswap.ct{i}.stores"), stores as f64, "count"),
            Metric::new(format!("zswap.ct{i}.faults"), faults as f64, "count"),
            Metric::new(
                format!("zswap.ct{i}.rejections"),
                rejections as f64,
                "count",
            ),
            Metric::new(format!("zswap.ct{i}.ratio"), ratio_x, "x"),
            Metric::new(
                format!("zswap.ct{i}.pool_bytes"),
                pool_bytes as f64,
                "bytes",
            ),
        ]);
    }
    m
}

/// Spans as JSON lines: `{"name", "window", "start_ns", "end_ns"}`.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 72);
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"window\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.window, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_tracker_counts_returns_within_two_windows() {
        let mut t = RepeatTracker::default();
        let d = Placement::Dram;
        let c = Placement::Compressed(1);
        assert_eq!(t.observe(2, &[(7, d, c)]), 0);
        // Back to DRAM one window later: a repeat.
        assert_eq!(t.observe(3, &[(7, c, d)]), 1);
        // Out to CT again two windows after leaving it: a repeat.
        assert_eq!(t.observe(5, &[(7, d, c)]), 1);
        // Back to DRAM three windows after leaving it: not a repeat.
        assert_eq!(t.observe(8, &[(7, c, d)]), 0);
    }
}
