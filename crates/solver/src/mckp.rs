//! Multiple-choice knapsack (MCKP) solvers.
//!
//! The analytical model's ILP (Eq. 2) assigns every region exactly one tier,
//! minimizing total predicted performance overhead subject to a TCO budget:
//!
//! ```text
//! minimize   sum_g perf_cost[g][choice_g]
//! subject to sum_g tco_cost[g][choice_g] <= budget
//! ```
//!
//! This is precisely the (min-cost form of the) multiple-choice knapsack
//! problem. Two solvers are provided:
//!
//! * [`MckpProblem::solve_greedy`] — dominance filtering + lower convex hull
//!   per group, then a greedy walk over hull steps in decreasing efficiency
//!   (the classic LP-relaxation-derived heuristic; the LP optimum differs
//!   from it by at most one fractional step). Near-optimal, `O(n log n)`,
//!   used in the TS-Daemon path.
//! * [`MckpProblem::solve_exact_dp`] — exact dynamic programming over a
//!   quantized budget axis; exponentially safer reference for tests, also
//!   practical for the paper-scale problems (hundreds of regions x 6 tiers).
//!
//! `solve()` picks the DP when the instance is small and falls back to
//! greedy + local refinement otherwise.
//!
//! # Warm starts
//!
//! Consecutive placement windows differ in only a small fraction of regions
//! (window cooling perturbs few hotness bins per window), so the greedy
//! solver supports incremental re-solving: [`MckpProblem::solve_greedy_with_state`]
//! returns a [`WarmState`] (per-group hulls + the canonically ordered step
//! list), and [`MckpProblem::resolve_warm`] rebuilds only the *dirty* groups
//! and merges their steps back into the prior order. Both paths walk the
//! exact same step sequence, so a warm re-solve is **bit-identical** to a
//! cold solve — same choices, same objective, same `iterations` — it is
//! only cheaper to produce (`O(d log d + s)` instead of `O(n log n)`).

use crate::SolverError;
use std::cmp::Ordering;

/// One candidate placement of a group (a tier choice for a region).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MckpItem {
    /// Predicted performance overhead if this item is chosen.
    pub perf_cost: f64,
    /// Memory TCO incurred if this item is chosen.
    pub tco_cost: f64,
}

impl MckpItem {
    /// Create an item.
    pub fn new(perf_cost: f64, tco_cost: f64) -> Self {
        MckpItem {
            perf_cost,
            tco_cost,
        }
    }
}

/// A multiple-choice knapsack problem.
#[derive(Debug, Clone, Default)]
pub struct MckpProblem {
    /// One group per region; each group's items are the tier choices.
    pub groups: Vec<Vec<MckpItem>>,
    /// TCO budget (right-hand side of Eq. 2's constraint).
    pub budget: f64,
}

/// A solution to an [`MckpProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct MckpSolution {
    /// Chosen item index per group.
    pub choice: Vec<usize>,
    /// Total performance cost of the choice.
    pub perf_cost: f64,
    /// Total TCO of the choice (<= budget).
    pub tco_cost: f64,
    /// Whether the solution is provably optimal.
    pub exact: bool,
    /// Solver effort: upgrade-step examinations (greedy) or DP cell
    /// relaxations (exact). Deterministic for a given instance, so it can
    /// feed snapshot-diffed metrics (Fig. 14's solver-cost accounting).
    pub iterations: u64,
}

impl MckpProblem {
    fn validate(&self) -> Result<(), SolverError> {
        if self.groups.is_empty() {
            return Err(SolverError::Malformed("no groups"));
        }
        for g in &self.groups {
            if g.is_empty() {
                return Err(SolverError::Malformed("empty group"));
            }
            for item in g {
                if !item.perf_cost.is_finite()
                    || !item.tco_cost.is_finite()
                    || item.perf_cost < 0.0
                    || item.tco_cost < 0.0
                {
                    return Err(SolverError::Malformed("negative or non-finite item"));
                }
            }
        }
        Ok(())
    }

    fn score(&self, choice: &[usize]) -> (f64, f64) {
        let mut perf = 0.0;
        let mut tco = 0.0;
        for (g, &c) in self.groups.iter().zip(choice) {
            perf += g[c].perf_cost;
            tco += g[c].tco_cost;
        }
        (perf, tco)
    }

    /// Solve with an automatically chosen strategy.
    ///
    /// # Errors
    ///
    /// [`SolverError::Infeasible`] if even the cheapest-TCO choice per group
    /// exceeds the budget; [`SolverError::Malformed`] for empty groups.
    pub fn solve(&self) -> Result<MckpSolution, SolverError> {
        self.validate()?;
        let items: usize = self.groups.iter().map(|g| g.len()).sum();
        if items <= 4096 {
            // Small instance: exact DP at fine resolution.
            self.solve_exact_dp(4096)
        } else {
            self.solve_greedy()
        }
    }

    /// Greedy hull-walk solver with a local refinement pass.
    ///
    /// # Errors
    ///
    /// See [`MckpProblem::solve`].
    pub fn solve_greedy(&self) -> Result<MckpSolution, SolverError> {
        self.solve_greedy_with_state().map(|(sol, _)| sol)
    }

    /// Cold greedy solve that also returns the reusable [`WarmState`]
    /// (per-group hulls + canonically ordered upgrade steps) for later
    /// incremental re-solves via [`MckpProblem::resolve_warm`].
    ///
    /// # Errors
    ///
    /// See [`MckpProblem::solve`].
    pub fn solve_greedy_with_state(&self) -> Result<(MckpSolution, WarmState), SolverError> {
        self.validate()?;
        // Per group: indices sorted by tco asc, dominance-filtered, convex hull.
        let hulls: Vec<Vec<usize>> = self.groups.iter().map(|g| lower_hull(g)).collect();

        // All upgrade steps, in canonical order.
        let mut steps = Vec::new();
        for (gi, hull) in hulls.iter().enumerate() {
            self.group_steps(gi, hull, &mut steps);
        }
        steps.sort_by(step_cmp);

        let state = WarmState {
            hulls,
            steps,
            budget_bits: self.budget.to_bits(),
        };
        let solution = self.hull_walk(&state)?;
        Ok((solution, state))
    }

    /// Incremental greedy re-solve: rebuild only the `dirty` groups' hulls
    /// and steps, merge them back into the prior canonical step order, and
    /// walk. Requires that every group *not* listed in `dirty` is identical
    /// (bit-for-bit) to the problem that produced `prev`, and that the
    /// budget and group count are unchanged; when the shape does not match
    /// (different group count or budget), this falls back to a cold solve.
    ///
    /// The result is bit-identical to [`MckpProblem::solve_greedy`] on the
    /// same problem — asserted in debug builds.
    ///
    /// # Errors
    ///
    /// See [`MckpProblem::solve`].
    pub fn resolve_warm(
        &self,
        prev: WarmState,
        dirty: &[usize],
    ) -> Result<(MckpSolution, WarmState), SolverError> {
        self.validate()?;
        if prev.hulls.len() != self.groups.len()
            || prev.budget_bits != self.budget.to_bits()
            || dirty.iter().any(|&g| g >= self.groups.len())
        {
            return self.solve_greedy_with_state();
        }
        let mut is_dirty = vec![false; self.groups.len()];
        for &g in dirty {
            is_dirty[g] = true;
        }
        let mut state = prev;
        // Recompute dirty hulls and their steps; fresh steps get the same
        // canonical order among themselves.
        let mut fresh = Vec::new();
        for (gi, dirty) in is_dirty.iter().enumerate() {
            if *dirty {
                state.hulls[gi] = lower_hull(&self.groups[gi]);
                self.group_steps(gi, &state.hulls[gi], &mut fresh);
            }
        }
        fresh.sort_by(step_cmp);
        // Merge: prior clean steps (already canonically sorted) with the
        // fresh dirty ones. `step_cmp` is a total order with no equal
        // elements across the two inputs (equal efficiency still splits by
        // group, and a group is either clean or dirty), so the merge yields
        // exactly the sequence a full sort would.
        let mut merged = Vec::with_capacity(state.steps.len() + fresh.len());
        let mut fresh_it = fresh.into_iter().peekable();
        for s in state.steps.drain(..) {
            if is_dirty[s.group] {
                continue; // Superseded by the recomputed steps.
            }
            while let Some(f) = fresh_it.peek() {
                if step_cmp(f, &s) == Ordering::Less {
                    merged.push(fresh_it.next().expect("peeked"));
                } else {
                    break;
                }
            }
            merged.push(s);
        }
        merged.extend(fresh_it);
        state.steps = merged;
        let solution = self.hull_walk(&state)?;
        #[cfg(debug_assertions)]
        {
            // The equal-objective invariant, checked the strong way: a warm
            // re-solve must be indistinguishable from a cold solve.
            let cold = self.solve_greedy()?;
            debug_assert_eq!(solution.choice, cold.choice, "warm choice != cold");
            debug_assert_eq!(
                solution.perf_cost.to_bits(),
                cold.perf_cost.to_bits(),
                "warm objective {} != cold {}",
                solution.perf_cost,
                cold.perf_cost
            );
            debug_assert_eq!(
                solution.tco_cost.to_bits(),
                cold.tco_cost.to_bits(),
                "warm tco != cold"
            );
            debug_assert_eq!(solution.iterations, cold.iterations, "warm effort != cold");
        }
        Ok((solution, state))
    }

    /// Validate a previous window's solution against this problem for plan
    /// reuse: the choice must have the right shape, stay within budget, and
    /// score to exactly the stored objective (bit-for-bit). Returns the
    /// revalidated solution, or `None` when the problem changed — the
    /// caller must fall back to a real solve.
    pub fn reuse_solution(&self, prev: &MckpSolution) -> Option<MckpSolution> {
        if prev.choice.len() != self.groups.len()
            || prev
                .choice
                .iter()
                .zip(&self.groups)
                .any(|(&c, g)| c >= g.len())
        {
            return None;
        }
        let (perf, tco) = self.score(&prev.choice);
        if tco > self.budget + 1e-9
            || perf.to_bits() != prev.perf_cost.to_bits()
            || tco.to_bits() != prev.tco_cost.to_bits()
        {
            return None;
        }
        Some(prev.clone())
    }

    /// Append the canonical upgrade steps of group `gi` (with hull `hull`)
    /// to `out`.
    fn group_steps(&self, gi: usize, hull: &[usize], out: &mut Vec<Step>) {
        for l in 1..hull.len() {
            let a = self.groups[gi][hull[l - 1]];
            let b = self.groups[gi][hull[l]];
            let d_tco = b.tco_cost - a.tco_cost;
            let d_perf = a.perf_cost - b.perf_cost;
            debug_assert!(d_tco > 0.0 && d_perf > 0.0);
            out.push(Step {
                group: gi,
                to_level: l,
                d_tco,
                eff: d_perf / d_tco,
            });
        }
    }

    /// The greedy walk over a prepared [`WarmState`]: start every group at
    /// its min-TCO hull point, apply steps in canonical order while the
    /// budget allows, then refinement passes to fixpoint. Shared verbatim by
    /// the cold and warm paths, so both produce identical solutions.
    fn hull_walk(&self, state: &WarmState) -> Result<MckpSolution, SolverError> {
        let hulls = &state.hulls;
        let steps = &state.steps;
        // Start at each group's min-TCO hull point.
        let mut level: Vec<usize> = vec![0; self.groups.len()];
        let mut tco: f64 = hulls
            .iter()
            .zip(&self.groups)
            .map(|(h, g)| g[h[0]].tco_cost)
            .sum();
        if tco > self.budget + 1e-9 {
            return Err(SolverError::Infeasible);
        }

        let mut iterations = steps.len() as u64;
        let mut skipped_any = false;
        for s in steps {
            // In-group order: only apply if it is the next level for its
            // group (within-group efficiencies decrease, so the global order
            // respects this except under exact ties).
            if level[s.group] + 1 != s.to_level {
                continue;
            }
            if tco + s.d_tco <= self.budget + 1e-9 {
                tco += s.d_tco;
                level[s.group] = s.to_level;
            } else {
                skipped_any = true;
            }
        }
        // Refinement: steps skipped earlier may fit after later smaller ones
        // were rejected too; do passes until fixpoint.
        loop {
            let mut progressed = false;
            iterations += steps.len() as u64;
            for s in steps {
                if level[s.group] + 1 == s.to_level && tco + s.d_tco <= self.budget + 1e-9 {
                    tco += s.d_tco;
                    level[s.group] = s.to_level;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        let choice: Vec<usize> = hulls.iter().zip(&level).map(|(h, &l)| h[l]).collect();
        let (perf, tco) = self.score(&choice);
        Ok(MckpSolution {
            choice,
            perf_cost: perf,
            tco_cost: tco,
            exact: !skipped_any,
            iterations,
        })
    }

    /// Exact DP over a quantized budget axis with `resolution` buckets.
    ///
    /// The TCO axis is scaled so the budget maps to `resolution`; each item's
    /// cost is rounded *up*, so the solution never violates the true budget.
    /// With `resolution` large relative to the number of groups the result
    /// is optimal for all practical purposes, and exactly optimal whenever
    /// all costs are integral multiples of the bucket size.
    ///
    /// # Errors
    ///
    /// See [`MckpProblem::solve`].
    pub fn solve_exact_dp(&self, resolution: usize) -> Result<MckpSolution, SolverError> {
        self.validate()?;
        let res = resolution.max(8);
        let max_tco: f64 = self
            .groups
            .iter()
            .map(|g| g.iter().map(|i| i.tco_cost).fold(0.0f64, f64::max))
            .sum();
        // When every cost (and the budget) is integral and fits the bucket
        // count, a unit scale makes the DP exactly optimal. Otherwise costs
        // are rounded *up* so the result never violates the true budget
        // (optimal for the quantized instance).
        let integral = self.budget <= res as f64
            && self.budget.fract().abs() < 1e-9
            && self
                .groups
                .iter()
                .flatten()
                .all(|i| i.tco_cost.fract().abs() < 1e-9 && i.tco_cost <= res as f64);
        let scale = if integral {
            1.0
        } else {
            let scale_base = self.budget.max(1e-12).min(max_tco.max(1e-12));
            res as f64 / scale_base
        };
        let budget_units = (self.budget * scale + 1e-9).floor() as usize;
        let quant = |tco: f64| -> usize { (tco * scale - 1e-9).ceil().max(0.0) as usize };

        const INF: f64 = f64::INFINITY;
        // dp[b] = min perf with TCO-units exactly <= b.
        let mut dp = vec![INF; budget_units + 1];
        let mut parent: Vec<Vec<u32>> = Vec::with_capacity(self.groups.len());
        dp[0] = 0.0;
        let mut reachable_max = 0usize;
        let mut iterations = 0u64;
        for g in &self.groups {
            let mut ndp = vec![INF; budget_units + 1];
            let mut par = vec![u32::MAX; budget_units + 1];
            let new_max = budget_units
                .min(reachable_max + g.iter().map(|i| quant(i.tco_cost)).max().unwrap_or(0));
            for (b, &cur) in dp.iter().enumerate().take(reachable_max + 1) {
                if cur == INF {
                    continue;
                }
                for (ii, item) in g.iter().enumerate() {
                    iterations += 1;
                    let nb = b + quant(item.tco_cost);
                    if nb <= budget_units {
                        let np = cur + item.perf_cost;
                        if np < ndp[nb] {
                            ndp[nb] = np;
                            par[nb] = ii as u32;
                        }
                    }
                }
            }
            reachable_max = new_max;
            dp = ndp;
            parent.push(par);
        }
        // Best bucket; prefix-min so every group contributed.
        let mut best_b = usize::MAX;
        let mut best = INF;
        for (b, &p) in dp.iter().enumerate() {
            if p < best {
                best = p;
                best_b = b;
            }
        }
        if best_b == usize::MAX {
            return Err(SolverError::Infeasible);
        }
        // Walk parents backwards. Parent tables store only the last layer's
        // choice per bucket, so we rebuild by re-running the DP per layer —
        // instead, store per-layer parents (done above) and track buckets.
        let mut choice = vec![0usize; self.groups.len()];
        let mut b = best_b;
        for (gi, g) in self.groups.iter().enumerate().rev() {
            let ii = parent[gi][b];
            debug_assert!(ii != u32::MAX);
            choice[gi] = ii as usize;
            b -= quant(g[ii as usize].tco_cost);
        }
        let (perf, tco) = self.score(&choice);
        debug_assert!(tco <= self.budget + 1e-9);
        Ok(MckpSolution {
            choice,
            perf_cost: perf,
            tco_cost: tco,
            exact: true,
            iterations,
        })
    }
}

/// One hull upgrade step: move `group` from hull level `to_level - 1` to
/// `to_level`, buying `d_perf` performance for `d_tco` budget.
#[derive(Debug, Clone)]
struct Step {
    group: usize,
    to_level: usize,
    d_tco: f64,
    eff: f64,
}

/// Canonical total order over upgrade steps: efficiency descending, then
/// group ascending, then level ascending. Both the cold sort and the warm
/// merge use this comparator, which is what makes warm re-solves
/// bit-identical to cold solves. (Within one group, hull efficiencies are
/// strictly decreasing, so two distinct steps never compare equal.)
fn step_cmp(a: &Step, b: &Step) -> Ordering {
    b.eff
        .total_cmp(&a.eff)
        .then_with(|| a.group.cmp(&b.group))
        .then_with(|| a.to_level.cmp(&b.to_level))
}

/// Reusable solver state from a greedy solve: the per-group convex hulls
/// and the canonically ordered upgrade-step list. Feed it back to
/// [`MckpProblem::resolve_warm`] with the set of changed groups to re-solve
/// incrementally. Opaque on purpose — its invariants (hull/step agreement,
/// canonical order) are what the warm path's determinism rests on.
#[derive(Debug, Clone)]
pub struct WarmState {
    hulls: Vec<Vec<usize>>,
    steps: Vec<Step>,
    budget_bits: u64,
}

impl WarmState {
    /// Number of groups this state was built for.
    pub fn groups(&self) -> usize {
        self.hulls.len()
    }

    /// Number of upgrade steps currently held (feeds the modeled warm-solve
    /// cost, [`cost::greedy_warm_ns`]).
    pub fn steps_len(&self) -> usize {
        self.steps.len()
    }
}

/// Closed-form modeled solver costs, in nanoseconds.
///
/// These are deterministic functions of the problem shape — never stopwatch
/// readings — so they can feed bit-reproducible daemon accounting and the
/// snapshot-diffed rows of the CI bench-regression gate. The constant is
/// ~one branch-heavy comparison on a server core.
pub mod cost {
    /// Modeled cost of one comparison/step examination.
    pub const NS_PER_CMP: f64 = 25.0;

    /// Cold greedy solve over `n_items` candidate (region, tier) pairs:
    /// dominated by the `O(n log n)` canonical step sort.
    pub fn greedy_cold_ns(n_items: usize) -> f64 {
        let n = n_items as f64;
        NS_PER_CMP * n * n.max(2.0).log2()
    }

    /// Warm re-solve with `dirty_items` candidate pairs in changed groups
    /// and `steps` total upgrade steps: sort the recomputed dirty steps
    /// (`O(d log d)`) and merge + walk the full step list (`O(s)`).
    pub fn greedy_warm_ns(dirty_items: usize, steps: usize) -> f64 {
        let d = dirty_items as f64;
        NS_PER_CMP * (d * d.max(2.0).log2() + steps as f64)
    }

    /// Plan reuse over `n_regions` regions: one pass to diff hotness and
    /// revalidate the stored choice.
    pub fn reuse_ns(n_regions: usize) -> f64 {
        NS_PER_CMP * n_regions as f64
    }
}

/// Dominance-filtered lower convex hull of a group, as item indices ordered
/// by increasing TCO cost.
fn lower_hull(items: &[MckpItem]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    idx.sort_by(|&a, &b| {
        items[a]
            .tco_cost
            .total_cmp(&items[b].tco_cost)
            .then(items[a].perf_cost.total_cmp(&items[b].perf_cost))
    });
    // Dominance: as tco increases, keep only strictly decreasing perf.
    let mut filtered: Vec<usize> = Vec::new();
    for &i in &idx {
        if let Some(&last) = filtered.last() {
            if items[i].perf_cost >= items[last].perf_cost - 1e-15 {
                continue;
            }
            if (items[i].tco_cost - items[last].tco_cost).abs() < 1e-15 {
                // Same cost, better perf: replace.
                filtered.pop();
            }
        }
        filtered.push(i);
    }
    // Lower convex hull (slopes d_perf/d_tco must be decreasing in magnitude:
    // each extra TCO dollar buys less perf than the previous one).
    let mut hull: Vec<usize> = Vec::new();
    for &i in &filtered {
        while hull.len() >= 2 {
            let a = items[hull[hull.len() - 2]];
            let b = items[hull[hull.len() - 1]];
            let c = items[i];
            let s_ab = (a.perf_cost - b.perf_cost) / (b.tco_cost - a.tco_cost);
            let s_bc = (b.perf_cost - c.perf_cost) / (c.tco_cost - b.tco_cost);
            if s_bc >= s_ab - 1e-15 {
                // b is not on the hull: the later step is at least as
                // efficient, so b would never be the stopping point.
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(i);
    }
    hull
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(p: f64, t: f64) -> MckpItem {
        MckpItem::new(p, t)
    }

    #[test]
    fn trivial_single_group() {
        let p = MckpProblem {
            groups: vec![vec![item(10.0, 1.0), item(2.0, 5.0), item(0.0, 9.0)]],
            budget: 6.0,
        };
        let s = p.solve().unwrap();
        assert_eq!(s.choice, vec![1]);
        assert!((s.perf_cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_budget() {
        let p = MckpProblem {
            groups: vec![vec![item(1.0, 5.0)]],
            budget: 4.0,
        };
        assert_eq!(p.solve().unwrap_err(), SolverError::Infeasible);
        assert_eq!(p.solve_greedy().unwrap_err(), SolverError::Infeasible);
    }

    #[test]
    fn malformed_rejected() {
        let p = MckpProblem {
            groups: vec![vec![]],
            budget: 1.0,
        };
        assert!(matches!(p.solve(), Err(SolverError::Malformed(_))));
        let p2 = MckpProblem {
            groups: vec![vec![item(f64::NAN, 1.0)]],
            budget: 1.0,
        };
        assert!(matches!(p2.solve(), Err(SolverError::Malformed(_))));
    }

    #[test]
    fn hull_drops_dominated_items() {
        // Item 1 dominated (worse perf AND worse tco than item 2).
        let items = vec![item(10.0, 1.0), item(9.0, 5.0), item(2.0, 3.0)];
        let hull = lower_hull(&items);
        assert!(!hull.contains(&1));
        assert_eq!(hull, vec![0, 2]);
    }

    #[test]
    fn hull_drops_non_convex_points() {
        // Middle point above the segment between the endpoints.
        let items = vec![item(10.0, 0.0), item(9.5, 5.0), item(0.0, 10.0)];
        let hull = lower_hull(&items);
        assert_eq!(hull, vec![0, 2]);
    }

    #[test]
    fn dp_matches_bruteforce_on_random_instances() {
        let mut x = 42u64;
        let mut rnd = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        for trial in 0..30 {
            let ngroups = 2 + rnd() % 4;
            let groups: Vec<Vec<MckpItem>> = (0..ngroups)
                .map(|_| {
                    (0..(2 + rnd() % 3))
                        .map(|_| item((rnd() % 50) as f64, (rnd() % 20) as f64))
                        .collect()
                })
                .collect();
            let min_budget: f64 = groups
                .iter()
                .map(|g| g.iter().map(|i| i.tco_cost).fold(f64::INFINITY, f64::min))
                .sum();
            let budget = min_budget + (rnd() % 30) as f64;
            let p = MckpProblem {
                groups: groups.clone(),
                budget,
            };
            let dp = p.solve_exact_dp(8192).unwrap();

            // Brute force.
            let mut best = f64::INFINITY;
            let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
            let mut counter = vec![0usize; ngroups];
            loop {
                let (perf, tco) = p.score(&counter);
                if tco <= budget + 1e-9 && perf < best {
                    best = perf;
                }
                // Increment counter.
                let mut k = 0;
                loop {
                    if k == ngroups {
                        break;
                    }
                    counter[k] += 1;
                    if counter[k] < sizes[k] {
                        break;
                    }
                    counter[k] = 0;
                    k += 1;
                }
                if k == ngroups {
                    break;
                }
            }
            assert!(
                (dp.perf_cost - best).abs() < 1e-6,
                "trial {trial}: dp {} vs brute {best}",
                dp.perf_cost
            );
        }
    }

    #[test]
    fn greedy_close_to_exact() {
        let mut x = 7u64;
        let mut rnd = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) as usize
        };
        for _ in 0..20 {
            let groups: Vec<Vec<MckpItem>> = (0..12)
                .map(|_| {
                    (0..5)
                        .map(|k| {
                            // Structured like tiers: more TCO -> less perf.
                            let tco = (k * 10 + rnd() % 5) as f64;
                            let perf = ((5 - k) * 20 + rnd() % 10) as f64;
                            item(perf, tco)
                        })
                        .collect()
                })
                .collect();
            let budget = 250.0;
            let p = MckpProblem { groups, budget };
            let g = p.solve_greedy().unwrap();
            let e = p.solve_exact_dp(16384).unwrap();
            assert!(g.tco_cost <= budget + 1e-9);
            // Greedy within one hull step of optimal: allow 15% slack.
            assert!(
                g.perf_cost <= e.perf_cost * 1.15 + 25.0,
                "greedy {} vs exact {}",
                g.perf_cost,
                e.perf_cost
            );
        }
    }

    #[test]
    fn budget_zero_forces_min_tco() {
        let p = MckpProblem {
            groups: vec![
                vec![item(10.0, 0.0), item(0.0, 5.0)],
                vec![item(7.0, 0.0), item(1.0, 3.0)],
            ],
            budget: 0.0,
        };
        let s = p.solve().unwrap();
        assert_eq!(s.choice, vec![0, 0]);
        assert!((s.perf_cost - 17.0).abs() < 1e-9);
    }

    #[test]
    fn large_budget_gives_min_perf() {
        let p = MckpProblem {
            groups: vec![
                vec![item(10.0, 1.0), item(0.5, 5.0)],
                vec![item(7.0, 1.0), item(0.25, 3.0)],
            ],
            budget: 1000.0,
        };
        for s in [p.solve().unwrap(), p.solve_greedy().unwrap()] {
            assert_eq!(s.choice, vec![1, 1]);
        }
    }

    #[test]
    fn matches_general_ilp_solver() {
        // Cross-validate against branch & bound on a small instance.
        use crate::branch_bound::solve_ilp;
        use crate::simplex::{LinearProgram, Relation};
        let groups = vec![
            vec![item(9.0, 1.0), item(4.0, 3.0), item(1.0, 6.0)],
            vec![item(8.0, 2.0), item(3.0, 4.0)],
            vec![item(6.0, 1.0), item(2.0, 5.0)],
        ];
        let budget = 9.0;
        let p = MckpProblem {
            groups: groups.clone(),
            budget,
        };
        let dp = p.solve_exact_dp(8192).unwrap();

        // ILP: binary var per (group, item); maximize -perf.
        let nvars: usize = groups.iter().map(|g| g.len()).sum();
        let mut obj = Vec::with_capacity(nvars);
        for g in &groups {
            for it in g {
                obj.push(-it.perf_cost);
            }
        }
        let mut lp = LinearProgram::maximize(obj);
        let mut base = 0;
        for g in &groups {
            let mut row = vec![0.0; nvars];
            for k in 0..g.len() {
                row[base + k] = 1.0;
            }
            lp = lp.constrain(row, Relation::Eq, 1.0);
            base += g.len();
        }
        let mut wrow = vec![0.0; nvars];
        let mut base = 0;
        for g in &groups {
            for (k, it) in g.iter().enumerate() {
                wrow[base + k] = it.tco_cost;
            }
            base += g.len();
        }
        lp = lp.constrain(wrow, Relation::Le, budget);
        for v in 0..nvars {
            let mut row = vec![0.0; nvars];
            row[v] = 1.0;
            lp = lp.constrain(row, Relation::Le, 1.0);
        }
        let ilp = solve_ilp(&lp, &(0..nvars).collect::<Vec<_>>())
            .expect("MCKP cross-validation ILP (3 groups, budget 9) is feasible");
        assert!(
            (dp.perf_cost - (-ilp.objective)).abs() < 1e-6,
            "dp {} vs ilp {}",
            dp.perf_cost,
            -ilp.objective
        );
    }

    /// Tier-shaped instance: `n` groups x 6 items, perf = hotness x latency,
    /// static per-tier TCO.
    fn tiered_problem(hot: &[f64]) -> MckpProblem {
        let groups = hot
            .iter()
            .map(|&h| {
                (0..6)
                    .map(|t| {
                        let lat = [0.0, 300.0, 2000.0, 4000.0, 5000.0, 12000.0][t];
                        let cost = [12.0, 4.0, 6.0, 2.0, 5.5, 1.2][t];
                        MckpItem::new(h * lat, cost)
                    })
                    .collect()
            })
            .collect();
        MckpProblem {
            groups,
            budget: 4.0 * hot.len() as f64,
        }
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_cold_over_window_sequence() {
        // A steady-state window sequence: each window perturbs a small,
        // rotating subset of hotness values; warm re-solves must match cold
        // solves exactly (choice, objective bits, effort).
        let n = 96usize;
        let mut hot: Vec<f64> = (0..n).map(|r| 1000.0 / (1.0 + r as f64)).collect();
        let (mut sol, mut state) = tiered_problem(&hot)
            .solve_greedy_with_state()
            .expect("budget covers minimum");
        for window in 1..12u64 {
            // Deterministic churn: ~8% of groups change per window.
            let dirty: Vec<usize> = (0..n)
                .filter(|&r| (r as u64).wrapping_mul(0x9E3779B9).wrapping_add(window) % 13 == 0)
                .collect();
            for &r in &dirty {
                hot[r] = hot[r] * 0.5 + window as f64;
            }
            let p = tiered_problem(&hot);
            let cold = p.solve_greedy().expect("feasible");
            let (warm, next) = p.resolve_warm(state, &dirty).expect("feasible");
            assert_eq!(warm.choice, cold.choice, "window {window}");
            assert_eq!(warm.perf_cost.to_bits(), cold.perf_cost.to_bits());
            assert_eq!(warm.tco_cost.to_bits(), cold.tco_cost.to_bits());
            assert_eq!(warm.iterations, cold.iterations, "window {window}");
            sol = warm;
            state = next;
        }
        assert!(sol.tco_cost <= 4.0 * n as f64 + 1e-9);
    }

    #[test]
    fn warm_resolve_with_no_dirty_groups_matches_cold() {
        let hot: Vec<f64> = (0..32).map(|r| (r as f64) * 3.5).collect();
        let p = tiered_problem(&hot);
        let (cold, state) = p.solve_greedy_with_state().expect("feasible");
        let (warm, _) = p.resolve_warm(state, &[]).expect("feasible");
        assert_eq!(warm.choice, cold.choice);
        assert_eq!(warm.iterations, cold.iterations);
    }

    #[test]
    fn warm_resolve_falls_back_on_shape_mismatch() {
        let p_small = tiered_problem(&[1.0, 2.0, 3.0]);
        let (_, state) = p_small.solve_greedy_with_state().expect("feasible");
        // Different group count: must fall back to a cold solve, not panic.
        let p_big = tiered_problem(&[1.0, 2.0, 3.0, 4.0]);
        let (warm, _) = p_big.resolve_warm(state, &[0]).expect("feasible");
        let cold = p_big.solve_greedy().expect("feasible");
        assert_eq!(warm.choice, cold.choice);
        // Out-of-range dirty index: same fallback.
        let (_, state2) = p_big.solve_greedy_with_state().expect("feasible");
        let (warm2, _) = p_big.resolve_warm(state2, &[99]).expect("feasible");
        assert_eq!(warm2.choice, cold.choice);
    }

    #[test]
    fn reuse_solution_validates_and_rejects() {
        let hot: Vec<f64> = (0..16).map(|r| 100.0 - r as f64).collect();
        let p = tiered_problem(&hot);
        let sol = p.solve_greedy().expect("feasible");
        // Unchanged problem: reuse succeeds bit-for-bit.
        let reused = p.reuse_solution(&sol).expect("same problem revalidates");
        assert_eq!(reused.choice, sol.choice);
        assert_eq!(reused.perf_cost.to_bits(), sol.perf_cost.to_bits());
        assert_eq!(reused.iterations, sol.iterations);
        // Changed hotness: the stored objective no longer matches -> reject.
        let mut hot2 = hot.clone();
        hot2[3] *= 7.0;
        assert!(tiered_problem(&hot2).reuse_solution(&sol).is_none());
        // Wrong shape -> reject.
        assert!(tiered_problem(&hot[..8]).reuse_solution(&sol).is_none());
    }

    #[test]
    fn modeled_costs_show_warm_win() {
        // The standard-mix steady state: 1024 regions x 6 tiers, ~5% of
        // regions dirty per window. The modeled warm cost must undercut the
        // cold cost by at least the 3x the bench-regression gate pins.
        let n_regions = 1024usize;
        let n_items = n_regions * 6;
        let dirty_items = n_items / 20;
        let steps = n_regions * 5; // Full hulls keep all 5 upgrade steps.
        let cold = cost::greedy_cold_ns(n_items);
        let warm = cost::greedy_warm_ns(dirty_items, steps);
        assert!(
            cold >= 3.0 * warm,
            "cold {cold} ns vs warm {warm} ns: expected >= 3x"
        );
        assert!(cost::reuse_ns(n_regions) < warm);
    }
}
