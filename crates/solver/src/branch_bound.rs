//! Branch & bound ILP over the simplex relaxation.
//!
//! General-purpose 0/1-and-integer solver for small problems: it solves the
//! LP relaxation, picks the most fractional integer-constrained variable,
//! and branches `x <= floor(v)` / `x >= ceil(v)`, pruning on the incumbent.
//! Its role in this repository is cross-validation: the specialized MCKP
//! solver used in production paths is checked against this solver on small
//! random instances.

use crate::simplex::{LinearProgram, Relation};
use crate::SolverError;

/// Result of an ILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpSolution {
    /// Variable assignment (integer-constrained entries are integral).
    pub x: Vec<f64>,
    /// Objective value (maximization).
    pub objective: f64,
    /// LP relaxations solved (a size/effort metric, reported by Fig. 14).
    pub nodes: usize,
}

/// Maximum branch & bound nodes before giving up.
const MAX_NODES: usize = 100_000;
const INT_EPS: f64 = 1e-6;

/// Solve `maximize c^T x` with the given constraints where every variable in
/// `integer_vars` must take an integral value.
///
/// # Errors
///
/// [`SolverError::Infeasible`] when no integral assignment exists,
/// [`SolverError::LimitExceeded`] past [`MAX_NODES`], or any LP error.
pub fn solve_ilp(lp: &LinearProgram, integer_vars: &[usize]) -> Result<IlpSolution, SolverError> {
    let mut best: Option<IlpSolution> = None;
    let mut nodes = 0usize;
    // Depth-first stack of extra bound constraints (var, relation, rhs).
    let mut stack: Vec<Vec<(usize, Relation, f64)>> = vec![Vec::new()];

    while let Some(bounds) = stack.pop() {
        nodes += 1;
        if nodes > MAX_NODES {
            return Err(SolverError::LimitExceeded);
        }
        let mut node_lp = lp.clone();
        let n = lp.objective.len();
        for &(var, rel, rhs) in &bounds {
            let mut row = vec![0.0; n];
            row[var] = 1.0;
            node_lp = node_lp.constrain(row, rel, rhs);
        }
        let relax = match node_lp.solve() {
            Ok(s) => s,
            Err(SolverError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        // Prune on bound.
        if let Some(b) = &best {
            if relax.objective <= b.objective + 1e-9 {
                continue;
            }
        }
        // Find the most fractional integer variable.
        let frac_var = integer_vars
            .iter()
            .copied()
            .map(|v| (v, (relax.x[v] - relax.x[v].round()).abs()))
            .filter(|&(_, f)| f > INT_EPS)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match frac_var {
            None => {
                // Integral: candidate incumbent.
                let better = best
                    .as_ref()
                    .map(|b| relax.objective > b.objective)
                    .unwrap_or(true);
                if better {
                    best = Some(IlpSolution {
                        x: relax.x,
                        objective: relax.objective,
                        nodes,
                    });
                }
            }
            Some((var, _)) => {
                let v = relax.x[var];
                let mut lo = bounds.clone();
                lo.push((var, Relation::Le, v.floor()));
                let mut hi = bounds;
                hi.push((var, Relation::Ge, v.ceil()));
                stack.push(lo);
                stack.push(hi);
            }
        }
    }
    match best {
        Some(mut b) => {
            b.nodes = nodes;
            Ok(b)
        }
        None => Err(SolverError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_0_1() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, a,b,c in {0,1}.
        // Best: a + c = 17 (weight 5); a+b = 23 over weight? 3+4=7 > 6. b+c = 20 (6) ok -> 20.
        let lp = LinearProgram::maximize(vec![10.0, 13.0, 7.0])
            .constrain(vec![3.0, 4.0, 2.0], Relation::Le, 6.0)
            .constrain(vec![1.0, 0.0, 0.0], Relation::Le, 1.0)
            .constrain(vec![0.0, 1.0, 0.0], Relation::Le, 1.0)
            .constrain(vec![0.0, 0.0, 1.0], Relation::Le, 1.0);
        let sol = solve_ilp(&lp, &[0, 1, 2])
            .expect("0/1 knapsack (3 items, capacity 6) has integral solutions");
        assert!((sol.objective - 20.0).abs() < 1e-6, "{}", sol.objective);
        assert!((sol.x[1] - 1.0).abs() < 1e-6);
        assert!((sol.x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn integral_relaxation_needs_no_branching() {
        let lp = LinearProgram::maximize(vec![1.0, 1.0])
            .constrain(vec![1.0, 0.0], Relation::Le, 3.0)
            .constrain(vec![0.0, 1.0], Relation::Le, 4.0);
        let sol =
            solve_ilp(&lp, &[0, 1]).expect("box ILP (x<=3, y<=4) has an integral LP relaxation");
        assert!((sol.objective - 7.0).abs() < 1e-6);
        assert_eq!(sol.nodes, 1);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 <= x <= 0.6 has no integer point.
        let lp = LinearProgram::maximize(vec![1.0])
            .constrain(vec![1.0], Relation::Ge, 0.4)
            .constrain(vec![1.0], Relation::Le, 0.6);
        assert_eq!(solve_ilp(&lp, &[0]), Err(SolverError::Infeasible));
    }

    #[test]
    fn mixed_integer() {
        // max x + y, x integer, x + 2y <= 5.5, x <= 3.2 -> x=3, y=1.25.
        let lp = LinearProgram::maximize(vec![1.0, 1.0])
            .constrain(vec![1.0, 2.0], Relation::Le, 5.5)
            .constrain(vec![1.0, 0.0], Relation::Le, 3.2);
        let sol = solve_ilp(&lp, &[0])
            .expect("mixed-integer LP (x integer, x+2y<=5.5, x<=3.2) is feasible");
        assert!((sol.x[0] - 3.0).abs() < 1e-6);
        assert!((sol.objective - 4.25).abs() < 1e-6);
    }

    #[test]
    fn assignment_structure() {
        // Pick one of each pair: x0+x1 = 1, x2+x3 = 1; max 5x0+1x1+2x2+9x3
        // subject to weights 4x0 + 1x1 + 3x2 + 5x3 <= 6 ->
        // choose x1 (w1) + x3 (w5) = 10.
        let lp = LinearProgram::maximize(vec![5.0, 1.0, 2.0, 9.0])
            .constrain(vec![1.0, 1.0, 0.0, 0.0], Relation::Eq, 1.0)
            .constrain(vec![0.0, 0.0, 1.0, 1.0], Relation::Eq, 1.0)
            .constrain(vec![4.0, 1.0, 3.0, 5.0], Relation::Le, 6.0);
        let sol = solve_ilp(&lp, &[0, 1, 2, 3])
            .expect("pick-one-per-pair assignment ILP (weight cap 6) is feasible");
        assert!((sol.objective - 10.0).abs() < 1e-6);
    }
}
