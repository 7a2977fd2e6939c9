#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(clippy::float_cmp)]

//! # ts-solver — optimization substrate for the analytical model
//!
//! The paper solves its placement ILP (Eq. 2) with Google OR-Tools. This
//! crate replaces OR-Tools with from-scratch solvers:
//!
//! * [`simplex`] — a dense two-phase primal simplex for general LPs.
//! * [`branch_bound`] — branch & bound over the simplex for small general
//!   ILPs (used to cross-validate the specialized solver in tests). Both
//!   always solve cold: the daemon calls only [`mckp`].
//! * [`mckp`] — the workhorse: the TierScape ILP *is* a multiple-choice
//!   knapsack problem (pick exactly one tier per region; minimize summed
//!   performance cost subject to a TCO budget), for which dominance-filtered
//!   greedy-on-the-LP-hull and exact dynamic programming are far faster than
//!   a general ILP solver. The paper itself notes its "ILP formulation uses
//!   simple constraints — consuming less than 0.3 % of a single CPU" (§8.4).
//!
//! # Examples
//!
//! ```
//! use ts_solver::mckp::{MckpItem, MckpProblem};
//!
//! // Two regions, two tiers each: tier 0 is cheap-but-slow, tier 1 fast.
//! let problem = MckpProblem {
//!     groups: vec![
//!         vec![MckpItem::new(10.0, 1.0), MckpItem::new(1.0, 4.0)],
//!         vec![MckpItem::new(8.0, 1.0), MckpItem::new(2.0, 4.0)],
//!     ],
//!     budget: 5.0,
//! };
//! let sol = problem.solve().unwrap();
//! assert!(sol.tco_cost <= 5.0);
//! ```

pub mod branch_bound;
pub mod mckp;
pub mod simplex;

/// Errors shared by the solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverError {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The objective is unbounded (general LP only).
    Unbounded,
    /// Iteration/size limits exceeded before convergence.
    LimitExceeded,
    /// The problem is structurally malformed (e.g. empty group).
    Malformed(&'static str),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Infeasible => write!(f, "problem is infeasible"),
            SolverError::Unbounded => write!(f, "objective is unbounded"),
            SolverError::LimitExceeded => write!(f, "solver limit exceeded"),
            SolverError::Malformed(what) => write!(f, "malformed problem: {what}"),
        }
    }
}

impl std::error::Error for SolverError {}
