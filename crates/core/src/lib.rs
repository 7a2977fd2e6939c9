#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(clippy::float_cmp)]

//! # tierscape-core — TierScape placement models and TS-Daemon
//!
//! The paper's primary contribution: dynamic management of application data
//! across one DRAM tier, `N` byte-addressable tiers and `M` simultaneously
//! active compressed tiers, to trade memory TCO against performance.
//!
//! * [`policy`] — the [`policy::PlacementPolicy`] interface and the
//!   prior-work baselines (HeMem*, GSwap*, TMO*).
//! * [`waterfall`] — the Waterfall model (§6.1): hot pages to DRAM,
//!   everything else ages one tier toward the best-TCO end per window.
//! * [`analytic`] — the analytical model (§6.2–6.7): an ILP over region
//!   hotness with the tunable TCO/performance knob α, solved as a
//!   multiple-choice knapsack.
//! * [`filter`] — the post-ILP migration filter (§6.7): capacity, pressure
//!   and churn control.
//! * [`daemon`] — TS-Daemon (§7.2): PEBS-style profiling, model invocation,
//!   migration execution, and the daemon-tax accounting of Fig. 14.
//! * [`setup`] — canned system setups for the paper's two evaluation
//!   configurations.
//!
//! # Examples
//!
//! ```
//! use tierscape_core::prelude::*;
//! use ts_sim::{Fidelity, TieredSystem};
//! use ts_workloads::{Scale, WorkloadId};
//!
//! let setup = SystemSetup::standard_mix();
//! let workload = WorkloadId::MemcachedYcsb.build(Scale::TEST, 42);
//! let mut system =
//!     TieredSystem::new(setup.into_sim_config(), workload).unwrap();
//! let mut policy = AnalyticalModel::am_tco();
//! let cfg = DaemonConfig { windows: 3, window_accesses: 20_000, ..DaemonConfig::default() };
//! let report = run_daemon(&mut system, &mut policy, &cfg);
//! assert!(report.tco_savings() > 0.0);
//! ```

pub mod analytic;
pub mod daemon;
pub mod filter;
pub mod policy;
pub mod prefetch;
pub mod setup;
pub mod tierselect;
pub mod waterfall;

/// Common imports for examples and benches.
pub mod prelude {
    pub use crate::analytic::{AnalyticalModel, SolverSite};
    pub use crate::daemon::{run_daemon, DaemonConfig, RunReport, TelemetryKind, WindowRecord};
    pub use crate::filter::{FilterState, MigrationFilter};
    pub use crate::policy::{
        PlacementPolicy, PlanCacheMode, PlanDecision, PlanEntry, ThresholdPolicy,
    };
    pub use crate::prefetch::PrefetchingPolicy;
    pub use crate::setup::SystemSetup;
    pub use crate::tierselect::{TempBucket, TierChoice, TierSelector, WorkloadProfile};
    pub use crate::waterfall::WaterfallModel;
    pub use ts_faults::{FaultCounters, FaultPlan, FaultSite, TierError};
    pub use ts_obs::{ObsConfig, Registry, SpanTimer};
}

pub use prelude::*;
