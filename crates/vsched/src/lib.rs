//! # vsched — closed-loop cluster control plane
//!
//! The seed platform runs one pre-placed job at a time; this crate closes
//! the loop around it, in three layers:
//!
//! * [`queue`] — open-loop job arrivals feed a **bounded admission queue**
//!   with a pluggable start order (FIFO, shortest-expected-first,
//!   per-tenant fair share) and per-job SLO tracking (queue wait,
//!   makespan, slowdown);
//! * [`placement`] — a [`placement::PlacementKind`] rewrites the VM→host
//!   map before the cluster boots: pack (the paper's "normal" layout),
//!   spread (cross-domain), or an adaptive pick priced by the configured
//!   makespan model;
//! * [`model`] — every decision that prices a candidate VM layout goes
//!   through a [`model::MakespanKind`]: the analytic hand-priced baseline
//!   or a learned regression tree fitted on `vchar` characterization
//!   sweeps;
//! * [`rebalance`] — a periodic controller samples per-host CPU/NIC load
//!   from the fluid kernel's cumulative counters and plans bounded live
//!   migrations (hysteresis + cooldown + move budget) through the
//!   existing migration session API, including idle-time consolidation
//!   for the energy report.
//!
//! [`controller::Controller`] glues the layers together and is driven by
//! the `vhadoop` platform's event loop. Everything reacts to simulated
//! wakeups only and draws no randomness, so controlled runs remain pure
//! functions of (config, seed); a platform configured without a
//! controller (the default) has none.

#![warn(missing_docs)]

pub mod controller;
pub mod model;
pub mod placement;
pub mod queue;
pub mod rebalance;

/// Convenience imports.
pub mod prelude {
    pub use crate::controller::{
        Controller, ControllerConfig, ControllerCounters, WhatIfCandidate, WhatIfOutcome,
        WhatIfRequest,
    };
    pub use crate::model::{
        decision_features, MakespanKind, RegressionTree, TreeConfig, FEATURE_NAMES,
    };
    pub use crate::placement::{apply_placement, estimate_makespan, PlacementKind, WorkloadHint};
    pub use crate::queue::{
        AdmissionQueue, JobSlo, QueueConfig, QueuePolicy, QueuedJob, SloReport, SloTracker,
    };
    pub use crate::rebalance::{
        HostLoad, RebalanceConfig, RebalanceMode, RebalancePlan, Rebalancer,
    };
}
