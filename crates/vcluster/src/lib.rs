//! # vcluster — Xen-style virtual cluster on the fluid simulator
//!
//! Models the vHadoop paper's virtualization layer:
//!
//! * [`spec`] — physical hosts (Dell T710 defaults), guest VMs, placement
//!   policies (the paper's *normal* single-domain vs. *cross-domain*
//!   configurations), NFS image server, and Xen parameters;
//! * [`topology`] — the explicit network tree (VM → host bridge →
//!   rack/ToR switch → core) with per-tier bandwidth and latency; one
//!   rack degenerates to the paper's flat two-host geometry;
//! * [`cluster`] — materializes a [`spec::ClusterSpec`] onto the
//!   [`simcore`] fluid network and provides the demand paths (compute,
//!   VM↔VM transfer, NFS-backed disk I/O) that HDFS and MapReduce build
//!   their activities from, resolving every path through the topology;
//! * [`migration`] — iterative pre-copy live migration with dirty-rate
//!   feedback, per-VM and whole-cluster reports;
//! * [`energy`] — linear host power model and exact energy accounting
//!   (the consolidation argument for migration);
//! * [`virtlm`] — the Virt-LM-style standalone migration benchmark.

#![warn(missing_docs)]

pub mod cluster;
pub mod energy;
pub mod migration;
pub mod spec;
pub mod topology;
pub mod virtlm;

/// Convenience imports.
pub mod prelude {
    pub use crate::cluster::{HostId, VirtualCluster, VmId};
    pub use crate::energy::{EnergyMeter, EnergyReport};
    pub use crate::migration::{
        ClusterMigrationReport, ConstantDirtyModel, DirtyRateModel, MigrationEvent,
        MigrationManager, StopReason, UtilizationDirtyModel, VmMigrationReport,
    };
    pub use crate::spec::{ClusterSpec, HostSpec, NfsSpec, Placement, VmSpec, XenParams, GIB, MIB};
    pub use crate::topology::{LocalityTier, RackId, RackPlacement, Topology, TopologySpec};
    pub use crate::virtlm::{VirtLm, VirtLmRow, WorkloadProfile};
}
