//! # vcluster — Xen-style virtual cluster on the fluid simulator
//!
//! Models the vHadoop paper's virtualization layer:
//!
//! * [`spec`] — physical hosts (Dell T710 defaults), guest VMs, placement
//!   policies (the paper's *normal* single-domain vs. *cross-domain*
//!   configurations), racks, NFS image server, and the Xen CPU-overhead
//!   factor;
//! * [`topology`] — the explicit network tree (VM → host bridge →
//!   rack/ToR switch → core); one rack is the paper's flat two-host
//!   geometry;
//! * [`cluster`] — materializes a [`spec::ClusterSpec`] onto the
//!   [`simcore`] fluid network and provides the demand paths (compute,
//!   VM↔VM transfer, NFS-backed disk I/O) that HDFS and MapReduce build
//!   their activities from, resolving every path through the topology;
//! * [`migration`] — iterative pre-copy live migration with dirty-rate
//!   feedback, per-VM and whole-cluster reports.

#![warn(missing_docs)]

pub mod cluster;
pub mod migration;
pub mod spec;
pub mod topology;

/// Convenience imports.
pub mod prelude {
    pub use crate::cluster::{HostId, VirtualCluster, VmId};
    pub use crate::migration::{
        ClusterMigrationReport, ConstantDirtyModel, DirtyRateModel, MigrationEvent,
        MigrationManager, StopReason, UtilizationDirtyModel, VmMigrationReport,
    };
    pub use crate::spec::{ClusterSpec, HostSpec, NfsSpec, Placement, VmSpec, GIB, MIB};
    pub use crate::topology::{LocalityTier, RackId, Topology};
}
