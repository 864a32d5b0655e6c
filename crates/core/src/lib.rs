//! # vhadoop — a scalable Hadoop virtual cluster platform, in simulation
//!
//! Rust reproduction of *"vHadoop: A Scalable Hadoop Virtual Cluster
//! Platform for MapReduce-Based Parallel Machine Learning with Performance
//! Consideration"* (Ye et al., IEEE CLUSTER 2012 Workshops).
//!
//! The five modules of the paper's architecture map to the workspace:
//!
//! | Paper module | Crate |
//! |---|---|
//! | Virtualization Module (Xen, VMs, NFS, live migration) | [`vcluster`] |
//! | Hadoop Module (HDFS + MapReduce) | [`vhdfs`], [`mapreduce`] |
//! | Machine Learning Algorithm Library (Mahout) | [`mlkit`] |
//! | nmon Monitor | [`vmonitor`] |
//! | MapReduce Tuner | [`tuner`] |
//!
//! This crate is the facade: [`platform::VHadoop`] wires them together
//! behind the paper's execution flow. Everything runs on a deterministic
//! discrete-event simulator ([`simcore`]), with user MapReduce code
//! executing for real over real data.
//!
//! ```
//! use vhadoop::prelude::*;
//!
//! let mut platform = VHadoop::launch(
//!     PlatformConfig::builder()
//!         .cluster(ClusterSpec::builder().hosts(2).vms(4).build())
//!         .tracing(true)
//!         .build(),
//! );
//! let t = platform.upload_input("/in", 8 << 20, VmId(1));
//! assert!(t.as_secs_f64() > 0.0);
//! // The upload left hdfs spans in the trace.
//! assert!(platform.metrics().category("hdfs").is_some());
//! ```

#![warn(missing_docs)]

pub mod faults;
pub mod metrics;
pub mod persist;
pub mod platform;
pub mod session;

pub use mapreduce;
pub use mlkit;
pub use simcore;
pub use tuner;
pub use vcluster;
pub use vhdfs;
pub use vmonitor;
pub use vsched;
pub use workloads;

/// Convenience imports covering the whole platform surface.
pub mod prelude {
    pub use crate::faults::{InjectedFault, MIN_THROTTLE_FACTOR, TRACKER_TIMEOUT};
    pub use crate::metrics::{IntegrityStats, MetricsSnapshot, Observation};
    pub use crate::persist::Snapshot;
    pub use crate::platform::{
        FailureImpact, PlatformConfig, PlatformConfigBuilder, PlatformEvent, VHadoop,
    };
    pub use crate::session::MigrationSession;
    pub use mapreduce::prelude::*;
    pub use simcore::prelude::*;
    pub use vcluster::prelude::*;
    pub use vhdfs::prelude::{Hdfs, HdfsConfig};
    pub use vmonitor::prelude::*;
    pub use vsched::prelude::*;
}
