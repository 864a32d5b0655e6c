//! # vhdfs — simulated Hadoop Distributed File System
//!
//! Namenode metadata ([`meta`]), Hadoop-default replica placement with the
//! physical host as the rack ([`placement`]), and timed read/write
//! pipelines over the virtual cluster ([`hdfs`]). Reads fetch from the
//! closest replica; writes run the full replication pipeline; and because
//! the paper stores VM images on a shared NFS server, every datanode disk
//! access also crosses the network — the platform's signature bottleneck.

#![warn(missing_docs)]

pub mod hdfs;
pub mod meta;
pub mod placement;

/// Convenience imports.
pub mod prelude {
    pub use crate::hdfs::{Hdfs, HdfsCompletion, HdfsConfig, HdfsOpId, RPC_DELAY};
    pub use crate::meta::{BlockId, BlockMeta, FileMeta, Namespace};
    pub use crate::placement::{closest_replica, ReplicaIndex};
}
