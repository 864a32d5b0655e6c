//! # mapreduce — a Hadoop-0.20-style engine that really executes user code
//!
//! JobTracker, TaskTrackers with map/reduce slots, locality-aware
//! scheduling, combiners, custom partitioners, shuffle, merge-sort, and
//! HDFS output — all timed by the [`simcore`] fluid model while the user's
//! map/reduce functions run for real over real records.
//!
//! Quick tour:
//! * [`types::K`] / [`types::V`] — record keys and values;
//! * [`app::MapReduceApp`] — the user-code trait (+ [`app::CostProfile`]);
//! * [`input::InputFormat`] — how splits materialize into records;
//! * [`config::JobConfig`] / [`job::JobSpec`] — job knobs;
//! * [`run::Run`] — how map output is held until it is reduced;
//! * [`engine::MrEngine`] — the JobTracker;
//! * [`runtime::MrRuntime`] — engine + cluster + HDFS + event loop in one.
//!
//! ```
//! use mapreduce::prelude::*;
//!
//! struct Count;
//! impl MapReduceApp for Count {
//!     fn name(&self) -> &str { "count" }
//!     fn map(&self, _k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
//!         for w in v.as_text().split_whitespace() {
//!             out(K::from(w), V::Int(1));
//!         }
//!     }
//!     fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
//!         out(k.clone(), V::Int(vs.iter().map(V::as_int).sum()));
//!     }
//! }
//!
//! let mut rt = MrRuntime::paper_default();
//! rt.register_input("/in", 4 << 20, VmId(1));
//! let input = VecInput::new(vec![vec![(K::Int(0), V::from("a b a"))]]);
//! let spec = JobSpec::new("count", "/in", "/out");
//! let result = rt.run_job(spec, Box::new(Count), Box::new(input));
//! assert_eq!(result.outputs.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod config;
pub mod counters;
pub mod engine;
pub mod input;
pub mod job;
mod maptask;
pub mod persist;
mod recovery;
pub mod run;
pub mod runtime;
pub mod scheduler;
mod shuffle;
mod speculation;
mod state;
pub mod types;

/// Convenience imports.
pub mod prelude {
    pub use crate::app::{
        group_by_key, CostProfile, HashPartitioner, MapReduceApp, Partitioner, RangePartitioner,
    };
    pub use crate::config::JobConfig;
    pub use crate::counters::Counters;
    pub use crate::engine::MrEngine;
    pub use crate::input::{GeneratorInput, InputFormat, VecInput};
    pub use crate::job::{JobEvent, JobId, JobResult, JobSpec};
    pub use crate::runtime::{MrRuntime, NodeRoles, PendingJob};
    pub use crate::scheduler::{Assignment, SchedulerPolicy, TaskKind};
    pub use crate::types::{records_size, Record, K, V};
    pub use vcluster::cluster::VmId;
}
