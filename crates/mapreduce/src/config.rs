//! Job configuration — the knobs the paper's Hadoop Module and MapReduce
//! Tuner turn.

use crate::scheduler::SchedulerPolicy;
use simcore::time::SimDuration;

/// Per-job configuration (Hadoop 0.20 parameter names in the doc comments).
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// Number of reduce tasks (`mapred.reduce.tasks`). Zero makes a
    /// map-only job whose maps write output directly (TeraGen, DFSIO).
    pub num_reduces: u32,
    /// Concurrent map tasks per node (`mapred.tasktracker.map.tasks.maximum`).
    pub map_slots_per_node: u32,
    /// Concurrent reduce tasks per node (`mapred.tasktracker.reduce.tasks.maximum`).
    pub reduce_slots_per_node: u32,
    /// Run the application's combiner on map output before spilling.
    pub use_combiner: bool,
    /// Prefer scheduling a map where one of its split's replicas lives.
    pub locality_aware: bool,
    /// Per-task launch overhead: heartbeat wait + JVM spawn + setup. The
    /// dominant term for small jobs (MRBench) on 2012 Hadoop.
    pub task_startup: SimDuration,
    /// Launch serialization: the JobTracker hands out one task per
    /// TaskTracker heartbeat, so the k-th task assigned in the same wave
    /// starts ≈ `k × assignment_stagger` later. This is what makes tiny
    /// jobs slow down as map/reduce counts grow (the paper's Fig. 3).
    pub assignment_stagger: SimDuration,
    /// Output replication (`dfs.replication` for job output files).
    pub output_replication: u32,
    /// Launch backup attempts for straggling maps
    /// (`mapred.map.tasks.speculative.execution`). The first attempt to
    /// finish wins; the loser's work is discarded.
    pub speculative: bool,
    /// Task-scheduler policy this submission asks for. `None` inherits the
    /// engine-wide policy (from `PlatformConfig::scheduler`, default FIFO);
    /// `Some(p)` switches the engine to `p` at submit time.
    pub scheduler: Option<SchedulerPolicy>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            num_reduces: 1,
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
            use_combiner: true,
            locality_aware: true,
            task_startup: SimDuration::from_millis(1_500),
            assignment_stagger: SimDuration::from_millis(400),
            output_replication: 3,
            speculative: false,
            scheduler: None,
        }
    }
}

impl JobConfig {
    /// Map-only configuration (writes map output directly to HDFS).
    pub fn map_only() -> Self {
        JobConfig { num_reduces: 0, ..Default::default() }
    }

    /// Sets the reduce count, builder style.
    pub fn with_reduces(mut self, n: u32) -> Self {
        self.num_reduces = n;
        self
    }

    /// Toggles the combiner, builder style.
    pub fn with_combiner(mut self, on: bool) -> Self {
        self.use_combiner = on;
        self
    }

    /// Toggles locality-aware scheduling, builder style.
    pub fn with_locality(mut self, on: bool) -> Self {
        self.locality_aware = on;
        self
    }

    /// Toggles speculative execution, builder style.
    pub fn with_speculative(mut self, on: bool) -> Self {
        self.speculative = on;
        self
    }

    /// Selects the task-scheduler policy, builder style.
    pub fn with_scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.scheduler = Some(policy);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_hadoop_020_flavoured() {
        let c = JobConfig::default();
        assert_eq!(c.map_slots_per_node, 2);
        assert_eq!(c.reduce_slots_per_node, 2);
        assert_eq!(c.output_replication, 3);
        assert!(c.locality_aware);
    }

    #[test]
    fn builders_compose() {
        let c = JobConfig::default().with_reduces(6).with_combiner(false).with_locality(false);
        assert_eq!(c.num_reduces, 6);
        assert!(!c.use_combiner);
        assert!(!c.locality_aware);
        assert_eq!(JobConfig::map_only().num_reduces, 0);
    }
}
