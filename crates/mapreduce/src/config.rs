//! Job configuration — the knobs the paper's Hadoop Module and MapReduce
//! Tuner turn — and the TaskTracker constants every job shares.

use simcore::time::SimDuration;

/// Concurrent map tasks per TaskTracker
/// (`mapred.tasktracker.map.tasks.maximum`, a tracker setting in Hadoop 0.20).
pub const MAP_SLOTS_PER_TRACKER: u32 = 2;

/// Concurrent reduce tasks per TaskTracker
/// (`mapred.tasktracker.reduce.tasks.maximum`).
pub const REDUCE_SLOTS_PER_TRACKER: u32 = 2;

/// Per-task launch overhead: heartbeat wait + JVM spawn + setup. The
/// dominant term for small jobs (MRBench) on 2012 Hadoop.
pub const TASK_STARTUP: SimDuration = SimDuration::from_millis(1_500);

/// Launch serialization: the JobTracker hands out one task per
/// TaskTracker heartbeat, so the k-th task assigned in the same wave
/// starts ≈ `k × ASSIGNMENT_STAGGER` later. This is what makes tiny jobs
/// slow down as map/reduce counts grow (the paper's Fig. 3).
pub const ASSIGNMENT_STAGGER: SimDuration = SimDuration::from_millis(400);

/// Per-job configuration (Hadoop 0.20 parameter names in the doc comments).
/// Job output is replicated `dfs.replication` times (`HdfsConfig::replication`),
/// and the task-scheduler policy is the JobTracker's, not the job's.
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// Number of reduce tasks (`mapred.reduce.tasks`). Zero makes a
    /// map-only job whose maps write output directly (TeraGen, DFSIO).
    pub num_reduces: u32,
    /// Run the application's combiner on map output before spilling.
    pub use_combiner: bool,
    /// Prefer scheduling a map where one of its split's replicas lives.
    pub locality_aware: bool,
    /// Launch backup attempts for straggling maps
    /// (`mapred.map.tasks.speculative.execution`). The first attempt to
    /// finish wins; the loser's work is discarded.
    pub speculative: bool,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig { num_reduces: 1, use_combiner: true, locality_aware: true, speculative: false }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_hadoop_020_flavoured() {
        assert_eq!(MAP_SLOTS_PER_TRACKER, 2);
        assert_eq!(REDUCE_SLOTS_PER_TRACKER, 2);
        let c = JobConfig::default();
        assert_eq!(c.num_reduces, 1);
        assert!(c.use_combiner);
        assert!(c.locality_aware);
        assert!(!c.speculative);
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
