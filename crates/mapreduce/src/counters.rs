//! Job counters, mirroring Hadoop's built-in counter groups.

use serde::{Deserialize, Serialize};

/// Aggregate counters of one job run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Records read by all maps.
    pub map_input_records: u64,
    /// Bytes read by all maps (HDFS).
    pub map_input_bytes: u64,
    /// Records emitted by all maps (before the combiner).
    pub map_output_records: u64,
    /// Bytes emitted by all maps (before the combiner).
    pub map_output_bytes: u64,
    /// Records after the combiner (equals map output when disabled).
    pub combine_output_records: u64,
    /// Bytes moved map→reduce over the network.
    pub shuffle_bytes: u64,
    /// Records fed to all reduces.
    pub reduce_input_records: u64,
    /// Distinct keys reduced.
    pub reduce_input_groups: u64,
    /// Records emitted by all reduces.
    pub reduce_output_records: u64,
    /// Bytes written to HDFS output (pre-replication).
    pub output_bytes: u64,
    /// Map tasks that ran with a data-local split.
    pub data_local_maps: u64,
    /// Map tasks that ran near a replica without holding one: on the same
    /// physical machine, or (multi-rack fabrics) in the same rack.
    pub rack_local_maps: u64,
    /// Map tasks launched (including speculative attempts).
    pub launched_maps: u64,
    /// Reduce tasks launched.
    pub launched_reduces: u64,
    /// Speculative map attempts launched.
    pub speculative_maps: u64,
    /// Tasks re-queued after a TaskTracker failure.
    pub relaunched_tasks: u64,
}

impl Counters {
    /// Fraction of maps that read a local replica.
    pub fn data_locality(&self) -> f64 {
        if self.launched_maps == 0 {
            0.0
        } else {
            self.data_local_maps as f64 / self.launched_maps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero() {
        let c = Counters::default();
        assert_eq!(c.data_locality(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let c = Counters { launched_maps: 10, data_local_maps: 8, ..Default::default() };
        assert_eq!(c.data_locality(), 0.8);
    }
}
