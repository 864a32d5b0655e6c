//! Job descriptions, results, and progress events.

use crate::config::JobConfig;
use crate::counters::Counters;
use crate::types::Record;
use simcore::time::{SimDuration, SimTime};

/// Identifier of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job_{:04}", self.0)
    }
}

/// What a job reads and writes plus its configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name (reports, traces).
    pub name: String,
    /// HDFS input path; `None` for generator-fed jobs (TeraGen) whose maps
    /// read nothing from the file system.
    pub input_path: Option<String>,
    /// HDFS output path prefix; each reduce writes `<prefix>/part-NNNNN`.
    pub output_path: String,
    /// Per-job knobs.
    pub config: JobConfig,
}

impl JobSpec {
    /// Standard spec reading `input` and writing under `output`.
    pub fn new(
        name: impl Into<String>,
        input: impl Into<String>,
        output: impl Into<String>,
    ) -> Self {
        JobSpec {
            name: name.into(),
            input_path: Some(input.into()),
            output_path: output.into(),
            config: JobConfig::default(),
        }
    }

    /// Generator-fed spec (no HDFS input).
    pub fn generated(name: impl Into<String>, output: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            input_path: None,
            output_path: output.into(),
            config: JobConfig::default(),
        }
    }

    /// Replaces the config, builder style.
    pub fn with_config(mut self, config: JobConfig) -> Self {
        self.config = config;
        self
    }
}

/// Final outcome of a job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Which job.
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant.
    pub finished: SimTime,
    /// `finished - submitted`.
    pub elapsed: SimDuration,
    /// Time from submission until the last map finished.
    pub map_phase: SimDuration,
    /// Time from the last map until job completion (zero for map-only jobs).
    pub reduce_phase: SimDuration,
    /// Aggregate counters.
    pub counters: Counters,
    /// All output records, in partition order then key order. With a
    /// total-order partitioner (TeraSort) this is the globally sorted
    /// output.
    pub outputs: Vec<Record>,
    /// Record count per output partition, in partition index order
    /// (per-map for map-only jobs); prefix sums give partition boundaries
    /// inside `outputs`.
    pub partition_sizes: Vec<usize>,
}

impl JobResult {
    /// Elapsed wall-clock seconds (the paper's "running time" metric).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

/// Progress events surfaced to the platform driver.
#[derive(Debug)]
pub enum JobEvent {
    /// One map task completed (`job`, `map_index`).
    MapDone(JobId, usize),
    /// All maps of a job completed; shuffle begins.
    MapPhaseDone(JobId),
    /// One reduce task completed (`job`, `reduce_index`).
    ReduceDone(JobId, usize),
    /// The job finished; full result attached.
    JobDone(Box<JobResult>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders() {
        let s = JobSpec::new("wc", "/in", "/out");
        assert_eq!(s.input_path.as_deref(), Some("/in"));
        let g = JobSpec::generated("teragen", "/data");
        assert!(g.input_path.is_none());
        let c = s.with_config(JobConfig::map_only());
        assert_eq!(c.config.num_reduces, 0);
    }

    #[test]
    fn job_id_formats() {
        assert_eq!(format!("{}", JobId(7)), "job_0007");
    }
}
