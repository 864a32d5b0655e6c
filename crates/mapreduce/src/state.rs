//! Per-job bookkeeping and event-tag encoding shared by the engine's
//! lifecycle modules.
//!
//! Each task is one record — [`MapTask`], [`ReduceTask`]: its phase, its
//! attempts and whether they hold a slot, its relaunch epoch, retry count
//! and trace instants — so a relaunch is one reset. What keeps its own
//! shape stays per job: the splits, the map outputs and task outputs
//! (their snapshot layout, and `finish_job`'s release of them) and the
//! completed-map durations.
//!
//! Paper mechanism modelled: the JobTracker's in-memory job/task tables —
//! split metadata (from the HDFS namenode), per-task attempt state, the
//! map-output index that feeds the shuffle, and the counters the paper's
//! nmon Monitor and MapReduce Tuner consume.

use crate::app::{MapReduceApp, Partitioner};
use crate::config::JobConfig;
use crate::counters::Counters;
use crate::input::InputFormat;
use crate::job::{JobId, JobSpec};
use crate::run::Run;
use crate::scheduler::SlotLedger;
use crate::types::{records_size, Record};
use simcore::owners;
use simcore::prelude::*;
use std::collections::VecDeque;
use std::rc::Rc;
use vcluster::cluster::VmId;
use vhdfs::meta::BlockId;

// Phase codes stored in bits 56..64 of the tag payload.
pub(crate) const PH_MAP_STARTUP: u8 = 0;
pub(crate) const PH_MAP_READ: u8 = 1;
pub(crate) const PH_MAP_COMPUTE: u8 = 2;
pub(crate) const PH_MAP_WRITE: u8 = 3;
pub(crate) const PH_REDUCE_STARTUP: u8 = 4;
pub(crate) const PH_SHUFFLE: u8 = 5;
pub(crate) const PH_REDUCE_COMPUTE: u8 = 6;
pub(crate) const PH_REDUCE_WRITE: u8 = 7;
/// Periodic speculation heartbeat (only armed when speculative execution
/// is enabled — Hadoop's JobTracker re-evaluates stragglers on TaskTracker
/// heartbeats, not on task events).
pub(crate) const PH_SPECULATE: u8 = 8;
/// Deferred re-queue of a map after a tracker timeout (the JobTracker's
/// detection latency + per-task retry backoff, armed as an engine timer).
pub(crate) const PH_REQUEUE_MAP: u8 = 9;
/// Deferred re-queue of a reduce after a tracker timeout.
pub(crate) const PH_REQUEUE_REDUCE: u8 = 10;
/// Batch-member completions we deliberately ignore.
pub(crate) const PH_IGNORE: u8 = 15;

/// Attempt flag: set for the speculative (second) attempt of a task.
const ATTEMPT_BIT: u64 = 1 << 55;
/// Per-task relaunch epoch, bits 48..55 (7 bits, wrapping): events whose
/// epoch disagrees with the task's current epoch belong to an attempt
/// killed by a tracker failure and are dropped.
const EPOCH_SHIFT: u64 = 48;
const EPOCH_MASK: u64 = 0x7F << EPOCH_SHIFT;
const TASK_MASK: u64 = (1 << EPOCH_SHIFT) - 1;

pub(crate) fn tag(job: JobId, phase: u8, task: usize) -> Tag {
    tag_full(job, phase, 0, 0, task)
}

pub(crate) fn tag_full(job: JobId, phase: u8, attempt: usize, epoch: u8, task: usize) -> Tag {
    let attempt_bit = if attempt == 0 { 0 } else { ATTEMPT_BIT };
    let epoch_bits = (u64::from(epoch) << EPOCH_SHIFT) & EPOCH_MASK;
    Tag::new(
        owners::MAPREDUCE,
        job.0,
        (u64::from(phase) << 56) | attempt_bit | epoch_bits | task as u64,
    )
}

pub(crate) fn decode(t: Tag) -> (JobId, u8, usize, u8, usize) {
    let attempt = usize::from(t.b & ATTEMPT_BIT != 0);
    (
        JobId(t.a),
        (t.b >> 56) as u8,
        attempt,
        ((t.b & EPOCH_MASK) >> EPOCH_SHIFT) as u8,
        (t.b & TASK_MASK) as usize,
    )
}

#[derive(Debug, Clone)]
pub(crate) struct SplitInfo {
    pub(crate) block: Option<BlockId>,
    pub(crate) bytes: u64,
    pub(crate) locations: Vec<VmId>,
}

/// One task's sealed output records (a reduce's, or a map's in a map-only
/// job; map output bound for a reduce is a [`Run`]), with the byte size
/// computed once, when it was sealed. Outputs live until their job
/// finishes, so sealing also returns the unused tail of a vector that grew
/// by doubling.
#[derive(Debug)]
pub(crate) struct Partition {
    pub(crate) records: Vec<Record>,
    pub(crate) bytes: u64,
}

impl Partition {
    pub(crate) fn seal(mut records: Vec<Record>) -> Self {
        records.shrink_to_fit();
        let bytes = records_size(&records);
        Partition { records, bytes }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum TaskPhase {
    #[default]
    Pending,
    Running(VmId),
    Done,
}

/// Next relaunch epoch (7 bits, wrapping — the width the tag carries).
fn next_epoch(epoch: u8) -> u8 {
    (epoch + 1) & 0x7F
}

/// One map task's record: its phase, its attempts and the slots they hold.
#[derive(Debug, Clone, Default)]
pub(crate) struct MapTask {
    /// `Running` from launch until the winning attempt is done; in a
    /// map-only job that is when its HDFS write completes.
    pub(crate) phase: TaskPhase,
    /// VM of the attempt that won: it finished computing first (and, in a
    /// map-only job, claimed the HDFS write). The shuffle source.
    pub(crate) winner: Option<VmId>,
    /// VM per attempt (index 0 = primary, 1 = speculative backup).
    pub(crate) attempt_vm: [Option<VmId>; 2],
    /// Whether each attempt still holds its slot. An attempt stops holding
    /// one when it ends, and when its tracker is lost.
    pub(crate) active: [bool; 2],
    /// Launch instant of the primary attempt.
    pub(crate) started_at: Option<SimTime>,
    /// Relaunch epoch, bumped when a tracker failure kills the attempts.
    pub(crate) epoch: u8,
    /// How often the task was lost to a tracker failure (drives the
    /// re-queue backoff).
    pub(crate) retries: u32,
}

impl MapTask {
    /// Ends `attempt`, returning its slot to `slots` if it still holds one
    /// (a loser whose tracker was lost holds none).
    pub(crate) fn release(&mut self, attempt: usize, slots: &mut SlotLedger) {
        if std::mem::take(&mut self.active[attempt]) {
            slots.release_map(self.attempt_vm[attempt].expect("an active attempt runs somewhere"));
        }
    }

    /// Ends every attempt that still holds a slot.
    pub(crate) fn release_all(&mut self, slots: &mut SlotLedger) {
        for attempt in 0..2 {
            self.release(attempt, slots);
        }
    }

    /// Resets the task to pending under a fresh epoch — orphaning every
    /// in-flight event of its attempts, which must hold no slot — and
    /// counts the loss. Returns how often it was lost before.
    pub(crate) fn relaunch(&mut self) -> u32 {
        debug_assert_eq!(self.active, [false; 2], "relaunched with a slot held");
        let retries = self.retries;
        *self = MapTask { epoch: next_epoch(self.epoch), retries: retries + 1, ..Self::default() };
        retries
    }
}

/// One reduce task's record.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReduceTask {
    /// `Running` (and holding a reduce slot) from launch until its output
    /// write completes.
    pub(crate) phase: TaskPhase,
    /// Relaunch epoch, bumped when a tracker failure kills the task.
    pub(crate) epoch: u8,
    /// How often the task was lost to a tracker failure.
    pub(crate) retries: u32,
    /// Launch instant (trace span start).
    pub(crate) started_at: Option<SimTime>,
    /// Instant the shuffle batch was issued (trace span start).
    pub(crate) shuffle_started_at: Option<SimTime>,
}

impl ReduceTask {
    /// Resets the task to pending under a fresh epoch and counts the loss.
    /// Returns how often it was lost before.
    pub(crate) fn relaunch(&mut self) -> u32 {
        let retries = self.retries;
        *self =
            ReduceTask { epoch: next_epoch(self.epoch), retries: retries + 1, ..Self::default() };
        retries
    }
}

pub(crate) struct JobState {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    // Shared (not owned) so a snapshot can carry them into forks: user
    // code is immutable and deterministic, so parent and fork may safely
    // invoke the same instance.
    pub(crate) app: Rc<dyn MapReduceApp>,
    pub(crate) input: Rc<dyn InputFormat>,
    pub(crate) partitioner: Rc<dyn Partitioner>,
    pub(crate) splits: Vec<SplitInfo>,
    pub(crate) maps: Vec<MapTask>,
    pub(crate) reduces: Vec<ReduceTask>,
    /// Durations of completed maps (drives the speculation threshold).
    pub(crate) map_durations: Vec<f64>,
    pub(crate) pending_maps: VecDeque<usize>,
    pub(crate) pending_reduces: VecDeque<usize>,
    /// Per map: per reduce partition, the (possibly combined) records.
    /// Lent to the owning reduce's merge and kept until the job finishes,
    /// so a failed reduce can re-run from them.
    pub(crate) map_outputs: Vec<Vec<Option<Run>>>,
    /// Per output task — reduce, or map of a map-only job: the output
    /// records awaiting the HDFS write.
    pub(crate) task_outputs: Vec<Option<Partition>>,
    pub(crate) completed_maps: usize,
    pub(crate) completed_reduces: usize,
    pub(crate) counters: Counters,
    pub(crate) submitted: SimTime,
    pub(crate) map_phase_done: Option<SimTime>,
}

impl JobState {
    pub(crate) fn config(&self) -> &JobConfig {
        &self.spec.config
    }

    pub(crate) fn num_reduces(&self) -> usize {
        self.spec.config.num_reduces as usize
    }

    pub(crate) fn map_only(&self) -> bool {
        self.spec.config.num_reduces == 0
    }

    pub(crate) fn running_reduce_vm(&self, r: usize) -> VmId {
        match self.reduces[r].phase {
            TaskPhase::Running(vm) => vm,
            other => panic!("reduce {r} in unexpected state {other:?}"),
        }
    }

    /// Bytes of map output per reduce partition, for partition-size-aware
    /// reduce placement. Only materialized once reduces are schedulable
    /// (map phase done, reduces still pending) — empty otherwise, so the
    /// per-event scheduling path never pays for it.
    pub(crate) fn partition_bytes(&self) -> Vec<u64> {
        if self.map_phase_done.is_none() || self.pending_reduces.is_empty() {
            return Vec::new();
        }
        (0..self.num_reduces())
            .map(|r| {
                self.map_outputs.iter().map(|parts| parts[r].as_ref().map_or(0, Run::bytes)).sum()
            })
            .collect()
    }
}

impl std::fmt::Debug for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobState")
            .field("id", &self.id)
            .field("name", &self.spec.name)
            .field("completed_maps", &self.completed_maps)
            .field("completed_reduces", &self.completed_reduces)
            .finish()
    }
}
