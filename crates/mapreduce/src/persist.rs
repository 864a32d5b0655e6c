//! Snapshot capture of the JobTracker's dynamic state.
//!
//! Everything the engine mutates while jobs run is encoded here in a
//! canonical order (maps sorted by key, ids ascending) so byte-identical
//! engine states produce byte-identical snapshots. The three user-code
//! trait objects per job (`app`, `input`, `partitioner`) are *not*
//! serialized — user code is arbitrary Rust — instead they travel out of
//! band as [`JobResidue`] `Rc` clones that the platform's `Snapshot`
//! carries and hands back at restore time. Sharing is sound because the
//! traits are `&self`-only, immutable, and deterministic.

use crate::app::{MapReduceApp, Partitioner};
use crate::config::JobConfig;
use crate::counters::Counters;
use crate::engine::MrEngine;
use crate::input::InputFormat;
use crate::job::{JobId, JobSpec};
use crate::run::Run;
use crate::scheduler::SchedulerPolicy;
use crate::state::{JobState, MapTask, Partition, ReduceTask, SplitInfo, TaskPhase};
use crate::types::{K, V};
use simcore::persist::{Decoder, Encoder, Persist};
use std::rc::Rc;

simcore::persist_struct!(JobId(0));
// Tag 1 belonged to a retired policy; the tags left keep the snapshot layout.
simcore::persist_enum!(SchedulerPolicy { 0 => Fifo, 2 => JobDriven });
simcore::persist_enum!(K { 0 => Int(i), 1 => Text(s), 2 => Bytes(b) });
simcore::persist_enum!(V {
    0 => Null,
    1 => Int(i),
    2 => Float(f),
    3 => Text(s),
    4 => Bytes(b),
    5 => Vector(v),
    6 => Tuple(t),
});
simcore::persist_struct!(Counters {
    map_input_records,
    map_input_bytes,
    map_output_records,
    map_output_bytes,
    combine_output_records,
    shuffle_bytes,
    reduce_input_records,
    reduce_input_groups,
    reduce_output_records,
    output_bytes,
    data_local_maps,
    rack_local_maps,
    launched_maps,
    launched_reduces,
    speculative_maps,
    relaunched_tasks,
});
simcore::persist_struct!(JobConfig { num_reduces, use_combiner, locality_aware, speculative });
simcore::persist_struct!(JobSpec { name, input_path, output_path, config });
simcore::persist_struct!(SplitInfo { block, bytes, locations });
simcore::persist_enum!(TaskPhase { 0 => Pending, 1 => Running(vm), 2 => Done });
simcore::persist_struct!(MapTask { phase, winner, attempt_vm, active, started_at, epoch, retries });
simcore::persist_struct!(ReduceTask { phase, epoch, retries, started_at, shuffle_started_at });

/// Encoded as the bare record vector, as [`crate::run::Run`] is.
// codec by hand: the byte size is not written but recomputed by `Partition::seal`
impl Persist for Partition {
    fn encode(&self, e: &mut Encoder) {
        self.records.encode(e);
    }
    fn decode(d: &mut Decoder) -> Self {
        Partition::seal(Persist::decode(d))
    }
}

/// The shareable user-code parts of one in-flight job. These ride inside
/// the platform `Snapshot` as live `Rc`s (never as bytes) and are rejoined
/// with the decoded job state at restore.
#[derive(Clone)]
pub struct JobResidue {
    /// Job id this residue belongs to.
    pub id: u32,
    /// The application's map/reduce/combine code.
    pub app: Rc<dyn MapReduceApp>,
    /// The job's input format.
    pub input: Rc<dyn InputFormat>,
    /// The job's partitioner.
    pub partitioner: Rc<dyn Partitioner>,
}

impl std::fmt::Debug for JobResidue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobResidue").field("id", &self.id).field("app", &self.app.name()).finish()
    }
}

impl JobState {
    fn encode_state(&self, e: &mut Encoder) {
        self.spec.encode(e);
        self.splits.encode(e);
        self.maps.encode(e);
        self.reduces.encode(e);
        self.map_durations.encode(e);
        self.pending_maps.encode(e);
        self.pending_reduces.encode(e);
        if self.map_only() {
            // As a map-only job's outputs have always been written: each
            // map's as its only partition once it is there, and no reduce
            // outputs after them.
            e.usize(self.task_outputs.len());
            for output in &self.task_outputs {
                e.usize(usize::from(output.is_some()));
                if output.is_some() {
                    output.encode(e);
                }
            }
            e.usize(0);
        } else {
            self.map_outputs.encode(e);
            self.task_outputs.encode(e);
        }
        self.completed_maps.encode(e);
        self.completed_reduces.encode(e);
        self.counters.encode(e);
        self.submitted.encode(e);
        self.map_phase_done.encode(e);
    }

    // codec by hand: residue rejoin (the user code is not in the bytes) and the map-only output layout
    fn decode_state(d: &mut Decoder, id: JobId, residue: &JobResidue) -> Self {
        let spec = JobSpec::decode(d);
        let map_only = spec.config.num_reduces == 0;
        let mut task_outputs = Vec::new();
        // Struct-literal fields are evaluated in the order written, which
        // is the order `encode_state` wrote them.
        JobState {
            id,
            spec,
            app: Rc::clone(&residue.app),
            input: Rc::clone(&residue.input),
            partitioner: Rc::clone(&residue.partitioner),
            splits: Persist::decode(d),
            maps: Persist::decode(d),
            reduces: Persist::decode(d),
            map_durations: Persist::decode(d),
            pending_maps: Persist::decode(d),
            pending_reduces: Persist::decode(d),
            map_outputs: decode_outputs(d, map_only, &mut task_outputs),
            task_outputs,
            completed_maps: Persist::decode(d),
            completed_reduces: Persist::decode(d),
            counters: Persist::decode(d),
            submitted: Persist::decode(d),
            map_phase_done: Persist::decode(d),
        }
    }
}

/// Reads a job's map outputs and fills `task_outputs`, undoing the
/// map-only layout of [`JobState::encode_state`].
fn decode_outputs(
    d: &mut Decoder,
    map_only: bool,
    task_outputs: &mut Vec<Option<Partition>>,
) -> Vec<Vec<Option<Run>>> {
    if !map_only {
        let map_outputs = Persist::decode(d);
        *task_outputs = Persist::decode(d);
        return map_outputs;
    }
    let per_map = Vec::<Vec<Option<Partition>>>::decode(d);
    assert_eq!(d.usize(), 0, "snapshot: a map-only job with reduce outputs");
    let no_runs = per_map.iter().map(|_| Vec::new()).collect();
    *task_outputs = per_map.into_iter().map(|mut only| only.pop().flatten()).collect();
    no_runs
}

impl MrEngine {
    /// `Rc` clones of every unfinished job's user-code trait objects,
    /// ascending job id — the out-of-band half of a snapshot.
    pub fn residue(&self) -> Vec<JobResidue> {
        self.jobs
            .iter()
            .map(|(&id, j)| JobResidue {
                id,
                app: Rc::clone(&j.app),
                input: Rc::clone(&j.input),
                partitioner: Rc::clone(&j.partitioner),
            })
            .collect()
    }

    /// Encodes all dynamic JobTracker state (the slot ledger, then jobs
    /// ascending id).
    pub fn encode_state(&self, e: &mut Encoder) {
        self.slots.encode(e);
        self.next_job.encode(e);
        self.policy.encode(e);
        e.usize(self.jobs.len());
        for (id, job) in &self.jobs {
            id.encode(e);
            job.encode_state(e);
        }
    }

    /// Overwrites this engine's dynamic state from a snapshot, rejoining
    /// each decoded job with its [`JobResidue`] user code.
    ///
    /// # Panics
    /// If a decoded job has no matching residue entry.
    // codec by hand: residue rejoin — each decoded job's user code comes from the residue
    pub fn restore_state(&mut self, d: &mut Decoder, residue: &[JobResidue]) {
        self.slots = Persist::decode(d);
        self.next_job = Persist::decode(d);
        self.policy = Persist::decode(d);
        self.jobs = (0..d.usize())
            .map(|_| {
                let id = u32::decode(d);
                let r = residue
                    .iter()
                    .find(|r| r.id == id)
                    .unwrap_or_else(|| panic!("snapshot residue missing job {id}"));
                (id, JobState::decode_state(d, JobId(id), r))
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcluster::cluster::VmId;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let mut e = Encoder::new();
        v.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(T::decode(&mut d), v);
        assert!(d.is_exhausted());
    }

    #[test]
    fn records_round_trip() {
        round_trip(K::Int(-7));
        round_trip(K::Text("word".into()));
        round_trip(K::Bytes(vec![0, 255, 3]));
        round_trip(V::Null);
        round_trip(V::Int(-1));
        round_trip(V::Float(-0.5));
        round_trip(V::Vector(vec![1.0, 2.5]));
        round_trip(V::Tuple(vec![V::Int(1), V::Text("x".into())]));
        round_trip(vec![(K::Int(1), V::Null), (K::from("a"), V::from(2.0))]);
    }

    #[test]
    fn specs_round_trip() {
        round_trip(JobSpec::new("wc", "/in", "/out"));
        round_trip(
            JobSpec::generated("gen", "/g")
                .with_config(JobConfig::map_only().with_locality(false).with_speculative(true)),
        );
        round_trip(SchedulerPolicy::JobDriven);
        round_trip(Counters { shuffle_bytes: 42, launched_maps: 3, ..Default::default() });
        round_trip(TaskPhase::Running(VmId(4)));
        round_trip(vec![TaskPhase::Pending, TaskPhase::Done]);
    }
}
