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
use crate::scheduler::SchedulerPolicy;
use crate::state::{JobState, Partition, SplitInfo, TaskPhase};
use crate::types::{K, V};
use simcore::persist::{Decoder, Encoder, Persist};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use vcluster::cluster::VmId;
use vhdfs::meta::BlockId;

impl Persist for JobId {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.0);
    }
    fn decode(d: &mut Decoder) -> Self {
        JobId(d.u32())
    }
}

impl Persist for SchedulerPolicy {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            SchedulerPolicy::Fifo => 0,
            SchedulerPolicy::Fair => 1,
            SchedulerPolicy::JobDriven => 2,
        });
    }
    fn decode(d: &mut Decoder) -> Self {
        match d.u8() {
            0 => SchedulerPolicy::Fifo,
            1 => SchedulerPolicy::Fair,
            2 => SchedulerPolicy::JobDriven,
            other => panic!("snapshot: unknown scheduler policy code {other}"),
        }
    }
}

impl Persist for K {
    fn encode(&self, e: &mut Encoder) {
        match self {
            K::Int(i) => {
                e.u8(0);
                e.u64(*i as u64);
            }
            K::Text(s) => {
                e.u8(1);
                e.str(s);
            }
            K::Bytes(b) => {
                e.u8(2);
                b.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        match d.u8() {
            0 => K::Int(d.u64() as i64),
            1 => K::Text(d.str()),
            2 => K::Bytes(Vec::<u8>::decode(d)),
            other => panic!("snapshot: unknown key variant {other}"),
        }
    }
}

impl Persist for V {
    fn encode(&self, e: &mut Encoder) {
        match self {
            V::Null => e.u8(0),
            V::Int(i) => {
                e.u8(1);
                e.u64(*i as u64);
            }
            V::Float(f) => {
                e.u8(2);
                e.f64(*f);
            }
            V::Text(s) => {
                e.u8(3);
                e.str(s);
            }
            V::Bytes(b) => {
                e.u8(4);
                b.encode(e);
            }
            V::Vector(v) => {
                e.u8(5);
                v.encode(e);
            }
            V::Tuple(t) => {
                e.u8(6);
                t.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        match d.u8() {
            0 => V::Null,
            1 => V::Int(d.u64() as i64),
            2 => V::Float(d.f64()),
            3 => V::Text(d.str()),
            4 => V::Bytes(Vec::<u8>::decode(d)),
            5 => V::Vector(Vec::<f64>::decode(d)),
            6 => V::Tuple(Vec::<V>::decode(d)),
            other => panic!("snapshot: unknown value variant {other}"),
        }
    }
}

impl Persist for Counters {
    fn encode(&self, e: &mut Encoder) {
        for v in [
            self.map_input_records,
            self.map_input_bytes,
            self.map_output_records,
            self.map_output_bytes,
            self.combine_output_records,
            self.shuffle_bytes,
            self.reduce_input_records,
            self.reduce_input_groups,
            self.reduce_output_records,
            self.output_bytes,
            self.data_local_maps,
            self.rack_local_maps,
            self.launched_maps,
            self.launched_reduces,
            self.speculative_maps,
            self.relaunched_tasks,
        ] {
            e.u64(v);
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        Counters {
            map_input_records: d.u64(),
            map_input_bytes: d.u64(),
            map_output_records: d.u64(),
            map_output_bytes: d.u64(),
            combine_output_records: d.u64(),
            shuffle_bytes: d.u64(),
            reduce_input_records: d.u64(),
            reduce_input_groups: d.u64(),
            reduce_output_records: d.u64(),
            output_bytes: d.u64(),
            data_local_maps: d.u64(),
            rack_local_maps: d.u64(),
            launched_maps: d.u64(),
            launched_reduces: d.u64(),
            speculative_maps: d.u64(),
            relaunched_tasks: d.u64(),
        }
    }
}

impl Persist for JobConfig {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.num_reduces);
        e.u32(self.map_slots_per_node);
        e.u32(self.reduce_slots_per_node);
        e.bool(self.use_combiner);
        e.bool(self.locality_aware);
        self.task_startup.encode(e);
        self.assignment_stagger.encode(e);
        e.u32(self.output_replication);
        e.bool(self.speculative);
        self.scheduler.encode(e);
    }
    fn decode(d: &mut Decoder) -> Self {
        JobConfig {
            num_reduces: d.u32(),
            map_slots_per_node: d.u32(),
            reduce_slots_per_node: d.u32(),
            use_combiner: d.bool(),
            locality_aware: d.bool(),
            task_startup: Persist::decode(d),
            assignment_stagger: Persist::decode(d),
            output_replication: d.u32(),
            speculative: d.bool(),
            scheduler: Persist::decode(d),
        }
    }
}

impl Persist for JobSpec {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.name);
        self.input_path.encode(e);
        e.str(&self.output_path);
        self.config.encode(e);
    }
    fn decode(d: &mut Decoder) -> Self {
        JobSpec {
            name: d.str(),
            input_path: Persist::decode(d),
            output_path: d.str(),
            config: Persist::decode(d),
        }
    }
}

impl Persist for SplitInfo {
    fn encode(&self, e: &mut Encoder) {
        self.block.encode(e);
        e.u64(self.bytes);
        self.locations.encode(e);
    }
    fn decode(d: &mut Decoder) -> Self {
        SplitInfo {
            block: Option::<BlockId>::decode(d),
            bytes: d.u64(),
            locations: Vec::<VmId>::decode(d),
        }
    }
}

impl Persist for TaskPhase {
    fn encode(&self, e: &mut Encoder) {
        match self {
            TaskPhase::Pending => e.u8(0),
            TaskPhase::Running(vm) => {
                e.u8(1);
                vm.encode(e);
            }
            TaskPhase::Done => e.u8(2),
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        match d.u8() {
            0 => TaskPhase::Pending,
            1 => TaskPhase::Running(VmId::decode(d)),
            2 => TaskPhase::Done,
            other => panic!("snapshot: unknown task phase {other}"),
        }
    }
}

/// Encoded as the bare record vector; the size is recomputed on decode.
/// ([`crate::run::Run`] encodes as the same bytes.)
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
/// with the decoded [`JobState`] at restore.
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
        self.map_vm.encode(e);
        e.usize(self.map_attempt_vm.len());
        for pair in &self.map_attempt_vm {
            pair[0].encode(e);
            pair[1].encode(e);
        }
        self.map_started_at.encode(e);
        self.map_durations.encode(e);
        self.speculated.encode(e);
        self.write_claimed.encode(e);
        e.usize(self.attempt_active.len());
        for pair in &self.attempt_active {
            e.bool(pair[0]);
            e.bool(pair[1]);
        }
        self.map_epoch.encode(e);
        self.reduce_epoch.encode(e);
        self.map_retries.encode(e);
        self.reduce_retries.encode(e);
        self.reduce_started_at.encode(e);
        self.shuffle_started_at.encode(e);
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
        e.usize(self.completed_maps);
        e.usize(self.completed_reduces);
        self.counters.encode(e);
        self.submitted.encode(e);
        self.map_phase_done.encode(e);
    }

    fn decode_state(
        d: &mut Decoder,
        id: JobId,
        app: Rc<dyn MapReduceApp>,
        input: Rc<dyn InputFormat>,
        partitioner: Rc<dyn Partitioner>,
    ) -> Self {
        let spec = JobSpec::decode(d);
        let splits = Vec::<SplitInfo>::decode(d);
        let maps = Vec::<TaskPhase>::decode(d);
        let reduces = Vec::<TaskPhase>::decode(d);
        let map_vm = Vec::<Option<VmId>>::decode(d);
        let n = d.usize();
        let map_attempt_vm =
            (0..n).map(|_| [Option::<VmId>::decode(d), Option::<VmId>::decode(d)]).collect();
        let map_started_at = Persist::decode(d);
        let map_durations = Persist::decode(d);
        let speculated = Persist::decode(d);
        let write_claimed = Persist::decode(d);
        let n = d.usize();
        let attempt_active = (0..n).map(|_| [d.bool(), d.bool()]).collect();
        let map_epoch = Persist::decode(d);
        let reduce_epoch = Persist::decode(d);
        let map_retries = Persist::decode(d);
        let reduce_retries = Persist::decode(d);
        let reduce_started_at = Persist::decode(d);
        let shuffle_started_at = Persist::decode(d);
        let pending_maps = VecDeque::<usize>::decode(d);
        let pending_reduces = VecDeque::<usize>::decode(d);
        let (map_outputs, task_outputs) = if spec.config.num_reduces == 0 {
            let per_map = Vec::<Vec<Option<Partition>>>::decode(d);
            assert_eq!(d.usize(), 0, "snapshot: a map-only job with reduce outputs");
            let no_runs = per_map.iter().map(|_| Vec::new()).collect();
            (no_runs, per_map.into_iter().map(|mut only| only.pop().flatten()).collect())
        } else {
            (Persist::decode(d), Persist::decode(d))
        };
        JobState {
            id,
            spec,
            app,
            input,
            partitioner,
            splits,
            maps,
            reduces,
            map_vm,
            map_attempt_vm,
            map_started_at,
            map_durations,
            speculated,
            write_claimed,
            attempt_active,
            map_epoch,
            reduce_epoch,
            map_retries,
            reduce_retries,
            reduce_started_at,
            shuffle_started_at,
            pending_maps,
            pending_reduces,
            map_outputs,
            task_outputs,
            completed_maps: d.usize(),
            completed_reduces: d.usize(),
            counters: Counters::decode(d),
            submitted: Persist::decode(d),
            map_phase_done: Persist::decode(d),
        }
    }
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

    /// Encodes all dynamic JobTracker state (jobs ascending id, slot
    /// tables sorted by key).
    pub fn encode_state(&self, e: &mut Encoder) {
        self.trackers.encode(e);
        e.u32(self.next_job);
        self.used_map_slots.encode(e);
        self.used_reduce_slots.encode(e);
        self.scheduler.policy().encode(e);
        e.usize(self.jobs.len());
        for (&id, job) in &self.jobs {
            e.u32(id);
            job.encode_state(e);
        }
    }

    /// Overwrites this engine's dynamic state from a snapshot, rejoining
    /// each decoded job with its [`JobResidue`] user code.
    ///
    /// # Panics
    /// If a decoded job has no matching residue entry.
    pub fn restore_state(&mut self, d: &mut Decoder, residue: &[JobResidue]) {
        self.trackers = Vec::<VmId>::decode(d);
        self.next_job = d.u32();
        self.used_map_slots = HashMap::<u32, u32>::decode(d);
        self.used_reduce_slots = HashMap::<u32, u32>::decode(d);
        self.set_policy(SchedulerPolicy::decode(d));
        let n = d.usize();
        self.jobs.clear();
        for _ in 0..n {
            let id = d.u32();
            let r = residue
                .iter()
                .find(|r| r.id == id)
                .unwrap_or_else(|| panic!("snapshot residue missing job {id}"));
            let state = JobState::decode_state(
                d,
                JobId(id),
                Rc::clone(&r.app),
                Rc::clone(&r.input),
                Rc::clone(&r.partitioner),
            );
            self.jobs.insert(id, state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::persist::{Decoder, Encoder};

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
        round_trip(JobSpec::generated("gen", "/g").with_config(
            JobConfig::map_only().with_scheduler(SchedulerPolicy::JobDriven).with_speculative(true),
        ));
        round_trip(Counters { shuffle_bytes: 42, launched_maps: 3, ..Default::default() });
        round_trip(TaskPhase::Running(VmId(4)));
        round_trip(vec![TaskPhase::Pending, TaskPhase::Done]);
    }
}
