//! Snapshot capture of the JobTracker's dynamic state.
//!
//! Everything the engine mutates while jobs run is a field list here, in
//! a canonical order (maps sorted by key, jobs by ascending id) so
//! byte-identical engine states produce byte-identical snapshots. A job's
//! three pieces of user code (`app`, `input`, `partitioner`) are `Rc`s,
//! which the snapshot carries as handles (see `simcore::persist`): a
//! restored job runs the very objects the original did. Sharing them is
//! sound because the traits are `&self`-only, immutable, and deterministic.

use crate::config::JobConfig;
use crate::counters::Counters;
use crate::engine::MrEngine;
use crate::job::{JobId, JobSpec};
use crate::scheduler::SchedulerPolicy;
use crate::state::{JobState, MapTask, ReduceTask, SplitInfo, TaskPhase};
use crate::types::{KeyText, K, V};
use simcore::persist::{Decoder, Encoder, Persist};

simcore::persist_struct!(JobId(0));
simcore::persist_enum!(SchedulerPolicy { 0 => Fifo, 1 => JobDriven });
/// As the `String` it replaced: a length, then the UTF-8 bytes.
// codec by hand: a `str` behind the inline-or-heap choice, which the bytes do not record
impl Persist for KeyText {
    fn encode(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn decode(d: &mut Decoder) -> Self {
        KeyText::new(d.str_ref())
    }
}

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
simcore::persist_struct!(JobConfig { num_reduces, use_combiner, speculative });
simcore::persist_struct!(JobSpec { name, input_path, output_path, config });
simcore::persist_struct!(SplitInfo { block, bytes, locations });
simcore::persist_enum!(TaskPhase { 0 => Pending, 1 => Running(vm), 2 => Done });
simcore::persist_struct!(MapTask { phase, winner, attempt_vm, active, started_at, epoch, retries });
simcore::persist_struct!(ReduceTask {
    phase,
    epoch,
    retries,
    started_at,
    shuffle_started_at,
    merged
});

simcore::persist_struct!(JobState {
    id,
    spec,
    app,
    input,
    partitioner,
    splits,
    maps,
    reduces,
    map_durations,
    pending_maps,
    pending_reduces,
    map_outputs,
    task_outputs,
    completed_maps,
    completed_reduces,
    counters,
    submitted,
    map_phase_done,
});
simcore::persist_state!(MrEngine { slots, next_job, policy, jobs });

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
        round_trip(K::from("word"));
        round_trip(K::Bytes(vec![0, 255, 3]));
        // The variant tag, the payload length as a `u64`, then the payload:
        // what a `String` or `Vec<u8>` key wrote.
        let header = Encoder::new().finish().len();
        for key in crate::types::tests::edge_keys() {
            let (tag, payload) = crate::types::tests::tag_and_payload(&key);
            let mut e = Encoder::new();
            key.encode(&mut e);
            let want = [&[tag][..], &(payload.len() as u64).to_le_bytes(), &payload].concat();
            assert_eq!(e.finish()[header..], want, "{key:?}");
            round_trip(key);
        }
        round_trip(V::Bytes(vec![7; 40].into()));
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
                .with_config(JobConfig::map_only().with_combiner(false).with_speculative(true)),
        );
        round_trip(SchedulerPolicy::JobDriven);
        round_trip(Counters { shuffle_bytes: 42, launched_maps: 3, ..Default::default() });
        round_trip(TaskPhase::Running(VmId(4)));
        round_trip(vec![TaskPhase::Pending, TaskPhase::Done]);
    }

    /// A job restored from an encoded engine runs the original's user
    /// code, and re-encoding the restored engine gives the same bytes.
    #[test]
    fn a_restored_job_holds_the_original_user_code() {
        use crate::speculation::tests::{runtime, squaring, submit};
        use std::rc::Rc;
        let mut rt = runtime(5, false);
        submit(&mut rt, squaring(false), "/out-1");
        submit(&mut rt, JobConfig { num_reduces: 0, ..squaring(false) }, "/out-2");
        // Mid-run: some map output held, user code still to be called.
        while rt.mr.jobs.values().all(|j| j.completed_maps == 0) {
            rt.step_audited().expect("a map finishes");
        }
        let encode = |mr: &MrEngine| {
            let mut e = Encoder::new();
            mr.encode_state(&mut e);
            e.finish_with_handles()
        };
        let (bytes, handles) = encode(&rt.mr);
        let mut restored = MrEngine::with_trackers(vec![VmId(1)]);
        let mut d = Decoder::with_handles(&bytes, &handles);
        restored.restore_state(&mut d);
        assert!(d.is_exhausted());
        assert_eq!(restored.jobs.len(), 2);
        for (a, b) in rt.mr.jobs.values().zip(restored.jobs.values()) {
            assert_eq!(a.id, b.id);
            assert!(Rc::ptr_eq(&a.app, &b.app));
            assert!(Rc::ptr_eq(&a.input, &b.input));
            assert!(Rc::ptr_eq(&a.partitioner, &b.partitioner));
        }
        let (again, again_handles) = encode(&restored);
        assert_eq!(again, bytes);
        assert_eq!(again_handles.len(), handles.len());
    }
}
