//! Shuffle/sort bookkeeping and the reduce-side pipeline: per-map fetch
//! flows, the merge of the fetched sorted runs + real reduce execution,
//! and the replicated HDFS output write.
//!
//! Paper mechanism modelled: step 7 of the paper's execution flow — "the
//! worker who is assigned a reduce task ... reads the buffered data from
//! the local disks of the map workers, sorts it by the intermediate keys"
//! and reduces each group. As in Hadoop, each map's output for this reduce
//! is already sorted by key (a sealed [`Run`]), so the sort is a k-way
//! merge of those segments ([`for_each_group`]). Shuffle traffic crossing
//! VM (and Xen domain) boundaries is what separates the paper's normal vs.
//! cross-domain wordcount curves (Fig. 2).

use crate::job::{JobEvent, JobId};
use crate::run::{for_each_group, Run};
use crate::state::{
    tag_full, Partition, TaskPhase, PH_REDUCE_COMPUTE, PH_REDUCE_WRITE, PH_SHUFFLE,
};
use simcore::prelude::*;
use vcluster::cluster::VirtualCluster;
use vhdfs::hdfs::Hdfs;

use crate::engine::MrEngine;

impl MrEngine {
    pub(crate) fn reduce_started(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        jid: JobId,
        r: usize,
    ) {
        let job = self.jobs.get_mut(&jid.0).expect("unknown job");
        let vm = job.running_reduce_vm(r);
        // Shuffle: one fetch chain per map whose partition r is non-empty.
        let mut members: Vec<ChainSpec> = Vec::new();
        for m in 0..job.maps.len() {
            let Some(run) = job.map_outputs[m][r].as_ref() else { continue };
            if run.is_empty() {
                continue;
            }
            let bytes = run.bytes();
            let map_vm = job.maps[m].winner.expect("map ran somewhere");
            let chain = cluster
                .transfer(map_vm, vm, bytes as f64)
                .then(cluster.disk_write(vm, bytes as f64));
            members.push(chain);
        }
        job.reduces[r].shuffle_started_at = Some(engine.now());
        let ep = job.reduces[r].epoch;
        engine.start_batch(members, tag_full(jid, PH_SHUFFLE, 0, ep, r));
    }

    pub(crate) fn shuffle_done(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        jid: JobId,
        r: usize,
    ) {
        let job = self.jobs.get_mut(&jid.0).expect("unknown job");
        let vm = job.running_reduce_vm(r);
        if let Some(t0) = job.reduces[r].shuffle_started_at {
            engine.trace_span(
                "shuffle",
                "shuffle",
                vm.0,
                t0,
                &[("job", f64::from(jid.0)), ("task", r as f64)],
            );
        }
        // Merge all fetched runs by key and really reduce. The runs are
        // lent to the merge, not taken: they stay until the job finishes so
        // a failed reduce can re-run from them, as Hadoop re-fetches map
        // output that is still alive.
        let mut fetched: Vec<&mut Run> =
            job.map_outputs.iter_mut().filter_map(|parts| parts[r].as_mut()).collect();
        let segments = fetched.iter().filter(|run| !run.is_empty()).count() as u32;
        let in_bytes: u64 = fetched.iter().map(|run| run.bytes()).sum();
        let in_records = fetched.iter().map(|run| run.len() as u64).sum::<u64>();

        // Outputs live until the job finishes: one record per group is
        // what reduces emit, reserved once instead of grown by doubling.
        // The runs' group counts bound the groups from above, exactly when
        // no key is in two runs.
        let bound = fetched.iter().map(|run| run.group_count()).sum();
        let mut out = Partition::with_capacity(bound);
        let mut groups = 0;
        let app = job.app.as_ref();
        for_each_group(&mut fetched, |k, vals| {
            groups += 1;
            app.reduce(k, vals, &mut |ek, ev| out.push(ek, ev));
        });
        job.reduces[r].merged = [in_bytes, in_records, groups];

        let cost = app.cost();
        let sort_cycles =
            cost.sort_cpu_per_byte * in_bytes as f64 * f64::from(segments.max(2)).log2();
        let cycles = cost.reduce_cpu_per_byte * in_bytes as f64
            + cost.reduce_cpu_per_record * in_records as f64
            + sort_cycles;
        job.task_outputs[r] = Some(Box::new(out.seal()));
        let ep = job.reduces[r].epoch;
        engine.start_chain(cluster.compute(vm, cycles), tag_full(jid, PH_REDUCE_COMPUTE, 0, ep, r));
    }

    pub(crate) fn reduce_compute_done(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        hdfs: &mut Hdfs,
        jid: JobId,
        r: usize,
    ) {
        let (vm, bytes, path) = {
            let job = self.jobs.get(&jid.0).expect("unknown job");
            let vm = job.running_reduce_vm(r);
            let output = job.task_outputs[r].as_ref().expect("reduce output present");
            (vm, output.bytes, format!("{}/part-r-{r:05}", job.spec.output_path))
        };
        // A reduce re-run after a failure may find the partial output of
        // its killed predecessor; replace it, as Hadoop's output committer
        // discards uncommitted attempt output.
        if hdfs.stat(&path).is_some() {
            hdfs.delete(&path);
        }
        let ep = self.jobs.get(&jid.0).expect("unknown job").reduces[r].epoch;
        hdfs.write_file(
            engine,
            cluster,
            &path,
            bytes,
            vm,
            tag_full(jid, PH_REDUCE_WRITE, 0, ep, r),
        );
    }

    pub(crate) fn reduce_write_done(
        &mut self,
        engine: &mut Engine,
        jid: JobId,
        r: usize,
        events: &mut Vec<JobEvent>,
    ) {
        let (vm, finished) = {
            let job = self.jobs.get_mut(&jid.0).expect("unknown job");
            let vm = job.running_reduce_vm(r);
            job.reduces[r].phase = TaskPhase::Done;
            job.completed_reduces += 1;
            let [shuffle_bytes, input_records, input_groups] = job.reduces[r].merged;
            job.counters.shuffle_bytes += shuffle_bytes;
            job.counters.reduce_input_records += input_records;
            job.counters.reduce_input_groups += input_groups;
            let output = job.task_outputs[r].as_ref().expect("reduce output present");
            job.counters.output_bytes += output.bytes;
            job.counters.reduce_output_records += output.len() as u64;
            if let Some(t0) = job.reduces[r].started_at {
                engine.trace_span(
                    "reduce",
                    "reduce",
                    vm.0,
                    t0,
                    &[("job", f64::from(jid.0)), ("task", r as f64)],
                );
            }
            (vm, job.completed_reduces == job.reduces.len())
        };
        self.slots.release_reduce(vm);
        events.push(JobEvent::ReduceDone(jid, r));
        if finished {
            let result = self.finish_job(engine, jid);
            events.push(JobEvent::JobDone(Box::new(result)));
        }
    }
}
