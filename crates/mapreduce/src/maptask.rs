//! Map-side task execution: split read, real map-function invocation,
//! partition/combine/spill, and the map-only direct-to-HDFS output path.
//!
//! Paper mechanism modelled: steps 5–6 of the paper's execution flow —
//! "the master will assign the map tasks ... the worker who is assigned a
//! map task reads the contents of the corresponding input split" and runs
//! the user's map function; intermediate results are partitioned (and
//! optionally combined) before spilling to the VM's (NFS-backed) disk,
//! which is where the paper's NFS-bottleneck conclusion bites.

use crate::app::run_combiner;
use crate::job::{JobEvent, JobId};
use crate::state::{tag_full, Partition, TaskPhase, PH_MAP_COMPUTE, PH_MAP_READ, PH_MAP_WRITE};
use crate::types::{records_size, Record};
use simcore::prelude::*;
use vcluster::cluster::{VirtualCluster, VmId};
use vhdfs::hdfs::Hdfs;

use crate::engine::MrEngine;

impl MrEngine {
    /// Releases the map slot held by `(task, attempt)` of `jid`.
    pub(crate) fn release_map_slot(&mut self, jid: JobId, m: usize, attempt: usize) {
        let job = self.jobs.get_mut(&jid.0).expect("unknown job");
        debug_assert!(job.attempt_active[m][attempt], "double slot release");
        job.attempt_active[m][attempt] = false;
        let vm = job.map_attempt_vm[m][attempt].expect("attempt ran somewhere");
        if let Some(held) = self.used_map_slots.get_mut(&vm.0) {
            *held -= 1;
        }
    }

    pub(crate) fn map_started(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        hdfs: &mut Hdfs,
        jid: JobId,
        attempt: usize,
        m: usize,
    ) {
        let (block, vm, done) = {
            let job = self.jobs.get(&jid.0).expect("unknown job");
            (
                job.splits[m].block,
                job.map_attempt_vm[m][attempt].expect("attempt ran somewhere"),
                job.maps[m] == TaskPhase::Done,
            )
        };
        if done {
            // The other attempt already won; abandon this one.
            self.release_map_slot(jid, m, attempt);
            return;
        }
        match block {
            Some(block) => {
                // Simulated HDFS read; records materialize at completion.
                let ep = self.jobs.get(&jid.0).expect("unknown job").map_epoch[m];
                hdfs.read_block(
                    engine,
                    cluster,
                    block,
                    vm,
                    tag_full(jid, PH_MAP_READ, attempt, ep, m),
                );
            }
            None => {
                // Generator-fed map: no input I/O, go straight to execute.
                self.execute_map(engine, cluster, jid, attempt, m);
            }
        }
    }

    /// Runs the real map function and starts the compute + spill chain.
    pub(crate) fn execute_map(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        jid: JobId,
        attempt: usize,
        m: usize,
    ) {
        if self.jobs.get(&jid.0).expect("unknown job").maps[m] == TaskPhase::Done {
            self.release_map_slot(jid, m, attempt);
            return;
        }
        let job = self.jobs.get_mut(&jid.0).expect("unknown job");
        let vm = job.map_attempt_vm[m][attempt].expect("attempt ran somewhere");
        // Really run the user's map function, over the lent split.
        let mut emitted: Vec<Record> = Vec::new();
        let (mut in_records, mut in_bytes) = (0, job.splits[m].bytes);
        let app = job.app.as_ref();
        job.input.with_split(m, &mut |records| {
            in_records = records.len() as u64;
            if in_bytes == 0 {
                in_bytes = records_size(records);
            }
            for (k, v) in records {
                app.map(k, v, &mut |ek, ev| emitted.push((ek, ev)));
            }
        });
        let out_records = emitted.len() as u64;

        let cost = app.cost();
        let cycles =
            cost.map_cpu_per_byte * in_bytes as f64 + cost.map_cpu_per_record * in_records as f64;

        let out_bytes;
        let spill_bytes;
        if job.map_only() {
            // Map-only: emitted records ARE the output; the compute-done
            // handler writes them to HDFS.
            let output = Partition::seal(emitted);
            out_bytes = output.bytes;
            spill_bytes = 0;
            job.map_outputs[m] = vec![Some(output)];
        } else {
            // Partition, optionally combine, then spill to local (NFS)
            // disk. Two passes, so that every partition is allocated once
            // at its exact length and sized while its records are at hand.
            let n_red = job.num_reduces();
            let mut lens = vec![0usize; n_red];
            let mut bytes = vec![0u64; n_red];
            let ids: Vec<u32> = emitted
                .iter()
                .map(|(k, v)| {
                    let p = job.partitioner.partition(k, n_red as u32).min(n_red as u32 - 1);
                    lens[p as usize] += 1;
                    bytes[p as usize] += k.size_bytes() + v.size_bytes();
                    p
                })
                .collect();
            let mut parts: Vec<Vec<Record>> = lens.into_iter().map(Vec::with_capacity).collect();
            for (record, p) in emitted.into_iter().zip(ids) {
                parts[p as usize].push(record);
            }
            out_bytes = bytes.iter().sum();
            let use_combiner = job.spec.config.use_combiner;
            let mut combined_records = 0u64;
            let mut total_bytes = 0u64;
            let stored: Vec<Option<Partition>> = parts
                .into_iter()
                .zip(bytes)
                .map(|(records, bytes)| {
                    let p = if use_combiner {
                        Partition::seal(run_combiner(app, records))
                    } else {
                        debug_assert_eq!(bytes, records_size(&records));
                        Partition { records, bytes }
                    };
                    combined_records += p.records.len() as u64;
                    total_bytes += p.bytes;
                    Some(p)
                })
                .collect();
            job.counters.combine_output_records += combined_records;
            spill_bytes = total_bytes;
            job.map_outputs[m] = stored;
        }
        job.counters.map_input_records += in_records;
        job.counters.map_input_bytes += in_bytes;
        job.counters.map_output_records += out_records;
        job.counters.map_output_bytes += out_bytes;

        let mut chain = cluster.compute(vm, cycles);
        if spill_bytes > 0 {
            chain = chain.then(cluster.disk_write(vm, spill_bytes as f64));
        }
        let ep = self.jobs.get(&jid.0).expect("unknown job").map_epoch[m];
        engine.start_chain(chain, tag_full(jid, PH_MAP_COMPUTE, attempt, ep, m));
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn map_compute_done(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        hdfs: &mut Hdfs,
        jid: JobId,
        attempt: usize,
        m: usize,
        events: &mut Vec<JobEvent>,
    ) {
        enum Outcome {
            Loser,
            Winner { done_all: bool, vm: VmId, started: Option<SimTime> },
            MapOnlyWrite { vm: VmId, bytes: u64, path: String },
        }
        let outcome = {
            let job = self.jobs.get_mut(&jid.0).expect("unknown job");
            let vm = job.map_attempt_vm[m][attempt].expect("attempt ran somewhere");
            if job.maps[m] == TaskPhase::Done || (job.map_only() && job.write_claimed[m]) {
                Outcome::Loser
            } else if job.map_only() {
                // First attempt to finish computing claims the HDFS write.
                job.write_claimed[m] = true;
                job.map_vm[m] = Some(vm);
                let output = job.map_outputs[m][0].as_ref().expect("map output present");
                Outcome::MapOnlyWrite {
                    vm,
                    bytes: output.bytes,
                    path: format!("{}/part-m-{m:05}", job.spec.output_path),
                }
            } else {
                job.maps[m] = TaskPhase::Done;
                job.map_vm[m] = Some(vm);
                job.completed_maps += 1;
                if let Some(t0) = job.map_started_at[m] {
                    job.map_durations.push(engine.now().saturating_since(t0).as_secs_f64());
                }
                let done_all = job.completed_maps == job.maps.len();
                if done_all {
                    job.map_phase_done = Some(engine.now());
                }
                Outcome::Winner { done_all, vm, started: job.map_started_at[m] }
            }
        };
        match outcome {
            Outcome::Loser => {
                self.release_map_slot(jid, m, attempt);
            }
            Outcome::MapOnlyWrite { vm, bytes, path } => {
                // Write this map's output straight to HDFS (output
                // replication follows dfs.replication, as in Hadoop). A
                // re-run after a failure replaces the killed attempt's
                // uncommitted output.
                if hdfs.stat(&path).is_some() {
                    hdfs.delete(&path);
                }
                let ep = self.jobs.get(&jid.0).expect("unknown job").map_epoch[m];
                hdfs.write_file(
                    engine,
                    cluster,
                    &path,
                    bytes,
                    vm,
                    tag_full(jid, PH_MAP_WRITE, attempt, ep, m),
                );
            }
            Outcome::Winner { done_all, vm, started } => {
                if let Some(t0) = started {
                    engine.trace_span(
                        "map",
                        "map",
                        vm.0,
                        t0,
                        &[("job", f64::from(jid.0)), ("task", m as f64)],
                    );
                }
                self.release_map_slot(jid, m, attempt);
                events.push(JobEvent::MapDone(jid, m));
                if done_all {
                    events.push(JobEvent::MapPhaseDone(jid));
                }
            }
        }
    }

    pub(crate) fn map_write_done(
        &mut self,
        engine: &mut Engine,
        jid: JobId,
        attempt: usize,
        m: usize,
        events: &mut Vec<JobEvent>,
    ) {
        let finished = {
            let job = self.jobs.get_mut(&jid.0).expect("unknown job");
            debug_assert!(job.write_claimed[m], "write completion without claim");
            job.maps[m] = TaskPhase::Done;
            job.completed_maps += 1;
            let vm = job.map_vm[m].expect("winning attempt recorded");
            if let Some(t0) = job.map_started_at[m] {
                job.map_durations.push(engine.now().saturating_since(t0).as_secs_f64());
            }
            if let Some(t0) = job.map_started_at[m] {
                engine.trace_span(
                    "map",
                    "map",
                    vm.0,
                    t0,
                    &[("job", f64::from(jid.0)), ("task", m as f64)],
                );
            }
            let output = job.map_outputs[m][0].as_ref().expect("map output present");
            job.counters.output_bytes += output.bytes;
            job.counters.reduce_output_records += output.records.len() as u64;
            let finished = job.completed_maps == job.maps.len();
            if finished {
                job.map_phase_done = Some(engine.now());
            }
            finished
        };
        self.release_map_slot(jid, m, attempt);
        events.push(JobEvent::MapDone(jid, m));
        if finished {
            events.push(JobEvent::MapPhaseDone(jid));
            let result = self.finish_job(engine, jid);
            events.push(JobEvent::JobDone(Box::new(result)));
        }
    }
}
