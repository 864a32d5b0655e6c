//! Map-side task execution: split read, real map-function invocation,
//! partition/sort/combine/spill, and the map-only direct-to-HDFS output
//! path.
//!
//! Paper mechanism modelled: steps 5–6 of the paper's execution flow —
//! "the master will assign the map tasks ... the worker who is assigned a
//! map task reads the contents of the corresponding input split" and runs
//! the user's map function; intermediate results are partitioned, sorted
//! by key (each partition sealed into a [`Run`] of key groups, as Hadoop
//! 0.20 sorts a spill) and optionally combined before spilling to the VM's
//! (NFS-backed) disk, which is where the paper's NFS-bottleneck conclusion
//! bites.

use crate::job::{JobEvent, JobId};
use crate::run::{combine_run, release_grouping, Run, RunBuilder};
use crate::state::{tag_full, Partition, TaskPhase, PH_MAP_COMPUTE, PH_MAP_READ, PH_MAP_WRITE};
use crate::types::{records_size, K, V};
use simcore::prelude::*;
use vcluster::cluster::{VirtualCluster, VmId};
use vhdfs::hdfs::Hdfs;

use crate::engine::MrEngine;

impl MrEngine {
    /// Ends `(task, attempt)` of `jid`, releasing its map slot if it still
    /// holds one: a losing attempt whose tracker was lost holds none, and
    /// its events drain here on a tracker that may have rejoined since.
    pub(crate) fn release_map_slot(&mut self, jid: JobId, m: usize, attempt: usize) {
        let job = self.jobs.get_mut(&jid.0).expect("unknown job");
        job.maps[m].release(attempt, &mut self.slots);
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
        let job = self.jobs.get(&jid.0).expect("unknown job");
        let (block, task) = (job.splits[m].block, &job.maps[m]);
        let vm = task.attempt_vm[attempt].expect("attempt ran somewhere");
        let (done, ep) = (task.phase == TaskPhase::Done, task.epoch);
        if done {
            // The other attempt already won; abandon this one.
            self.release_map_slot(jid, m, attempt);
            return;
        }
        match block {
            Some(block) => {
                // Simulated HDFS read; records materialize at completion.
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
        if self.jobs.get(&jid.0).expect("unknown job").maps[m].phase == TaskPhase::Done {
            self.release_map_slot(jid, m, attempt);
            return;
        }
        let job = self.jobs.get_mut(&jid.0).expect("unknown job");
        let vm = job.maps[m].attempt_vm[attempt].expect("attempt ran somewhere");
        // Really run the user's map function, over the lent split. What it
        // emits goes where it will stay: a reduce job's records into the
        // map's one run builder (the emitted `K` dies here), a map-only
        // job's into the task's output.
        let n_red = job.num_reduces();
        let mut builder = RunBuilder::default();
        let mut output = Partition::default();
        let mut out_records = 0u64;
        let (mut in_records, mut in_bytes) = (0, job.splits[m].bytes);
        let app = job.app.as_ref();
        job.input.with_split(m, &mut |records| {
            in_records = records.len() as u64;
            builder.expected = records.len();
            if in_bytes == 0 {
                in_bytes = records_size(records);
            }
            let mut emit = |ek: K, ev: V| {
                out_records += 1;
                if n_red == 0 {
                    output.push(ek, ev);
                } else {
                    builder.push(&ek, ev);
                }
            };
            for (k, v) in records {
                app.map(k, v, &mut emit);
            }
        });

        let cost = app.cost();
        let cycles =
            cost.map_cpu_per_byte * in_bytes as f64 + cost.map_cpu_per_record * in_records as f64;

        // Every attempt of a map emits the same records: the first to run
        // keeps its output and counters, and a speculative twin or a re-run
        // after a lost tracker adds neither, as Hadoop counts a map once.
        let first = job.map_outputs[m].iter().all(Option::is_none)
            && (!job.map_only() || job.task_outputs[m].is_none());
        let mut out_bytes = 0;
        let mut combined_records = 0;
        let spill_bytes;
        if job.map_only() {
            // Map-only: emitted records ARE the output; the compute-done
            // handler writes them to HDFS.
            let output = output.seal();
            out_bytes = output.bytes;
            spill_bytes = 0;
            job.task_outputs[m].get_or_insert_with(|| Box::new(output));
        } else {
            // One sorted run per reduce, the partitioner asked once per key,
            // each optionally combined, then spilled to local (NFS) disk.
            let (n, partitioner) = (n_red as u32, job.partitioner.as_ref());
            let sealed = builder.seal(n_red, |k| partitioner.partition(k, n).min(n - 1) as usize);
            let use_combiner = job.spec.config.use_combiner;
            let stored: Vec<Option<Run>> = sealed
                .into_iter()
                .map(|run| {
                    out_bytes += run.bytes();
                    Some(if use_combiner { combine_run(app, run) } else { run })
                })
                .collect();
            let spilled = || stored.iter().flatten();
            combined_records = spilled().map(|run| run.len() as u64).sum::<u64>();
            spill_bytes = spilled().map(Run::bytes).sum();
            if first {
                job.map_outputs[m] = stored;
            }
        }
        if first {
            let c = &mut job.counters;
            c.combine_output_records += combined_records;
            c.map_input_records += in_records;
            c.map_input_bytes += in_bytes;
            c.map_output_records += out_records;
            c.map_output_bytes += out_bytes;
        }

        let mut chain = cluster.compute(vm, cycles);
        if spill_bytes > 0 {
            chain = chain.then(cluster.disk_write(vm, spill_bytes as f64));
        }
        let ep = self.jobs.get(&jid.0).expect("unknown job").maps[m].epoch;
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
            let map_only = job.map_only();
            let task = &mut job.maps[m];
            let vm = task.attempt_vm[attempt].expect("attempt ran somewhere");
            // Some attempt already won: it is done, or (map-only) it
            // claimed the HDFS write.
            if task.winner.is_some() {
                Outcome::Loser
            } else if map_only {
                // First attempt to finish computing claims the HDFS write.
                task.winner = Some(vm);
                let output = job.task_outputs[m].as_ref().expect("map output present");
                Outcome::MapOnlyWrite {
                    vm,
                    bytes: output.bytes,
                    path: format!("{}/part-m-{m:05}", job.spec.output_path),
                }
            } else {
                task.phase = TaskPhase::Done;
                task.winner = Some(vm);
                let started = task.started_at;
                job.completed_maps += 1;
                if let Some(t0) = started {
                    job.map_durations.push(engine.now().saturating_since(t0).as_secs_f64());
                }
                let done_all = job.completed_maps == job.maps.len();
                if done_all {
                    job.map_phase_done = Some(engine.now());
                    release_grouping();
                }
                Outcome::Winner { done_all, vm, started }
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
                let ep = self.jobs.get(&jid.0).expect("unknown job").maps[m].epoch;
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
            let task = &mut job.maps[m];
            task.phase = TaskPhase::Done;
            let vm = task.winner.expect("write completion without claim");
            let started = task.started_at;
            job.completed_maps += 1;
            if let Some(t0) = started {
                job.map_durations.push(engine.now().saturating_since(t0).as_secs_f64());
                engine.trace_span(
                    "map",
                    "map",
                    vm.0,
                    t0,
                    &[("job", f64::from(jid.0)), ("task", m as f64)],
                );
            }
            let output = job.task_outputs[m].as_ref().expect("map output present");
            job.counters.output_bytes += output.bytes;
            job.counters.reduce_output_records += output.len() as u64;
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
