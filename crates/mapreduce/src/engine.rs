//! The JobTracker: event routing, the job lifecycle state machine, and
//! slot accounting against the [`SlotLedger`]. Placement decisions live in
//! [`crate::scheduler`]; map execution in the private `maptask` module;
//! the shuffle/sort/reduce pipeline in `shuffle`; straggler backup
//! attempts in `speculation`; tracker-failure recovery in `recovery`.
//!
//! Paper mechanism modelled: the Hadoop Module's master VM — JobTracker
//! plus namenode on VM 0 — driving TaskTrackers on every worker VM.
//! Timing and data are computed together: when a map task's (simulated)
//! input read completes, the engine *actually runs* the application's map
//! function over the split's records, measures the intermediate data it
//! emitted, and sizes the subsequent compute/spill/shuffle flows from those
//! measurements. The result is a simulation whose outputs are bit-for-bit
//! real (TeraSort really sorts; k-means really converges) while elapsed
//! time comes from the fluid contention model.
//!
//! Faithfulness notes (vs. Hadoop 0.20):
//! * task launch cost (heartbeat wait + JVM spawn) is one constant,
//!   [`crate::config::TASK_STARTUP`] — the dominant small-job term the
//!   paper's MRBench probes;
//! * reduces are scheduled after the map phase completes (no shuffle
//!   overlap); this shifts absolute times but preserves every comparative
//!   shape the paper reports;
//! * map output spills once (`io.sort.mb` never overflows mid-task).

use crate::app::MapReduceApp;
use crate::config::{ASSIGNMENT_STAGGER, TASK_STARTUP};
use crate::counters::Counters;
use crate::input::InputFormat;
use crate::job::{JobEvent, JobId, JobResult, JobSpec};
use crate::scheduler::{
    Assignment, JobView, SchedulerPolicy, SchedulerView, SlotLedger, TaskKind, TrackerInfo,
};
use crate::speculation::SPECULATION_HEARTBEAT;
use crate::state::{
    decode, tag, tag_full, JobState, MapTask, Partition, ReduceTask, SplitInfo, TaskPhase,
    PH_IGNORE, PH_MAP_COMPUTE, PH_MAP_READ, PH_MAP_STARTUP, PH_MAP_WRITE, PH_REDUCE_COMPUTE,
    PH_REDUCE_STARTUP, PH_REDUCE_WRITE, PH_REQUEUE_MAP, PH_REQUEUE_REDUCE, PH_SHUFFLE,
    PH_SPECULATE,
};
use simcore::owners;
use simcore::prelude::*;
use std::collections::BTreeMap;
use std::rc::Rc;
use vcluster::cluster::{VirtualCluster, VmId};
use vhdfs::hdfs::{Hdfs, HdfsCompletion};

/// The MapReduce engine (JobTracker + all TaskTrackers).
pub struct MrEngine {
    /// The live TaskTrackers and the slots each holds.
    pub(crate) slots: SlotLedger,
    /// Unfinished jobs; id order is submission order, which every walk
    /// over the table (views, recovery, snapshots) relies on.
    pub(crate) jobs: BTreeMap<u32, JobState>,
    pub(crate) next_job: u32,
    pub(crate) policy: SchedulerPolicy,
}

impl std::fmt::Debug for MrEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MrEngine")
            .field("trackers", &self.slots.trackers().len())
            .field("jobs", &self.jobs.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl MrEngine {
    /// A TaskTracker on every datanode of `hdfs` (the JobTracker shares
    /// VM 0 with the namenode, as in the paper's master VM), scheduling
    /// with the default [`SchedulerPolicy::Fifo`].
    pub fn new(hdfs: &Hdfs) -> Self {
        Self::with_trackers(hdfs.datanodes().to_vec())
    }

    /// A JobTracker over an explicit TaskTracker set — disaggregated
    /// layouts run TaskTrackers on VMs that are *not* datanodes
    /// (DESIGN.md §17); the colocated default keeps trackers == datanodes.
    /// Schedules with the default [`SchedulerPolicy::Fifo`] until
    /// [`MrEngine::set_policy`].
    ///
    /// # Panics
    /// If `trackers` is empty.
    pub fn with_trackers(trackers: Vec<VmId>) -> Self {
        assert!(!trackers.is_empty(), "cluster too small: no TaskTrackers");
        MrEngine {
            slots: SlotLedger::new(trackers),
            jobs: BTreeMap::new(),
            next_job: 0,
            policy: SchedulerPolicy::default(),
        }
    }

    /// The active scheduling policy.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// Switches the scheduling policy. Takes effect from the next
    /// scheduling round; already-placed tasks are unaffected.
    pub fn set_policy(&mut self, policy: SchedulerPolicy) {
        self.policy = policy;
    }

    /// TaskTracker VMs.
    pub fn trackers(&self) -> &[VmId] {
        self.slots.trackers()
    }

    /// Number of unfinished jobs.
    pub fn active_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Live trackers currently holding at least one map or reduce slot,
    /// busiest first (ties to the lowest id). Useful for tests and
    /// failure-injection scenarios that need a victim that is mid-job.
    pub fn busy_trackers(&self) -> Vec<VmId> {
        self.slots.busy()
    }

    /// Live counters of an unfinished job (`None` once finished/unknown).
    pub fn job_counters(&self, id: JobId) -> Option<&Counters> {
        self.jobs.get(&id.0).map(|j| &j.counters)
    }

    /// Maps of job `id` currently running both a primary and a speculative
    /// attempt, as `(map_index, primary_vm, backup_vm)`. For tests and
    /// failure-injection scenarios that must hit a task mid-speculation.
    pub fn speculating(&self, id: JobId) -> Vec<(usize, VmId, VmId)> {
        let Some(job) = self.jobs.get(&id.0) else { return Vec::new() };
        job.maps
            .iter()
            .enumerate()
            .filter(|(_, task)| task.active == [true; 2])
            .filter_map(|(m, task)| match task.attempt_vm {
                [Some(primary), Some(backup)] => Some((m, primary, backup)),
                _ => None,
            })
            .collect()
    }

    /// Submits a job. For HDFS-fed jobs, the input file must already exist
    /// and its block count must equal `input.split_count()`.
    ///
    /// Completion arrives as a [`JobEvent::JobDone`] from a later
    /// [`MrEngine::on_wakeup`] / [`MrEngine::on_hdfs_done`] call.
    pub fn submit(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        hdfs: &mut Hdfs,
        spec: JobSpec,
        app: Box<dyn MapReduceApp>,
        input: Box<dyn InputFormat>,
    ) -> JobId {
        // Shared ownership internally (snapshots carry these into forks);
        // the public signature stays `Box` so callers build jobs as before.
        let app: std::rc::Rc<dyn MapReduceApp> = Rc::from(app);
        let input: std::rc::Rc<dyn InputFormat> = Rc::from(input);
        let splits: Vec<SplitInfo> = match &spec.input_path {
            Some(path) => {
                // An exact path is a single file; otherwise treat it as a
                // directory of parts (a previous job's `part-r-*` output).
                let locs = hdfs
                    .block_locations(path)
                    .or_else(|| hdfs.dir_block_locations(path))
                    .unwrap_or_else(|| panic!("job input not in HDFS: {path}"));
                assert_eq!(
                    locs.len(),
                    input.split_count(),
                    "input format split count must match HDFS block count for {path}"
                );
                locs.into_iter()
                    .map(|(block, bytes, locations)| SplitInfo {
                        block: Some(block),
                        bytes,
                        locations,
                    })
                    .collect()
            }
            None => (0..input.split_count())
                .map(|i| SplitInfo {
                    block: None,
                    bytes: input.split_bytes(i),
                    locations: Vec::new(),
                })
                .collect(),
        };

        let id = JobId(self.next_job);
        self.next_job += 1;
        let n_maps = splits.len();
        let n_reduces = spec.config.num_reduces as usize;
        let n_outputs = if n_reduces == 0 { n_maps } else { n_reduces };
        let partitioner: Rc<dyn crate::app::Partitioner> = Rc::from(app.partitioner());
        let state = JobState {
            id,
            spec,
            app,
            input,
            partitioner,
            splits,
            maps: vec![MapTask::default(); n_maps],
            reduces: vec![ReduceTask::default(); n_reduces],
            map_durations: Vec::new(),
            pending_maps: (0..n_maps).collect(),
            pending_reduces: (0..n_reduces).collect(),
            map_outputs: (0..n_maps).map(|_| (0..n_reduces).map(|_| None).collect()).collect(),
            task_outputs: (0..n_outputs).map(|_| None).collect(),
            completed_maps: 0,
            completed_reduces: 0,
            counters: Counters::default(),
            submitted: engine.now(),
            map_phase_done: None,
        };
        let arm_heartbeat = state.spec.config.speculative;
        self.jobs.insert(id.0, state);
        if arm_heartbeat {
            engine.start_chain(
                ChainSpec::new().delay(SPECULATION_HEARTBEAT),
                tag(id, PH_SPECULATE, 0),
            );
        }
        self.schedule(engine, cluster);
        id
    }

    // ----- scheduling -----------------------------------------------------

    /// Builds the immutable [`SchedulerView`] snapshot and hands it to `f`.
    /// All placement flows through here.
    /// The tracker and topology tables and the per-job `map_locations`
    /// index are built per call; queues, configs, replica lists and the
    /// slot ledger are lent.
    pub(crate) fn with_view<R>(
        &self,
        cluster: &VirtualCluster,
        f: impl FnOnce(&SchedulerView) -> R,
    ) -> R {
        let trackers: Vec<TrackerInfo> = self
            .slots
            .trackers()
            .iter()
            .map(|&vm| TrackerInfo { vm, host: cluster.host_of(vm), rack: cluster.rack_of(vm) })
            .collect();
        let vm_hosts: Vec<vcluster::cluster::HostId> =
            cluster.vms().map(|v| cluster.host_of(v)).collect();
        let vm_racks: Vec<vcluster::topology::RackId> =
            cluster.vms().map(|v| cluster.rack_of(v)).collect();
        let jobs: Vec<JobView> = self
            .jobs
            .iter()
            .map(|(&id, job)| JobView {
                id,
                config: job.config(),
                pending_maps: &job.pending_maps,
                pending_reduces: &job.pending_reduces,
                map_locations: job.splits.iter().map(|s| s.locations.as_slice()).collect(),
                reduces_open: job.map_phase_done.is_some(),
                partition_bytes: job.partition_bytes(),
            })
            .collect();
        let view = SchedulerView {
            trackers: &trackers,
            vm_hosts: &vm_hosts,
            vm_racks: &vm_racks,
            racks: cluster.rack_count(),
            slots: &self.slots,
            jobs,
        };
        f(&view)
    }

    /// One scheduling round, run after every event that can change what
    /// is placeable (submit, task progress, re-queue timer, tracker loss or
    /// rejoin). A heartbeat with nothing to hand out is answered with
    /// nothing: the scheduler is asked only when some job has a pending map
    /// or an open pending reduce (read off the job table, not a counter
    /// that could drift). Its placements are applied in order (the k-th
    /// assignment of a wave waits k heartbeats — the JobTracker hands out
    /// one task per TT heartbeat); then the straggler check runs for the
    /// jobs that asked for speculation.
    pub(crate) fn schedule(&mut self, engine: &mut Engine, cluster: &VirtualCluster) {
        let placeable = self.jobs.values().any(|j| {
            !j.pending_maps.is_empty()
                || (j.map_phase_done.is_some() && !j.pending_reduces.is_empty())
        });
        if placeable {
            let assignments = self.with_view(cluster, |view| self.policy.assign(view));
            let mut wave: u64 = 0;
            for a in assignments {
                self.apply_assignment(engine, cluster, a, &mut wave);
            }
        }
        let speculative: Vec<u32> =
            self.jobs.iter().filter(|(_, j)| j.config().speculative).map(|(&id, _)| id).collect();
        for jid in speculative {
            self.maybe_speculate(engine, cluster, jid);
        }
    }

    /// Applies one placement, re-validating it against live state (the
    /// policy worked from a snapshot; a stale decision is dropped — the
    /// task stays pending for the next round).
    fn apply_assignment(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        a: Assignment,
        wave: &mut u64,
    ) {
        let Some(job) = self.jobs.get_mut(&a.job) else { return };
        match a.kind {
            TaskKind::Map(m) => {
                let Some(pos) = job.pending_maps.iter().position(|&x| x == m) else { return };
                if self.slots.free_map(a.vm) == 0 {
                    return;
                }
                self.slots.take_map(a.vm);
                job.pending_maps.remove(pos);
                let task = &mut job.maps[m];
                task.phase = TaskPhase::Running(a.vm);
                task.attempt_vm[0] = Some(a.vm);
                task.active[0] = true;
                task.started_at = Some(engine.now());
                job.counters.launched_maps += 1;
                let locations = &job.splits[m].locations;
                if locations.contains(&a.vm) {
                    job.counters.data_local_maps += 1;
                } else if locations.iter().any(|&l| cluster.host_of(l) == cluster.host_of(a.vm)) {
                    job.counters.rack_local_maps += 1;
                } else if cluster.rack_count() > 1
                    && locations.iter().any(|&l| cluster.rack_of(l) == cluster.rack_of(a.vm))
                {
                    // Same rack, different host: still counts as
                    // rack-local in Hadoop's ledger (the tier the flat
                    // model could never hit).
                    job.counters.rack_local_maps += 1;
                }
                let ep = job.maps[m].epoch;
                engine.start_chain(
                    Self::startup_chain(cluster, a.vm, *wave),
                    tag_full(JobId(a.job), PH_MAP_STARTUP, 0, ep, m),
                );
                *wave += 1;
            }
            TaskKind::Reduce(r) => {
                if job.map_phase_done.is_none() {
                    return;
                }
                let Some(pos) = job.pending_reduces.iter().position(|&x| x == r) else { return };
                if self.slots.free_reduce(a.vm) == 0 {
                    return;
                }
                self.slots.take_reduce(a.vm);
                job.pending_reduces.remove(pos);
                let task = &mut job.reduces[r];
                task.phase = TaskPhase::Running(a.vm);
                task.started_at = Some(engine.now());
                job.counters.launched_reduces += 1;
                let ep = task.epoch;
                engine.start_chain(
                    Self::startup_chain(cluster, a.vm, *wave),
                    tag_full(JobId(a.job), PH_REDUCE_STARTUP, 0, ep, r),
                );
                *wave += 1;
            }
        }
    }

    /// Task launch: the heartbeat/stagger wait is pure latency, but the
    /// JVM spawn half of [`TASK_STARTUP`] burns real guest CPU — 30 task
    /// JVMs starting across a consolidated host contend, which is part of
    /// the virtualization overhead the paper measures.
    pub(crate) fn startup_chain(cluster: &VirtualCluster, vm: VmId, wave: u64) -> ChainSpec {
        let half = TASK_STARTUP / 2;
        let spawn_cycles = half.as_secs_f64() * cluster.spec().host.core_hz;
        ChainSpec::new()
            .delay(half + ASSIGNMENT_STAGGER * wave)
            .then(cluster.compute(vm, spawn_cycles))
    }

    // ----- event handling ---------------------------------------------------

    /// Routes an `owners::MAPREDUCE` wakeup (startup timers, compute
    /// chains, shuffle batches). Returns any job progress events.
    pub fn on_wakeup(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        hdfs: &mut Hdfs,
        wakeup: &Wakeup,
    ) -> Vec<JobEvent> {
        let t = wakeup.tag();
        if t.owner != owners::MAPREDUCE {
            return Vec::new();
        }
        // Shuffle batch members surface individually; the batch join is
        // what we act on. (A timer is a tracker-timeout re-queue, see
        // `recovery`.)
        if let Wakeup::Activity { batch, .. } = wakeup {
            if batch.is_some() || decode(t).1 == PH_IGNORE {
                return Vec::new();
            }
        }
        self.dispatch(engine, cluster, hdfs, t)
    }

    /// Routes an HDFS completion whose client tag belongs to this engine.
    pub fn on_hdfs_done(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        hdfs: &mut Hdfs,
        completion: &HdfsCompletion,
    ) -> Vec<JobEvent> {
        debug_assert_eq!(completion.client_tag.owner, owners::MAPREDUCE);
        self.dispatch(engine, cluster, hdfs, completion.client_tag)
    }

    fn dispatch(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        hdfs: &mut Hdfs,
        t: Tag,
    ) -> Vec<JobEvent> {
        let (jid, phase, attempt, epoch, task) = decode(t);
        let Some(job) = self.jobs.get(&jid.0) else {
            // A losing speculative attempt draining after its job finished.
            return Vec::new();
        };
        // Events from attempts killed by a tracker failure carry a stale
        // epoch: swallow them (their state was already repaired).
        let current = match phase {
            PH_MAP_STARTUP | PH_MAP_READ | PH_MAP_COMPUTE | PH_MAP_WRITE | PH_REQUEUE_MAP => {
                Some(job.maps[task].epoch)
            }
            PH_REDUCE_STARTUP | PH_SHUFFLE | PH_REDUCE_COMPUTE | PH_REDUCE_WRITE
            | PH_REQUEUE_REDUCE => Some(job.reduces[task].epoch),
            _ => None,
        };
        if current.is_some_and(|current| current != epoch) {
            self.schedule(engine, cluster);
            return Vec::new();
        }
        let mut events = Vec::new();
        match phase {
            PH_MAP_STARTUP => self.map_started(engine, cluster, hdfs, jid, attempt, task),
            PH_MAP_READ => self.execute_map(engine, cluster, jid, attempt, task),
            PH_MAP_COMPUTE => {
                self.map_compute_done(engine, cluster, hdfs, jid, attempt, task, &mut events)
            }
            PH_MAP_WRITE => self.map_write_done(engine, jid, attempt, task, &mut events),
            PH_REDUCE_STARTUP => self.reduce_started(engine, cluster, jid, task),
            PH_SHUFFLE => self.shuffle_done(engine, cluster, jid, task),
            PH_REDUCE_COMPUTE => self.reduce_compute_done(engine, cluster, hdfs, jid, task),
            PH_REDUCE_WRITE => self.reduce_write_done(engine, jid, task, &mut events),
            PH_SPECULATE => {
                // Job still alive (checked above): re-arm and let the
                // post-dispatch schedule() run the straggler check.
                engine.start_chain(
                    ChainSpec::new().delay(SPECULATION_HEARTBEAT),
                    tag(jid, PH_SPECULATE, 0),
                );
            }
            PH_REQUEUE_MAP => self.requeue_map_ready(jid, task),
            PH_REQUEUE_REDUCE => self.requeue_reduce_ready(jid, task),
            other => panic!("unknown MapReduce phase code {other}"),
        }
        self.schedule(engine, cluster);
        events
    }

    pub(crate) fn finish_job(&mut self, engine: &mut Engine, jid: JobId) -> JobResult {
        let mut job = self.jobs.remove(&jid.0).expect("unknown job");
        // A losing speculative attempt still in flight would drain after
        // the job is gone and be swallowed without ever returning its
        // slot: release every still-active attempt now.
        for task in &mut job.maps {
            task.release_all(&mut self.slots);
        }
        let finished = engine.now();
        let map_done = job.map_phase_done.unwrap_or(finished);
        // The map output has been reduced; it must not sit beside the
        // flattened copy of the task outputs.
        job.map_outputs = Vec::new();
        // Flatten output records in task-index order: partition 0's records
        // first, then partition 1's, ... (map index order for map-only
        // jobs). With a total-order partitioner this makes `outputs`
        // globally sorted — exactly TeraValidate's contract.
        let parts: Vec<Partition> =
            job.task_outputs.into_iter().map(|p| p.expect("task output present")).collect();
        let partition_sizes: Vec<usize> = parts.iter().map(|p| p.records.len()).collect();
        let mut outputs = Vec::with_capacity(partition_sizes.iter().sum());
        for p in parts {
            outputs.extend(p.records);
        }
        JobResult {
            id: job.id,
            name: job.spec.name,
            submitted: job.submitted,
            finished,
            elapsed: finished.saturating_since(job.submitted),
            map_phase: map_done.saturating_since(job.submitted),
            reduce_phase: finished.saturating_since(map_done),
            counters: job.counters,
            outputs,
            partition_sizes,
        }
    }
}

#[cfg(test)]
impl MrEngine {
    /// Slots held = slots accounted: checks the ledger against the task
    /// records. Every live tracker holds one map slot per active map
    /// attempt on it and one reduce slot per reduce `Running` on it; a VM
    /// that is not a live tracker holds nothing and runs no active attempt.
    pub(crate) fn assert_slots_accounted(&self) {
        let mut held: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
        for job in self.jobs.values() {
            for task in &job.maps {
                for (vm, active) in task.attempt_vm.iter().zip(task.active) {
                    if active {
                        let vm = vm.expect("an active attempt runs somewhere");
                        held.entry(vm.0).or_default().0 += 1;
                    }
                }
            }
            for task in &job.reduces {
                if let TaskPhase::Running(vm) = task.phase {
                    held.entry(vm.0).or_default().1 += 1;
                }
            }
        }
        self.slots.assert_holds(&held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_switch_is_idempotent_and_visible() {
        let mut e = Engine::new();
        let spec = vcluster::spec::ClusterSpec::builder().hosts(2).vms(4).build();
        let c = VirtualCluster::new(&mut e, spec);
        let h = Hdfs::format(&c, vhdfs::hdfs::HdfsConfig::default(), RootSeed(7));
        let mut mr = MrEngine::new(&h);
        assert_eq!(mr.policy(), SchedulerPolicy::Fifo);
        mr.set_policy(SchedulerPolicy::JobDriven);
        assert_eq!(mr.policy(), SchedulerPolicy::JobDriven);
        mr.set_policy(SchedulerPolicy::JobDriven);
        assert_eq!(mr.policy(), SchedulerPolicy::JobDriven);
    }
}
