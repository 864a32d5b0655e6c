//! Tracker-failure recovery: epoch-based attempt invalidation and task
//! re-queueing.
//!
//! Paper mechanism modelled: Hadoop's fault tolerance under VM crashes and
//! live-migration blackouts — "the hadoop fault tolerance mechanism will
//! re-run the job or restore from other available backup data" (paper,
//! conclusion iii). A failed TaskTracker's running attempts are re-queued
//! under a fresh epoch (so their in-flight events are orphaned and
//! swallowed), and completed map output stored only on the dead VM is
//! re-executed elsewhere while the map phase is still open.

use crate::job::JobId;
use crate::state::{tag_full, JobState, TaskPhase, PH_REQUEUE_MAP, PH_REQUEUE_REDUCE};
use simcore::prelude::*;
use std::collections::HashMap;
use vcluster::cluster::{VirtualCluster, VmId};

use crate::engine::MrEngine;

/// Base of the per-task retry backoff: re-execution `r` (r ≥ 2) of a task
/// waits an extra `TASK_RETRY_BACKOFF × 2^min(r−2, 4)` after detection.
pub const TASK_RETRY_BACKOFF: SimDuration = SimDuration::from_millis(250);

/// Extra wait before re-queueing a task that was already lost
/// `prior_retries` times (0 → no extra wait; capped at 16× the base).
fn retry_backoff(prior_retries: u32) -> SimDuration {
    if prior_retries == 0 {
        SimDuration::ZERO
    } else {
        TASK_RETRY_BACKOFF * (1u64 << (prior_retries - 1).min(4))
    }
}

impl MrEngine {
    /// Handles the loss of a TaskTracker VM (crash, or a migration blackout
    /// long enough that the JobTracker declares it dead): running attempts
    /// on it die right now (their in-flight events are orphaned by the
    /// epoch bump, their slots on surviving trackers are released), and —
    /// while the map phase is still open — completed map output stored on
    /// it is re-executed elsewhere, exactly Hadoop's recovery story.
    ///
    /// `detect_after` is the JobTracker's detection latency (the heartbeat
    /// timeout): each affected task returns to the pending queue only after
    /// it plus a capped exponential backoff that grows with the task's
    /// prior losses. A non-zero wait arrives as an ordinary engine timer
    /// (`PH_REQUEUE_*`), so runs with injected crashes stay deterministic;
    /// a zero wait re-queues the task in place, before this call's
    /// scheduling round.
    ///
    /// Simplification: once a job's reduce phase has begun, its shuffle is
    /// treated as already fetched, so map output loss no longer matters.
    ///
    /// Returns the number of task attempts scheduled for re-execution.
    ///
    /// # Panics
    /// If `vm` is not a live tracker.
    pub fn lose_tracker(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        vm: VmId,
        detect_after: SimDuration,
    ) -> usize {
        let pos = self
            .trackers
            .iter()
            .position(|&t| t == vm)
            .unwrap_or_else(|| panic!("{vm} is not a live TaskTracker"));
        self.trackers.remove(pos);
        self.used_map_slots.remove(&vm.0);
        self.used_reduce_slots.remove(&vm.0);

        let mut requeued = 0usize;
        for (&jid, job) in &mut self.jobs {
            for m in 0..job.maps.len() {
                let involved = job.map_attempt_vm[m].iter().flatten().any(|&a| a == vm);
                if !involved {
                    continue;
                }
                match job.maps[m] {
                    // Kill every attempt of the task (a surviving
                    // speculative twin is re-run too — its events are
                    // orphaned by the epoch bump).
                    TaskPhase::Running(_) => {
                        Self::release_surviving_slots(job, m, vm, &mut self.used_map_slots);
                        Self::invalidate_map(job, m);
                    }
                    // Completed output lost before any reduce could fetch
                    // it: run the map again (a straggling loser attempt may
                    // still hold a slot somewhere).
                    TaskPhase::Done
                        if job.map_vm[m] == Some(vm) && job.map_phase_done.is_none() =>
                    {
                        Self::release_surviving_slots(job, m, vm, &mut self.used_map_slots);
                        job.completed_maps -= 1;
                        Self::invalidate_map(job, m);
                    }
                    _ => continue,
                }
                let wait = detect_after + retry_backoff(job.map_retries[m]);
                job.map_retries[m] += 1;
                if wait.is_zero() {
                    job.pending_maps.push_back(m);
                } else {
                    let tag = tag_full(JobId(jid), PH_REQUEUE_MAP, 0, job.map_epoch[m], m);
                    engine.set_timer_in(wait, tag);
                }
                requeued += 1;
            }
            for r in 0..job.reduces.len() {
                if job.reduces[r] != TaskPhase::Running(vm) {
                    continue;
                }
                Self::invalidate_reduce(job, r);
                let wait = detect_after + retry_backoff(job.reduce_retries[r]);
                job.reduce_retries[r] += 1;
                if wait.is_zero() {
                    job.pending_reduces.push_back(r);
                } else {
                    let tag = tag_full(JobId(jid), PH_REQUEUE_REDUCE, 0, job.reduce_epoch[r], r);
                    engine.set_timer_in(wait, tag);
                }
                requeued += 1;
            }
        }
        let now = engine.now();
        engine.trace_span("fault", "tracker_timeout", vm.0, now, &[("requeued", requeued as f64)]);
        self.schedule(engine, cluster);
        requeued
    }

    /// Re-admits a (previously failed) VM as an idle TaskTracker (a no-op
    /// when it is already live) and runs a scheduling round: if every
    /// tracker had been lost, the re-queue timers fired into an empty
    /// list and no other event is left to place the waiting tasks.
    pub fn rejoin_tracker(&mut self, engine: &mut Engine, cluster: &VirtualCluster, vm: VmId) {
        if !self.trackers.contains(&vm) {
            self.trackers.push(vm);
            self.schedule(engine, cluster);
        }
    }

    /// Handles a `PH_REQUEUE_MAP` timer: the tracker timeout for map `m`
    /// elapsed, so it may re-enter the pending queue (the post-dispatch
    /// scheduling round places it).
    pub(crate) fn requeue_map_ready(&mut self, jid: JobId, m: usize) {
        if let Some(job) = self.jobs.get_mut(&jid.0) {
            if job.maps[m] == TaskPhase::Pending && !job.pending_maps.contains(&m) {
                job.pending_maps.push_back(m);
            }
        }
    }

    /// Handles a `PH_REQUEUE_REDUCE` timer (see `requeue_map_ready`).
    pub(crate) fn requeue_reduce_ready(&mut self, jid: JobId, r: usize) {
        if let Some(job) = self.jobs.get_mut(&jid.0) {
            if job.reduces[r] == TaskPhase::Pending && !job.pending_reduces.contains(&r) {
                job.pending_reduces.push_back(r);
            }
        }
    }

    /// Frees the slots of map `m`'s still-active attempts that run on
    /// trackers other than the failed `dead` VM.
    fn release_surviving_slots(
        job: &mut JobState,
        m: usize,
        dead: VmId,
        used_map_slots: &mut HashMap<u32, u32>,
    ) {
        for attempt in 0..2 {
            if !job.attempt_active[m][attempt] {
                continue;
            }
            job.attempt_active[m][attempt] = false;
            let Some(vm) = job.map_attempt_vm[m][attempt] else { continue };
            if vm != dead {
                if let Some(held) = used_map_slots.get_mut(&vm.0) {
                    *held -= 1;
                }
            }
        }
    }

    /// Resets map `m` to pending under a fresh epoch — orphaning every
    /// in-flight event of its attempts — without re-queueing it yet.
    fn invalidate_map(job: &mut JobState, m: usize) {
        job.map_epoch[m] = (job.map_epoch[m] + 1) & 0x7F;
        job.maps[m] = TaskPhase::Pending;
        job.map_attempt_vm[m] = [None, None];
        job.attempt_active[m] = [false, false];
        job.map_vm[m] = None;
        job.map_started_at[m] = None;
        job.speculated[m] = false;
        job.write_claimed[m] = false;
        job.counters.relaunched_tasks += 1;
    }

    /// Resets reduce `r` to pending under a fresh epoch, without
    /// re-queueing it yet.
    fn invalidate_reduce(job: &mut JobState, r: usize) {
        job.reduce_epoch[r] = (job.reduce_epoch[r] + 1) & 0x7F;
        job.reduces[r] = TaskPhase::Pending;
        job.task_outputs[r] = None;
        job.reduce_started_at[r] = None;
        job.shuffle_started_at[r] = None;
        job.counters.relaunched_tasks += 1;
    }
}
