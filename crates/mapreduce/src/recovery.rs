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
//!
//! A lost tracker leaves the [`SlotLedger`](crate::scheduler::SlotLedger)
//! with every slot it held, and every map attempt on it is deactivated at
//! the loss, so no event of a dead attempt releases a slot later: the
//! ledger never sees a release on a dead tracker, nor on one that has
//! rejoined since.

use crate::job::JobId;
use crate::state::{tag_full, TaskPhase, PH_REQUEUE_MAP, PH_REQUEUE_REDUCE};
use simcore::prelude::*;
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
    /// epoch bump, their twins' slots on surviving trackers are released),
    /// and — while the map phase is still open — completed map output
    /// stored on it is re-executed elsewhere, exactly Hadoop's recovery
    /// story. Every attempt on it stops holding a slot at once, the losing
    /// attempt of a map that already finished too: its events still drain,
    /// and must not free a slot of the tracker should it rejoin.
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
        assert!(self.slots.lose(vm), "{vm} is not a live TaskTracker");
        let mut requeued = 0usize;
        for (&jid, job) in &mut self.jobs {
            for (m, task) in job.maps.iter_mut().enumerate() {
                // Every attempt on the lost tracker dies with it, winner
                // or loser, and the slot it held went with the tracker.
                let mut involved = false;
                for (at, active) in task.attempt_vm.iter().zip(&mut task.active) {
                    if *at == Some(vm) {
                        (involved, *active) = (true, false);
                    }
                }
                if !involved {
                    continue;
                }
                match task.phase {
                    // Kill every attempt of the task (a surviving
                    // speculative twin is re-run too — its events are
                    // orphaned by the epoch bump).
                    TaskPhase::Running(_) => {}
                    // Completed output lost before any reduce could fetch
                    // it: run the map again (a straggling loser attempt may
                    // still hold a slot somewhere).
                    TaskPhase::Done if task.winner == Some(vm) && job.map_phase_done.is_none() => {
                        job.completed_maps -= 1;
                    }
                    _ => continue,
                }
                task.release_all(&mut self.slots);
                let wait = detect_after + retry_backoff(task.relaunch());
                job.counters.relaunched_tasks += 1;
                if wait.is_zero() {
                    job.pending_maps.push_back(m);
                } else {
                    let tag = tag_full(JobId(jid), PH_REQUEUE_MAP, 0, task.epoch, m);
                    engine.set_timer_in(wait, tag);
                }
                requeued += 1;
            }
            for (r, task) in job.reduces.iter_mut().enumerate() {
                if task.phase != TaskPhase::Running(vm) {
                    continue;
                }
                let wait = detect_after + retry_backoff(task.relaunch());
                job.task_outputs[r] = None;
                job.counters.relaunched_tasks += 1;
                if wait.is_zero() {
                    job.pending_reduces.push_back(r);
                } else {
                    let tag = tag_full(JobId(jid), PH_REQUEUE_REDUCE, 0, task.epoch, r);
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
        if self.slots.rejoin(vm) {
            self.schedule(engine, cluster);
        }
    }

    /// Handles a `PH_REQUEUE_MAP` timer: the tracker timeout for map `m`
    /// elapsed, so it may re-enter the pending queue (the post-dispatch
    /// scheduling round places it).
    pub(crate) fn requeue_map_ready(&mut self, jid: JobId, m: usize) {
        if let Some(job) = self.jobs.get_mut(&jid.0) {
            if job.maps[m].phase == TaskPhase::Pending && !job.pending_maps.contains(&m) {
                job.pending_maps.push_back(m);
            }
        }
    }

    /// Handles a `PH_REQUEUE_REDUCE` timer (see `requeue_map_ready`).
    pub(crate) fn requeue_reduce_ready(&mut self, jid: JobId, r: usize) {
        if let Some(job) = self.jobs.get_mut(&jid.0) {
            if job.reduces[r].phase == TaskPhase::Pending && !job.pending_reduces.contains(&r) {
                job.pending_reduces.push_back(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::MrRuntime;
    use crate::speculation::tests::{runtime, spread, submit};
    use crate::state::TaskPhase;
    use simcore::prelude::*;
    use vcluster::cluster::VmId;

    /// Steps `rt`, audited, until some map has won while an attempt of it
    /// still runs on `vm`; returns that map's index.
    fn until_a_loser_runs_on(rt: &mut MrRuntime, vm: VmId) -> usize {
        loop {
            rt.step_audited().expect("a backup wins before the job ends");
            let job = rt.mr.jobs.values().next().expect("the job is running");
            let loser = job.maps.iter().position(|task| {
                task.phase == TaskPhase::Done
                    && task.winner != Some(vm)
                    && task
                        .attempt_vm
                        .iter()
                        .zip(task.active)
                        .any(|(&at, active)| active && at == Some(vm))
            });
            if let Some(m) = loser {
                return m;
            }
        }
    }

    /// A map's backup wins while its primary still runs on the crushed
    /// vm1; vm1 is then lost and rejoins, and a second job runs. The
    /// loser's attempt died with vm1: its draining events must not return
    /// a slot to the rejoined tracker, whose slots belong to the new job.
    #[test]
    fn an_orphaned_loser_frees_no_slot_on_its_rejoined_tracker() {
        let vm1 = VmId(1);
        let mut rt = runtime(31, true);
        submit(&mut rt, spread(true), "/out-1");
        let m = until_a_loser_runs_on(&mut rt, vm1);
        rt.mr.lose_tracker(&mut rt.engine, &rt.cluster, vm1, SimDuration::ZERO);
        rt.mr.assert_slots_accounted();
        let job = rt.mr.jobs.values().next().expect("the job is running");
        assert_eq!(job.maps[m].active, [false; 2], "the loser died with its tracker");
        rt.mr.rejoin_tracker(&mut rt.engine, &rt.cluster, vm1);
        submit(&mut rt, spread(true), "/out-2");
        let results = rt.drive_all_audited();
        assert_eq!(results.len(), 2);
        assert!(rt.mr.busy_trackers().is_empty(), "a slot is still held after both jobs");
        assert_eq!(rt.mr.trackers().last(), Some(&vm1), "vm1 rejoined at the end");
    }

    /// The primary's tracker dies mid-speculation and the JobTracker
    /// notices only after the heartbeat timeout: the surviving backup
    /// frees its slot, the map re-runs once, and the output is the clean
    /// run's.
    #[test]
    fn timed_out_primary_mid_speculation_keeps_the_ledger_accounted() {
        let clean = {
            let mut rt = runtime(31, true);
            submit(&mut rt, spread(true), "/out");
            rt.drive_all_audited().pop().expect("the job finished")
        };
        let mut rt = runtime(31, true);
        let id = submit(&mut rt, spread(true), "/out");
        let primary = loop {
            rt.step_audited().expect("a map speculates before the job ends");
            if let Some(&(_, primary, _)) = rt.mr.speculating(id).first() {
                break primary;
            }
        };
        let requeued =
            rt.mr.lose_tracker(&mut rt.engine, &rt.cluster, primary, SimDuration::from_secs(2));
        assert!(requeued >= 1);
        rt.mr.assert_slots_accounted();
        let res = rt.drive_all_audited().pop().expect("the job finished");
        assert!(res.counters.relaunched_tasks >= 1);
        let sorted = |r: &crate::job::JobResult| {
            let mut out = r.outputs.clone();
            out.sort_by(|x, y| x.0.cmp(&y.0));
            out
        };
        assert_eq!(sorted(&res), sorted(&clean), "recovery must not change results");
        assert!(rt.mr.busy_trackers().is_empty(), "a slot leaked after recovery");
    }
}
