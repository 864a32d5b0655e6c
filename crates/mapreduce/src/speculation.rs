//! Speculative execution: straggler detection and backup map attempts.
//!
//! Paper mechanism modelled: Hadoop's `mapred.map.tasks.speculative.
//! execution` — the fault/straggler tolerance the paper leans on when VMs
//! are slowed by consolidation or migration blackouts ("the hadoop fault
//! tolerance mechanism will re-run the job or restore from other available
//! backup data"). Detection runs on a heartbeat, as the real JobTracker
//! re-evaluates stragglers on TaskTracker heartbeats; *where* the backup
//! attempt lands is delegated to the scheduling layer
//! ([`crate::scheduler::TaskScheduler::place_speculative`]).

use crate::job::JobId;
use crate::state::{tag_full, TaskPhase, PH_MAP_STARTUP};
use simcore::prelude::*;
use vcluster::cluster::{VirtualCluster, VmId};

use crate::engine::MrEngine;

/// Interval of the straggler-detection heartbeat.
pub(crate) const SPECULATION_HEARTBEAT: SimDuration = SimDuration::from_millis(2_000);

impl MrEngine {
    /// Launches backup attempts for straggling maps of a job configured
    /// `speculative` (the caller's filter — Hadoop's speculative
    /// execution): once no maps are pending, a running map that has taken
    /// over 1.5× the mean completed-map duration gets a second attempt on
    /// a different tracker; the first attempt to finish wins, the loser's
    /// results are discarded.
    pub(crate) fn maybe_speculate(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        jid: u32,
    ) {
        let candidates: Vec<(usize, VmId)> = {
            let Some(job) = self.jobs.get(&jid) else { return };
            if !job.pending_maps.is_empty() || job.map_durations.is_empty() {
                return;
            }
            let mean = job.map_durations.iter().sum::<f64>() / job.map_durations.len() as f64;
            let now = engine.now();
            (0..job.maps.len())
                .filter(|&m| {
                    matches!(job.maps[m], TaskPhase::Running(_))
                        && !job.speculated[m]
                        && job.map_started_at[m]
                            .is_some_and(|t0| now.saturating_since(t0).as_secs_f64() > 1.5 * mean)
                })
                .filter_map(|m| job.map_attempt_vm[m][0].map(|vm0| (m, vm0)))
                .collect()
        };
        for (m, vm0) in candidates {
            // Where the backup runs is a placement decision: ask the
            // scheduling layer for a different tracker with a free slot.
            let Some(vm) =
                self.with_view(cluster, |sched, view| sched.place_speculative(view, jid, vm0))
            else {
                continue;
            };
            *self.used_map_slots.entry(vm.0).or_insert(0) += 1;
            let job = self.jobs.get_mut(&jid).expect("job present");
            job.speculated[m] = true;
            job.map_attempt_vm[m][1] = Some(vm);
            job.attempt_active[m][1] = true;
            job.counters.launched_maps += 1;
            job.counters.speculative_maps += 1;
            let ep = job.map_epoch[m];
            engine.start_chain(
                Self::startup_chain(cluster, vm, job.config(), 0),
                tag_full(JobId(jid), PH_MAP_STARTUP, 1, ep, m),
            );
        }
    }
}
