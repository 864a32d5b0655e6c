//! Speculative execution: straggler detection and backup map attempts.
//!
//! Paper mechanism modelled: Hadoop's `mapred.map.tasks.speculative.
//! execution` — the fault/straggler tolerance the paper leans on when VMs
//! are slowed by consolidation or migration blackouts ("the hadoop fault
//! tolerance mechanism will re-run the job or restore from other available
//! backup data"). Detection runs on a heartbeat, as the real JobTracker
//! re-evaluates stragglers on TaskTracker heartbeats; *where* the backup
//! attempt lands is delegated to the scheduling layer
//! ([`crate::scheduler::SchedulerPolicy::place_speculative`]).

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
            (job.maps.iter().enumerate())
                .filter(|(_, task)| {
                    matches!(task.phase, TaskPhase::Running(_))
                        && task.attempt_vm[1].is_none() // no backup yet
                        && task
                            .started_at
                            .is_some_and(|t0| now.saturating_since(t0).as_secs_f64() > 1.5 * mean)
                })
                .filter_map(|(m, task)| task.attempt_vm[0].map(|vm0| (m, vm0)))
                .collect()
        };
        for (m, vm0) in candidates {
            // Where the backup runs is a placement decision: ask the
            // scheduling layer for a different tracker with a free slot.
            let Some(vm) = self.with_view(cluster, |view| self.policy.place_speculative(view, vm0))
            else {
                continue;
            };
            self.slots.take_map(vm);
            let job = self.jobs.get_mut(&jid).expect("job present");
            let task = &mut job.maps[m];
            task.attempt_vm[1] = Some(vm);
            task.active[1] = true;
            let ep = task.epoch;
            job.counters.launched_maps += 1;
            job.counters.speculative_maps += 1;
            engine.start_chain(
                Self::startup_chain(cluster, vm, 0),
                tag_full(JobId(jid), PH_MAP_STARTUP, 1, ep, m),
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Speculative execution: a straggling map (its VM crushed by outside
    //! load) gets a backup attempt, and the job finishes sooner. Every
    //! wakeup is audited against the slot ledger.

    use crate::prelude::*;
    use simcore::prelude::*;
    use vcluster::prelude::{ClusterSpec, Placement};
    use vhdfs::hdfs::HdfsConfig;

    const MB: u64 = 1024 * 1024;

    struct SlowSquare;
    impl MapReduceApp for SlowSquare {
        fn name(&self) -> &str {
            "slow-square"
        }
        fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
            out(k.clone(), V::Float(v.as_float() * v.as_float()));
        }
        fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
            out(k.clone(), vs[0].clone());
        }
        fn cost(&self) -> CostProfile {
            // CPU-heavy maps so a loaded VM really straggles.
            CostProfile { map_cpu_per_record: 1.2e8, ..Default::default() }
        }
    }

    /// Five VMs on two hosts holding `/in` (4 blocks), with vm1's VCPU
    /// crushed by competing flows for a long time when `crush` is set.
    pub(crate) fn runtime(seed: u64, crush: bool) -> MrRuntime {
        let spec =
            ClusterSpec::builder().hosts(2).vms(5).placement(Placement::SingleDomain).build();
        let mut rt =
            MrRuntime::new(spec, HdfsConfig { block_size: MB, replication: 2 }, RootSeed(seed));
        rt.register_input("/in", 4 * MB - 1, VmId(1));
        let crushers = if crush { 8 } else { 0 };
        for i in 0..crushers {
            let demands = rt.cluster.cpu_demands(VmId(1));
            rt.engine.start_flow(demands, 2.4e9 * 600.0, Tag::new(simcore::owners::USER, i, 0));
        }
        rt
    }

    /// Submits the squaring job over `/in` under `config`, writing `out`.
    pub(crate) fn submit(rt: &mut MrRuntime, config: JobConfig, out: &str) -> JobId {
        let input = GeneratorInput::new(4, MB, |idx| {
            (0..40).map(|i| (K::Int((idx * 100 + i) as i64), V::Float(i as f64))).collect()
        });
        let job = JobSpec::new("sq", "/in", out).with_config(config);
        rt.submit(job, Box::new(SlowSquare), Box::new(input))
    }

    /// The squaring job with maps spread round-robin (so vm1 gets one),
    /// one reduce and no combiner.
    pub(crate) fn spread(speculative: bool) -> JobConfig {
        JobConfig { speculative, locality_aware: false, use_combiner: false, num_reduces: 1 }
    }

    /// Runs the job with a crushing background load on one tracker VM.
    fn run(speculative: bool) -> JobResult {
        let mut rt = runtime(31, true);
        submit(&mut rt, spread(speculative), &format!("/out-{speculative}"));
        rt.drive_all_audited().pop().expect("the job finished")
    }

    #[test]
    fn speculation_rescues_stragglers() {
        let without = run(false);
        let with = run(true);
        assert_eq!(without.counters.speculative_maps, 0);
        assert!(
            with.counters.speculative_maps >= 1,
            "a backup attempt launched, got {:?}",
            with.counters.speculative_maps
        );
        assert!(
            with.elapsed_secs() < without.elapsed_secs() * 0.9,
            "speculation helps: {:.1}s vs {:.1}s",
            with.elapsed_secs(),
            without.elapsed_secs()
        );
        // Output identical either way.
        let mut a = with.outputs.clone();
        let mut b = without.outputs.clone();
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a, b, "speculation must not change results");
    }

    #[test]
    fn speculation_idle_cluster_launches_no_backups() {
        // No stragglers -> no speculative attempts even when enabled.
        let mut rt = runtime(32, false);
        submit(&mut rt, JobConfig { speculative: true, ..Default::default() }, "/out");
        let result = rt.drive_all_audited().pop().expect("the job finished");
        assert_eq!(result.counters.speculative_maps, 0, "balanced cluster needs no speculation");
    }
}
