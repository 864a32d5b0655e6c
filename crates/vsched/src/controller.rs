//! The closed-loop controller: admission + start pump + rebalance ticks.
//!
//! One [`Controller`] owns one [`JobRecord`] per job, the admission queue
//! of their ids, and (when configured) a
//! [`crate::rebalance::Rebalancer`]. The host
//! platform wires it into its event loop:
//!
//! 1. **arrivals** — [`Controller::schedule`] arms an `owners::CTRL` timer
//!    per future job; the platform forwards the wakeup to
//!    [`Controller::on_wakeup`], which admits (or rejects) the job;
//! 2. **starts** — whenever the queue or the active-job set changes, the
//!    controller pumps: while fewer than `max_active` jobs run, it pops the
//!    next queued job (per policy) and submits it to the JobTracker;
//! 3. **ticks** — with rebalancing on, a periodic `CTRL` timer samples
//!    host loads and may hand a bounded move plan to the migration
//!    manager;
//! 4. **completions** — the platform relays `JobDone` and migration
//!    events back so SLOs and counters stay current.
//!
//! Determinism: the controller reacts only to simulated wakeups and draws
//! no randomness of its own, so a controlled run stays a pure function of
//! (config, seed). A platform launched without a [`ControllerConfig`] has
//! no controller at all.

use crate::model::MakespanKind;
use crate::placement::{PlacementKind, WorkloadHint};
use crate::queue::{slo_report_json, JobRecord, QueueConfig, SloReport};
use crate::rebalance::{RebalanceConfig, RebalanceMode, Rebalancer};
use mapreduce::job::JobEvent;
use mapreduce::runtime::{MrRuntime, PendingJob};
use simcore::engine::FixedState;
use simcore::owners;
use simcore::prelude::*;
use std::collections::HashMap;
use vcluster::cluster::{HostId, VirtualCluster, VmId};
use vcluster::migration::{MigrationEvent, MigrationManager};

/// `Tag.b` payload of a rebalance tick timer.
pub const TICK: u64 = 1;
/// `Tag.b` payload of a job-arrival timer (`Tag.a` = controller job id).
pub const ARRIVAL: u64 = 2;

/// Full control-plane configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControllerConfig {
    /// Admission-queue bounds and start order.
    pub queue: QueueConfig,
    /// VM placement applied when the platform boots.
    pub placement: PlacementKind,
    /// Periodic migration-driven rebalancing; `None` disables ticks.
    pub rebalance: Option<RebalanceConfig>,
    /// Makespan model pricing adaptive placement and what-if rebalance
    /// candidates: the hand-priced baseline (the default) or a learned
    /// regression tree.
    pub model: MakespanKind,
}

impl ControllerConfig {
    /// A controller with the given placement and otherwise default knobs.
    pub fn enabled_with(placement: PlacementKind) -> Self {
        ControllerConfig { placement, ..Default::default() }
    }

    /// Checks that the configuration can drain, naming the first field
    /// that cannot: with `queue.max_active == 0` no admitted job ever
    /// starts, and a zero `rebalance.interval` re-arms the tick at the
    /// same instant for ever.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue.max_active == 0 {
            return Err("queue.max_active must be at least 1".into());
        }
        if self.rebalance.as_ref().is_some_and(|rb| rb.interval == SimDuration::ZERO) {
            return Err("rebalance.interval must be positive".into());
        }
        Ok(())
    }
}

/// Monotonic controller counters. Per-job counts are folded from the job
/// records by [`Controller::slo_report`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ControllerCounters {
    /// Jobs bounced off the full queue.
    pub jobs_rejected: u64,
    /// Deepest the admission queue ever got.
    pub queue_depth_hwm: u64,
    /// VM moves handed to the migration manager.
    pub migrations_planned: u64,
    /// VM moves that completed.
    pub migrations_completed: u64,
    /// Injected aborts survived by controller-planned migrations.
    pub migrations_aborted: u64,
    /// Rebalance ticks that sampled load.
    pub rebalance_ticks: u64,
}

simcore::persist_struct!(ControllerCounters {
    jobs_rejected,
    queue_depth_hwm,
    migrations_planned,
    migrations_completed,
    migrations_aborted,
    rebalance_ticks,
});

/// One candidate migration plan priced by the configured makespan model,
/// awaiting fork-based measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfCandidate {
    /// The move set under evaluation.
    pub moves: Vec<(VmId, HostId)>,
    /// The configured [`MakespanKind`]'s price of the post-move layout,
    /// seconds.
    pub estimated_s: f64,
}

/// A deferred what-if evaluation. The controller never forks itself — it
/// parks the candidates here and the owning platform forks the whole
/// simulation per candidate, measures each fork's makespan, and commits
/// the winner through [`Controller::resolve_whatif`].
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfRequest {
    /// Candidate plans, model-priced, coldest destination first.
    pub candidates: Vec<WhatIfCandidate>,
    /// Name of the [`MakespanKind`] that priced the candidates (copied
    /// into every outcome, so estimator error stays attributable).
    pub model: String,
}

/// The measured outcome of one what-if candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfOutcome {
    /// When the evaluation ran.
    pub at: SimTime,
    /// The candidate move set.
    pub moves: Vec<(VmId, HostId)>,
    /// Model price of the post-move layout, seconds.
    pub estimated_s: f64,
    /// Fork-measured span from `at` to the fork's last job completion,
    /// seconds (the instant its last job finished, not when its event
    /// queue drained: trailing rebalance or monitor ticks do not count).
    pub measured_s: f64,
    /// Whether this candidate was committed in the parent.
    pub chosen: bool,
    /// Name of the [`MakespanKind`] that produced `estimated_s`.
    pub model: String,
}

simcore::persist_struct!(WhatIfOutcome { at, moves, estimated_s, measured_s, chosen, model });

/// The closed-loop control plane (see module docs for the wiring).
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    /// One record per job, indexed by the controller id `schedule`
    /// returns. The SLO report folds the table in id order, which is
    /// admission order for every caller that schedules in non-decreasing
    /// `at`: arrival timers set for the same instant fire in the order
    /// they were set.
    jobs: Vec<JobRecord>,
    /// Admitted, not yet started controller ids, in admission order.
    queue: Vec<u32>,
    /// Sized at attach time (needs the host count); `Some` exactly when
    /// `cfg.rebalance` is.
    rebalancer: Option<Rebalancer>,
    counters: ControllerCounters,
    /// JobTracker id → controller job id for running jobs.
    active: HashMap<u32, u32, FixedState>,
    tick_armed: bool,
    queue_depth_name: Option<Name>,
    active_jobs_name: Option<Name>,
    /// A what-if evaluation waiting for the platform to fork and measure.
    pending_whatif: Option<WhatIfRequest>,
    /// Fork-measured what-if outcomes so far.
    whatif_outcomes: Vec<WhatIfOutcome>,
    /// Runtime-only: set inside a what-if fork so rebalance ticks keep
    /// sampling but never plan (forks must not recurse). Never encoded —
    /// a fork's own snapshot starts un-suppressed like any parent.
    suppress_rebalance: bool,
}

// Config, placement, and interned counter names are launch-derived: a
// restored controller is rebuilt by a fresh launch from the same config.
// Arrival and tick timers come back through the engine snapshot.
simcore::persist_state!(Controller {
    counters,
    jobs,
    queue,
    rebalancer,
    active,
    tick_armed,
    whatif_outcomes,
});

impl Controller {
    /// New controller; call [`Controller::attach`] once the platform's
    /// engine and cluster exist.
    pub fn new(cfg: ControllerConfig) -> Self {
        Controller {
            jobs: Vec::new(),
            queue: Vec::new(),
            rebalancer: None,
            counters: ControllerCounters::default(),
            active: HashMap::default(),
            tick_armed: false,
            queue_depth_name: None,
            active_jobs_name: None,
            pending_whatif: None,
            whatif_outcomes: Vec::new(),
            suppress_rebalance: false,
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// The VM→host override this controller's placement policy produces
    /// for `spec` (applied by the platform before the cluster boots),
    /// priced with the configured makespan model.
    pub fn placement_map(&self, spec: &vcluster::spec::ClusterSpec) -> Option<Vec<u32>> {
        self.cfg.placement.assign(spec, &self.cfg.model)
    }

    /// Binds the controller to a booted platform: sizes the rebalancer,
    /// interns counter names.
    pub fn attach(&mut self, engine: &mut Engine, cluster: &VirtualCluster) {
        self.rebalancer =
            self.cfg.rebalance.as_ref().map(|_| Rebalancer::new(cluster.host_count()));
        self.queue_depth_name = Some(engine.tracer_mut().intern("ctrl.queue_depth"));
        self.active_jobs_name = Some(engine.tracer_mut().intern("ctrl.active_jobs"));
    }

    /// Registers a job that arrives at `at` (open loop): arms a `CTRL`
    /// timer; admission happens when it fires. Returns the controller job
    /// id.
    pub fn schedule(
        &mut self,
        engine: &mut Engine,
        at: SimTime,
        tenant: u32,
        expected_s: f64,
        job: PendingJob,
    ) -> u32 {
        let id = self.jobs.len() as u32;
        self.jobs.push(JobRecord::scheduled(tenant, expected_s, job));
        // set_timer_at clamps past instants to now, so schedules built
        // before launch are safe.
        engine.set_timer_at(at, Tag::new(owners::CTRL, id, ARRIVAL));
        id
    }

    /// Admits job `ctrl_id` (or rejects it at a full queue) and pumps
    /// starts.
    fn admit(&mut self, rt: &mut MrRuntime, migration: &mut MigrationManager, ctrl_id: u32) {
        let now = rt.engine.now();
        let admitted = self.cfg.queue.admits(self.queue.len());
        let rec = &mut self.jobs[ctrl_id as usize];
        rec.arrival = Some(now);
        rec.admitted = admitted;
        let tenant = rec.tenant;
        if admitted {
            self.queue.push(ctrl_id);
            self.counters.queue_depth_hwm =
                self.counters.queue_depth_hwm.max(self.queue.len() as u64);
            rt.engine.trace_span(
                "ctrl",
                "admit",
                0,
                now,
                &[("job", f64::from(ctrl_id)), ("tenant", f64::from(tenant))],
            );
        } else {
            rec.job = None;
            self.counters.jobs_rejected += 1;
            rt.engine.trace_span(
                "ctrl",
                "reject",
                0,
                now,
                &[("job", f64::from(ctrl_id)), ("tenant", f64::from(tenant))],
            );
        }
        self.pump(rt);
        self.sample_counters(rt);
        self.ensure_tick(&mut rt.engine, migration);
    }

    /// Handles an `owners::CTRL` wakeup (arrival or rebalance tick).
    pub fn on_wakeup(
        &mut self,
        rt: &mut MrRuntime,
        migration: &mut MigrationManager,
        wakeup: &Wakeup,
    ) {
        let Wakeup::Timer { tag, .. } = wakeup else { return };
        debug_assert_eq!(tag.owner, owners::CTRL);
        match tag.b {
            ARRIVAL => self.admit(rt, migration, tag.a),
            TICK => {
                self.tick_armed = false;
                self.tick(rt, migration);
            }
            _ => {}
        }
    }

    /// Relays a JobTracker event; returns true when it closed a
    /// controller-started job.
    pub fn on_job_event(
        &mut self,
        rt: &mut MrRuntime,
        migration: &mut MigrationManager,
        ev: &JobEvent,
    ) -> bool {
        let JobEvent::JobDone(res) = ev else { return false };
        let Some(ctrl_id) = self.active.remove(&res.id.0) else { return false };
        let now = rt.engine.now();
        self.jobs[ctrl_id as usize].finished = Some(now);
        rt.engine.trace_span("ctrl", "finish_job", 0, now, &[("job", f64::from(ctrl_id))]);
        self.pump(rt);
        self.sample_counters(rt);
        self.ensure_tick(&mut rt.engine, migration);
        true
    }

    /// Accounts controller-visible migration completions.
    pub fn on_migration_events(&mut self, events: &[MigrationEvent]) {
        for ev in events {
            if let MigrationEvent::AllDone(rep) = ev {
                self.counters.migrations_completed += rep.per_vm.len() as u64;
                self.counters.migrations_aborted +=
                    rep.per_vm.iter().map(|v| u64::from(v.aborts)).sum::<u64>();
            }
        }
    }

    /// One rebalance tick: sample loads, maybe plan moves, re-arm.
    fn tick(&mut self, rt: &mut MrRuntime, migration: &mut MigrationManager) {
        let now = rt.engine.now();
        if let (Some(rb), Some(cfg)) = (&mut self.rebalancer, &self.cfg.rebalance) {
            self.counters.rebalance_ticks += 1;
            let loads = rb.sample(&rt.engine, &rt.cluster);
            for (h, l) in loads.iter().enumerate() {
                rt.engine.trace_span(
                    "ctrl",
                    "rebalance",
                    h as u32,
                    now,
                    &[("cpu", l.cpu), ("nic", l.nic)],
                );
            }
            // Plan only while a migration session isn't already running —
            // the session API is one-at-a-time. What-if forks never plan:
            // they exist to measure one already-chosen candidate.
            if !migration.busy() && !self.suppress_rebalance {
                let plan = rb.plan(cfg, now, &rt.cluster, &loads);
                if !plan.moves.is_empty() {
                    if cfg.mode == RebalanceMode::WhatIf {
                        // Defer: park every viable relief plan for the
                        // platform to fork-and-measure.
                        let src = rt.cluster.host_of(plan.moves[0].0);
                        let cpu: Vec<f64> = loads.iter().map(|l| l.cpu).collect();
                        let model = &self.cfg.model;
                        let candidates: Vec<WhatIfCandidate> = rb
                            .candidate_plans(&rt.cluster, src, &loads)
                            .into_iter()
                            .map(|p| WhatIfCandidate {
                                estimated_s: estimate_plan(&rt.cluster, &p.moves, &cpu, model),
                                moves: p.moves,
                            })
                            .collect();
                        rt.engine.trace_span(
                            "ctrl",
                            "whatif_defer",
                            0,
                            now,
                            &[("candidates", candidates.len() as f64)],
                        );
                        self.pending_whatif =
                            Some(WhatIfRequest { candidates, model: model.name().to_string() });
                    } else {
                        self.counters.migrations_planned += plan.moves.len() as u64;
                        rt.engine.trace_span(
                            "ctrl",
                            "plan_migration",
                            0,
                            now,
                            &[("moves", plan.moves.len() as f64)],
                        );
                        migration.start_moves(&mut rt.engine, &rt.cluster, &plan.moves);
                    }
                }
            }
        }
        self.pump(rt);
        self.sample_counters(rt);
        self.ensure_tick(&mut rt.engine, migration);
    }

    /// Starts queued jobs while multiprogramming slots are free.
    fn pump(&mut self, rt: &mut MrRuntime) {
        let q = &self.cfg.queue;
        while self.active.len() < q.max_active {
            let Some(ctrl_id) = q.policy.pop(&mut self.queue, &self.jobs) else { break };
            let now = rt.engine.now();
            let rec = &mut self.jobs[ctrl_id as usize];
            rec.started = Some(now);
            let job = rec.job.take().expect("a queued job holds its submission");
            let arrival = rec.arrival.expect("a queued job has arrived");
            let tenant = rec.tenant;
            // The retroactive wait span covers admission → start.
            rt.engine.trace_span("ctrl", "queue_wait", 0, arrival, &[("job", f64::from(ctrl_id))]);
            rt.engine.trace_span(
                "ctrl",
                "start_job",
                0,
                now,
                &[("job", f64::from(ctrl_id)), ("tenant", f64::from(tenant))],
            );
            let job_id = job.submit(rt);
            self.active.insert(job_id.0, ctrl_id);
        }
    }

    /// Emits queue-depth / active-job counter samples.
    fn sample_counters(&mut self, rt: &mut MrRuntime) {
        if let (Some(qd), Some(aj)) = (self.queue_depth_name, self.active_jobs_name) {
            rt.engine.trace_counter(qd, self.queue.len() as f64);
            rt.engine.trace_counter(aj, self.active.len() as f64);
        }
    }

    /// Arms the next rebalance tick while there is anything to watch.
    fn ensure_tick(&mut self, engine: &mut Engine, migration: &MigrationManager) {
        let Some(rb) = &self.cfg.rebalance else { return };
        if self.tick_armed {
            return;
        }
        let work = !self.queue.is_empty()
            || !self.active.is_empty()
            || self.jobs.iter().any(|j| j.arrival.is_none())
            || migration.busy();
        if work {
            self.tick_armed = true;
            engine.set_timer_in(rb.interval, Tag::new(owners::CTRL, 0, TICK));
        }
    }

    /// Monotonic counters so far.
    pub fn counters(&self) -> &ControllerCounters {
        &self.counters
    }

    /// Aggregate SLO statistics of the jobs that have arrived so far.
    pub fn slo_report(&self) -> SloReport {
        SloReport::of(&self.jobs)
    }

    /// Every scheduled job's record, indexed by controller id.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// The SLO report rendered as the JSON document CI validates.
    pub fn slo_report_json(&self) -> String {
        slo_report_json(&self.slo_report(), &self.counters)
    }

    /// Takes the what-if evaluation deferred by the last tick, if any.
    pub fn take_whatif_request(&mut self) -> Option<WhatIfRequest> {
        self.pending_whatif.take()
    }

    /// Marks this controller as living inside a what-if fork: ticks keep
    /// sampling loads but never plan, so forks cannot recurse.
    pub fn set_suppress_rebalance(&mut self, on: bool) {
        self.suppress_rebalance = on;
    }

    /// Records fork-measured outcomes and commits the chosen plan (the
    /// one flagged `chosen`) through the migration manager.
    pub fn resolve_whatif(
        &mut self,
        rt: &mut MrRuntime,
        migration: &mut MigrationManager,
        outcomes: Vec<WhatIfOutcome>,
    ) {
        let now = rt.engine.now();
        let chosen = outcomes.iter().find(|o| o.chosen).cloned();
        self.whatif_outcomes.extend(outcomes);
        if let Some(c) = chosen {
            self.counters.migrations_planned += c.moves.len() as u64;
            rt.engine.trace_span(
                "ctrl",
                "whatif_commit",
                0,
                now,
                &[("moves", c.moves.len() as f64), ("measured_s", c.measured_s)],
            );
            migration.start_moves(&mut rt.engine, &rt.cluster, &c.moves);
        }
        self.ensure_tick(&mut rt.engine, migration);
    }

    /// Every fork-measured what-if outcome so far, in evaluation order.
    pub fn whatif_outcomes(&self) -> &[WhatIfOutcome] {
        &self.whatif_outcomes
    }
}

/// Prices the post-`moves` VM layout with the configured makespan model
/// for the default [`WorkloadHint`], under the current per-host CPU
/// background load.
fn estimate_plan(
    cluster: &VirtualCluster,
    moves: &[(VmId, HostId)],
    host_load: &[f64],
    model: &MakespanKind,
) -> f64 {
    let mut map: Vec<u32> = cluster.vms().map(|v| cluster.host_of(v).0).collect();
    for &(vm, dst) in moves {
        map[vm.0 as usize] = dst.0;
    }
    model.estimate(cluster.spec(), &map, &WorkloadHint::default(), host_load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueuePolicy;
    use mapreduce::job::JobResult;
    use vcluster::spec::{ClusterSpec, Placement};
    use vhdfs::hdfs::HdfsConfig;
    use workloads_stub::load_job;

    /// Minimal local stand-in for `workloads::load_job` (vsched must not
    /// depend on workloads; only the tests need a runnable job).
    mod workloads_stub {
        use mapreduce::prelude::*;

        #[derive(Debug, Clone, Copy)]
        struct Burn(f64);
        impl MapReduceApp for Burn {
            fn name(&self) -> &str {
                "burn"
            }
            fn map(&self, k: &K, _v: &V, out: &mut dyn FnMut(K, V)) {
                out(k.clone(), V::Int(1));
            }
            fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
                out(k.clone(), V::Int(vs.len() as i64));
            }
            fn cost(&self) -> CostProfile {
                CostProfile { map_cpu_per_record: self.0, ..Default::default() }
            }
        }

        pub fn load_job(run: u32, maps: u32, cpu_secs: f64) -> PendingJob {
            PendingJob::new(format!("burn-{run}"), move |rt: &mut MrRuntime| {
                let block = rt.hdfs.config().block_size;
                let path = format!("/burn/in-{run:04}");
                rt.register_input(&path, u64::from(maps) * block - 1, VmId(1));
                let input = GeneratorInput::new(maps as usize, block, |idx| {
                    vec![(K::Int(idx as i64), V::Null)]
                });
                let spec = JobSpec::new(format!("burn-{run}"), path, format!("/burn/out-{run:04}"))
                    .with_config(JobConfig::default().with_combiner(false));
                rt.submit(spec, Box::new(Burn(cpu_secs * 2.4e9)), Box::new(input))
            })
        }
    }

    fn rt() -> MrRuntime {
        let spec =
            ClusterSpec::builder().hosts(2).vms(6).placement(Placement::SingleDomain).build();
        MrRuntime::new(spec, HdfsConfig { block_size: 1 << 20, replication: 2 }, RootSeed(11))
    }

    fn drive(ctrl: &mut Controller, rt: &mut MrRuntime, mig: &mut MigrationManager) {
        drive_until(ctrl, rt, mig, |_| false);
    }

    /// Routes wakeups until `stop` holds after one or the queue drains;
    /// returns the results of the jobs that finished on the way.
    fn drive_until(
        ctrl: &mut Controller,
        rt: &mut MrRuntime,
        mig: &mut MigrationManager,
        stop: impl Fn(&Controller) -> bool,
    ) -> Vec<JobResult> {
        let mut dirty = vcluster::migration::ConstantDirtyModel(0.0);
        let mut done = Vec::new();
        while let Some((_, w)) = rt.engine.next_wakeup() {
            match w.tag().owner {
                owners::CTRL => ctrl.on_wakeup(rt, mig, &w),
                owners::MIGRATION => {
                    let evs = mig.on_wakeup(&mut rt.engine, &mut rt.cluster, &mut dirty, &w);
                    ctrl.on_migration_events(&evs);
                }
                _ => {
                    for ev in rt.route_full(&w).job_events {
                        ctrl.on_job_event(rt, mig, &ev);
                        if let JobEvent::JobDone(res) = ev {
                            done.push(*res);
                        }
                    }
                }
            }
            if stop(ctrl) {
                break;
            }
        }
        done
    }

    #[test]
    fn controller_runs_a_scheduled_stream_to_completion() {
        let mut rt = rt();
        let mut mig = MigrationManager::new(1);
        let mut ctrl = Controller::new(ControllerConfig {
            queue: QueueConfig { max_active: 1, ..Default::default() },
            ..Default::default()
        });
        ctrl.attach(&mut rt.engine, &rt.cluster);
        for i in 0..3u32 {
            let job = load_job(i, 2, 0.2);
            ctrl.schedule(&mut rt.engine, SimTime::from_secs(u64::from(i)), 0, 1.0, job);
        }
        drive(&mut ctrl, &mut rt, &mut mig);
        let rep = ctrl.slo_report();
        assert_eq!(rep.jobs, 3);
        assert_eq!(rep.finished, 3);
        assert_eq!(rep.starved, 0, "drained run must start every admitted job");
        assert!(ctrl.queue.is_empty() && ctrl.active.is_empty());
        assert!(ctrl.jobs.iter().all(|j| j.finished.is_some() && j.job.is_none()));
        assert_eq!((rep.admitted, rep.started), (3, 3));
        assert!(ctrl.counters().queue_depth_hwm >= 1, "max_active=1 forces queueing");
    }

    #[test]
    fn full_queue_rejects_and_reports() {
        let mut rt = rt();
        let mut mig = MigrationManager::new(1);
        let mut ctrl = Controller::new(ControllerConfig {
            queue: QueueConfig { capacity: 1, max_active: 1, ..Default::default() },
            ..Default::default()
        });
        ctrl.attach(&mut rt.engine, &rt.cluster);
        // All three arrive at t=0: one starts, one queues, one bounces.
        for i in 0..3u32 {
            ctrl.schedule(&mut rt.engine, SimTime::ZERO, 0, 1.0, load_job(i, 2, 0.2));
        }
        drive(&mut ctrl, &mut rt, &mut mig);
        let (c, rep) = (ctrl.counters(), ctrl.slo_report());
        assert_eq!((rep.jobs, rep.rejected, rep.finished, rep.starved), (3, 1, 2, 0));
        assert_eq!(c.jobs_rejected, 1);
        assert_eq!(c.queue_depth_hwm, 1, "the queue never holds more than its capacity");
        assert!(!ctrl.jobs[2].admitted && ctrl.jobs[2].job.is_none(), "the third job bounced");
    }

    #[test]
    fn shortest_first_reorders_queued_jobs() {
        let mut rt = rt();
        let mut mig = MigrationManager::new(1);
        let mut ctrl = Controller::new(ControllerConfig {
            queue: QueueConfig {
                policy: QueuePolicy::ShortestFirst,
                max_active: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        ctrl.attach(&mut rt.engine, &rt.cluster);
        // Job 0 starts immediately; 1 (long) and 2 (short) queue behind it.
        ctrl.schedule(&mut rt.engine, SimTime::ZERO, 0, 1.0, load_job(0, 2, 0.2));
        ctrl.schedule(&mut rt.engine, SimTime::ZERO, 0, 9.0, load_job(1, 2, 0.2));
        ctrl.schedule(&mut rt.engine, SimTime::ZERO, 0, 2.0, load_job(2, 2, 0.2));
        drive(&mut ctrl, &mut rt, &mut mig);
        let started = |id: usize| ctrl.jobs[id].started.unwrap();
        assert!(started(2) < started(1), "the short job must start before the long one");
    }

    /// Encodes everything `drive_until` mutates, as a platform snapshot
    /// does.
    fn snapshot(
        ctrl: &Controller,
        rt: &mut MrRuntime,
        mig: &MigrationManager,
    ) -> (Vec<u8>, simcore::persist::Handles) {
        let mut e = Encoder::new();
        rt.engine.encode_state(&mut e);
        rt.cluster.encode_state(&mut e);
        rt.hdfs.encode_state(&mut e);
        rt.mr.encode_state(&mut e);
        mig.encode_state(&mut e);
        ctrl.encode_state(&mut e);
        e.finish_with_handles()
    }

    #[test]
    fn one_table_holds_every_job_state_and_survives_a_snapshot() {
        let cfg = ControllerConfig {
            queue: QueueConfig { capacity: 1, max_active: 1, ..Default::default() },
            ..Default::default()
        };
        let mut rt = rt();
        let mut mig = MigrationManager::new(1);
        let mut ctrl = Controller::new(cfg.clone());
        ctrl.attach(&mut rt.engine, &rt.cluster);
        // Job 0 finishes alone; 1 runs long, 2 queues behind it, 3 bounces
        // off the full queue, and 4 arrives much later.
        for (i, (at, cpu_secs)) in
            [(0, 0.2), (30, 60.0), (31, 0.2), (32, 0.2), (1000, 0.2)].into_iter().enumerate()
        {
            let job = load_job(i as u32, 2, cpu_secs);
            ctrl.schedule(&mut rt.engine, SimTime::from_secs(at), i as u32 % 2, 1.0, job);
        }
        let mut done = drive_until(&mut ctrl, &mut rt, &mut mig, |c| c.jobs[3].arrival.is_some());
        assert_eq!(done.len(), 1, "job 0 finished before the instant");

        let at = |s: u64| Some(SimTime::from_secs(s));
        let j = ctrl.jobs();
        assert!(j[0].finished.is_some() && j[0].job.is_none(), "job 0 finished");
        assert!(j[1].started.is_some() && j[1].finished.is_none(), "job 1 runs");
        assert_eq!((j[2].arrival, j[2].admitted, j[2].started), (at(31), true, None), "queued");
        assert!(j[2].job.is_some(), "a queued job holds its submission");
        assert_eq!((j[3].arrival, j[3].admitted), (at(32), false), "job 3 was rejected");
        assert!(j[3].job.is_none(), "a rejected job drops its submission");
        assert!(j[4].arrival.is_none() && j[4].job.is_some(), "job 4 is still scheduled");
        assert_eq!(ctrl.queue, vec![2]);
        assert_eq!(ctrl.active.values().copied().collect::<Vec<_>>(), vec![1]);
        let rep = ctrl.slo_report();
        assert_eq!(
            (rep.jobs, rep.admitted, rep.rejected, rep.started, rep.finished, rep.starved),
            (4, 3, 1, 2, 1, 1),
            "the report counts the four arrived jobs only"
        );

        let (bytes, handles) = snapshot(&ctrl, &mut rt, &mig);
        let mut rt2 = self::rt();
        let mut mig2 = MigrationManager::new(1);
        let mut ctrl2 = Controller::new(cfg);
        ctrl2.attach(&mut rt2.engine, &rt2.cluster);
        let mut d = Decoder::with_handles(&bytes, &handles);
        rt2.engine = Engine::decode_state(&mut d);
        rt2.cluster.restore_state(&mut d);
        rt2.hdfs.restore_state(&mut d);
        rt2.mr.restore_state(&mut d);
        mig2.restore_state(&mut d);
        ctrl2.restore_state(&mut d);
        assert!(d.is_exhausted(), "the snapshot decodes to its last byte");
        assert_eq!(ctrl2.slo_report(), rep);

        let rest = drive_until(&mut ctrl2, &mut rt2, &mut mig2, |_| false);
        done.extend(drive_until(&mut ctrl, &mut rt, &mut mig, |_| false));
        assert_eq!(done.len(), 4, "every admitted job finishes");
        assert_eq!(format!("{:?}", &done[1..]), format!("{rest:?}"), "same job results");
        assert_eq!(ctrl2.slo_report(), ctrl.slo_report());
        assert_eq!(ctrl.slo_report().starved, 0);
    }

    #[test]
    fn slo_json_has_the_schema_keys() {
        let ctrl = Controller::new(ControllerConfig::default());
        let want = r#"{
  "report": "slo",
  "jobs": 0,
  "admitted": 0,
  "rejected": 0,
  "started": 0,
  "finished": 0,
  "starved": 0,
  "queue_wait_s": { "p50": 0, "p95": 0, "max": 0 },
  "makespan_s": { "mean": 0, "max": 0 },
  "slowdown": { "mean": 0, "max": 0 },
  "violations": 0,
  "counters": { "queue_depth_hwm": 0, "migrations_planned": 0, "migrations_completed": 0, "migrations_aborted": 0, "rebalance_ticks": 0 }
}
"#;
        assert_eq!(ctrl.slo_report_json(), want);
    }

    #[test]
    fn validate_rejects_zero_max_active() {
        let cfg = ControllerConfig {
            queue: QueueConfig { max_active: 0, ..Default::default() },
            ..Default::default()
        };
        assert!(cfg.validate().unwrap_err().contains("queue.max_active"));
        assert_eq!(ControllerConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_a_zero_rebalance_interval() {
        let cfg = ControllerConfig {
            rebalance: Some(RebalanceConfig { interval: SimDuration::ZERO, ..Default::default() }),
            ..Default::default()
        };
        assert!(cfg.validate().unwrap_err().contains("rebalance.interval"));
        let ok = ControllerConfig { rebalance: Some(RebalanceConfig::default()), ..cfg };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn no_rebalance_config_arms_no_tick() {
        let mut rt = rt();
        let mut ctrl = Controller::new(ControllerConfig::default());
        ctrl.attach(&mut rt.engine, &rt.cluster);
        let mut mig = MigrationManager::new(1);
        ctrl.ensure_tick(&mut rt.engine, &mig);
        assert!(rt.engine.next_wakeup().is_none(), "no timers without rebalance config");
        drive(&mut ctrl, &mut rt, &mut mig);
        assert_eq!(ctrl.counters().rebalance_ticks, 0);
    }
}
