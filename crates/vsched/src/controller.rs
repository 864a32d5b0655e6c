//! The closed-loop controller: admission + start pump + rebalance ticks.
//!
//! One [`Controller`] owns the admission queue, SLO tracker, and (when
//! configured) a [`crate::rebalance::Rebalancer`]. The host
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
use crate::queue::{
    rejoin, slo_report_json, AdmissionQueue, JobSlo, QueueConfig, QueuedJob, SloReport, SloTracker,
};
use crate::rebalance::{RebalanceConfig, RebalanceMode, Rebalancer};
use mapreduce::job::JobEvent;
use mapreduce::runtime::{MrRuntime, PendingJob};
use simcore::owners;
use simcore::prelude::*;
use std::collections::HashMap;
use vcluster::cluster::{HostId, VirtualCluster, VmId};
use vcluster::energy::{EnergyMeter, EnergyReport};
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
}

/// Monotonic controller counters (exported into `MetricsSnapshot`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ControllerCounters {
    /// Jobs presented to admission.
    pub jobs_offered: u64,
    /// Jobs admitted into the queue.
    pub jobs_admitted: u64,
    /// Jobs bounced off the full queue.
    pub jobs_rejected: u64,
    /// Jobs handed to the JobTracker.
    pub jobs_started: u64,
    /// Jobs that completed.
    pub jobs_finished: u64,
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
    /// Consolidation plans fired.
    pub consolidations: u64,
    /// SLO violations accumulated so far.
    pub slo_violations: u64,
}

simcore::persist_struct!(ControllerCounters {
    jobs_offered,
    jobs_admitted,
    jobs_rejected,
    jobs_started,
    jobs_finished,
    queue_depth_hwm,
    migrations_planned,
    migrations_completed,
    migrations_aborted,
    rebalance_ticks,
    consolidations,
    slo_violations,
});

#[derive(Debug)]
struct FutureArrival {
    tenant: u32,
    expected_s: f64,
    job: PendingJob,
}

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
    queue: AdmissionQueue,
    slo: SloTracker,
    rebalancer: Option<Rebalancer>,
    counters: ControllerCounters,
    /// Scheduled-but-not-yet-arrived jobs, keyed by controller job id.
    future: HashMap<u32, FutureArrival>,
    /// JobTracker id → controller job id for running jobs.
    active: HashMap<u32, u32>,
    next_ctrl_id: u32,
    tick_armed: bool,
    energy: Option<EnergyMeter>,
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

impl Controller {
    /// New controller; call [`Controller::attach`] once the platform's
    /// engine and cluster exist.
    pub fn new(cfg: ControllerConfig) -> Self {
        let rebalancer = None; // sized at attach time (needs the host count)
        Controller {
            queue: AdmissionQueue::new(cfg.queue.clone()),
            slo: SloTracker::default(),
            rebalancer,
            counters: ControllerCounters::default(),
            future: HashMap::new(),
            active: HashMap::new(),
            next_ctrl_id: 0,
            tick_armed: false,
            energy: None,
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
    /// starts the energy meter, interns counter names.
    pub fn attach(&mut self, engine: &mut Engine, cluster: &VirtualCluster) {
        if let Some(rb) = &self.cfg.rebalance {
            self.rebalancer = Some(Rebalancer::new(rb.clone(), cluster.host_count()));
        }
        self.energy = Some(EnergyMeter::start(engine, cluster));
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
        let id = self.next_ctrl_id;
        self.next_ctrl_id += 1;
        self.future.insert(id, FutureArrival { tenant, expected_s, job });
        // set_timer_at clamps past instants to now, so schedules built
        // before launch are safe.
        engine.set_timer_at(at, Tag::new(owners::CTRL, id, ARRIVAL));
        id
    }

    /// Admits `job` (or rejects it at a full queue) and pumps starts.
    fn admit(
        &mut self,
        rt: &mut MrRuntime,
        migration: &mut MigrationManager,
        ctrl_id: u32,
        tenant: u32,
        expected_s: f64,
        job: PendingJob,
    ) {
        let now = rt.engine.now();
        self.counters.jobs_offered += 1;
        let admitted =
            self.queue.offer(QueuedJob { ctrl_id, tenant, arrival: now, expected_s, job });
        self.slo.record_arrival(ctrl_id, tenant, now, expected_s, admitted);
        if admitted {
            self.counters.jobs_admitted += 1;
            rt.engine.trace_span(
                "ctrl",
                "admit",
                0,
                now,
                &[("job", f64::from(ctrl_id)), ("tenant", f64::from(tenant))],
            );
        } else {
            self.counters.jobs_rejected += 1;
            rt.engine.trace_span(
                "ctrl",
                "reject",
                0,
                now,
                &[("job", f64::from(ctrl_id)), ("tenant", f64::from(tenant))],
            );
        }
        self.counters.queue_depth_hwm = self.queue.depth_hwm() as u64;
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
            ARRIVAL => {
                if let Some(f) = self.future.remove(&tag.a) {
                    self.admit(rt, migration, tag.a, f.tenant, f.expected_s, f.job);
                }
            }
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
        self.counters.jobs_finished += 1;
        self.counters.slo_violations += self.slo.record_finish(ctrl_id, now);
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
        if let Some(rb) = &mut self.rebalancer {
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
                let plan = rb.plan(now, &rt.cluster, &loads);
                if !plan.moves.is_empty() {
                    if rb.config().mode == RebalanceMode::WhatIf && !plan.consolidation {
                        // Defer: park every viable relief plan for the
                        // platform to fork-and-measure.
                        let src = rt.cluster.host_of(plan.moves[0].0);
                        let hint = rb.config().hint;
                        let cpu: Vec<f64> = loads.iter().map(|l| l.cpu).collect();
                        let model = &self.cfg.model;
                        let candidates: Vec<WhatIfCandidate> = rb
                            .candidate_plans(&rt.cluster, src, &loads)
                            .into_iter()
                            .map(|p| WhatIfCandidate {
                                estimated_s: estimate_plan(
                                    &rt.cluster,
                                    &p.moves,
                                    &hint,
                                    &cpu,
                                    model,
                                ),
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
                        if plan.consolidation {
                            self.counters.consolidations += 1;
                        }
                        rt.engine.trace_span(
                            "ctrl",
                            if plan.consolidation { "consolidate" } else { "plan_migration" },
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
        while self.active.len() < self.queue.config().max_active {
            let Some(qj) = self.queue.pop_next() else { break };
            let now = rt.engine.now();
            self.slo.record_start(qj.ctrl_id, now);
            self.counters.jobs_started += 1;
            // The retroactive wait span covers admission → start.
            rt.engine.trace_span(
                "ctrl",
                "queue_wait",
                0,
                qj.arrival,
                &[("job", f64::from(qj.ctrl_id))],
            );
            rt.engine.trace_span(
                "ctrl",
                "start_job",
                0,
                now,
                &[("job", f64::from(qj.ctrl_id)), ("tenant", f64::from(qj.tenant))],
            );
            let job_id = qj.job.submit(rt);
            self.active.insert(job_id.0, qj.ctrl_id);
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
            || !self.future.is_empty()
            || migration.busy();
        if work {
            self.tick_armed = true;
            engine.set_timer_in(rb.interval, Tag::new(owners::CTRL, 0, TICK));
        }
    }

    /// True while jobs are queued, running, or still to arrive.
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.active.is_empty() || !self.future.is_empty()
    }

    /// Monotonic counters so far.
    pub fn counters(&self) -> &ControllerCounters {
        &self.counters
    }

    /// Aggregate SLO statistics so far.
    pub fn slo_report(&self) -> SloReport {
        self.slo.report()
    }

    /// Per-job SLO records in arrival order (queue-policy forensics).
    pub fn job_slos(&self) -> &[JobSlo] {
        self.slo.jobs()
    }

    /// The SLO report rendered as the JSON document CI validates.
    pub fn slo_report_json(&self) -> String {
        slo_report_json(&self.slo.report(), &self.counters)
    }

    /// Energy consumed since [`Controller::attach`], for the
    /// consolidation report. `None` before attach.
    pub fn energy_report(&self, engine: &Engine, cluster: &VirtualCluster) -> Option<EnergyReport> {
        self.energy.as_ref().map(|m| m.report(engine, cluster))
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

    /// Clones of every deferred job the controller still holds (queued in
    /// admission or scheduled for a future arrival), keyed by controller
    /// id — the out-of-band half of a snapshot.
    pub fn job_residue(&self) -> Vec<(u32, PendingJob)> {
        let mut out = self.queue.job_residue();
        out.extend(self.future.iter().map(|(&id, f)| (id, f.job.clone())));
        out.sort_by_key(|&(id, _)| id);
        out
    }

    /// Encodes all dynamic controller state. Config, placement, and
    /// interned counter names are not encoded: a restored controller is
    /// rebuilt by a fresh launch from the same config, which re-derives
    /// them identically.
    pub fn encode_state(&self, e: &mut Encoder) {
        self.counters.encode(e);
        self.queue.encode_state(e);
        self.slo.encode_state(e);
        self.rebalancer.is_some().encode(e);
        if let Some(rb) = &self.rebalancer {
            rb.encode_state(e);
        }
        let future: HashMap<u32, (u32, f64)> =
            self.future.iter().map(|(&id, f)| (id, (f.tenant, f.expected_s))).collect();
        future.encode(e);
        self.active.encode(e);
        self.next_ctrl_id.encode(e);
        self.tick_armed.encode(e);
        self.energy.is_some().encode(e);
        if let Some(m) = &self.energy {
            m.encode_state(e);
        }
        self.whatif_outcomes.encode(e);
    }

    /// Restores dynamic controller state over a freshly attached
    /// controller; `residue` supplies the deferred jobs by controller id.
    /// Arrival and tick timers come back through the engine snapshot, so
    /// nothing is re-armed here.
    // codec by hand: residue rejoin for future arrivals, and the optional sub-states restore in place
    pub fn restore_state(&mut self, d: &mut Decoder, residue: &HashMap<u32, PendingJob>) {
        self.counters = Persist::decode(d);
        self.queue.restore_state(d, residue);
        self.slo.restore_state(d);
        if bool::decode(d) {
            self.rebalancer
                .as_mut()
                .expect("snapshot has a rebalancer but the relaunched controller does not")
                .restore_state(d);
        }
        let future = HashMap::<u32, (u32, f64)>::decode(d);
        self.future = future
            .into_iter()
            .map(|(id, (tenant, expected_s))| {
                (id, FutureArrival { tenant, expected_s, job: rejoin(residue, id) })
            })
            .collect();
        self.active = Persist::decode(d);
        self.next_ctrl_id = Persist::decode(d);
        self.tick_armed = Persist::decode(d);
        if bool::decode(d) {
            self.energy
                .as_mut()
                .expect("snapshot has an energy meter but the controller is not attached")
                .restore_state(d);
        }
        self.whatif_outcomes = Persist::decode(d);
        self.pending_whatif = None;
    }
}

/// Prices the post-`moves` VM layout with the configured makespan model,
/// under the current per-host CPU background load.
fn estimate_plan(
    cluster: &VirtualCluster,
    moves: &[(VmId, HostId)],
    hint: &WorkloadHint,
    host_load: &[f64],
    model: &MakespanKind,
) -> f64 {
    let mut map: Vec<u32> = cluster.vms().map(|v| cluster.host_of(v).0).collect();
    for &(vm, dst) in moves {
        map[vm.0 as usize] = dst.0;
    }
    model.estimate(cluster.spec(), &map, hint, host_load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueuePolicy;
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
        let mut dirty = vcluster::migration::ConstantDirtyModel(0.0);
        while let Some((_, w)) = rt.engine.next_wakeup() {
            match w.tag().owner {
                owners::CTRL => ctrl.on_wakeup(rt, mig, &w),
                owners::MIGRATION => {
                    let evs = mig.on_wakeup(&mut rt.engine, &mut rt.cluster, &mut dirty, &w);
                    ctrl.on_migration_events(&evs);
                }
                _ => {
                    for ev in rt.route(&w) {
                        ctrl.on_job_event(rt, mig, &ev);
                    }
                }
            }
        }
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
        assert!(!ctrl.has_work());
        let c = ctrl.counters();
        assert_eq!(c.jobs_admitted, 3);
        assert_eq!(c.jobs_started, 3);
        assert_eq!(c.jobs_finished, 3);
        assert!(c.queue_depth_hwm >= 1, "max_active=1 forces queueing");
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
        let c = *ctrl.counters();
        assert_eq!(c.jobs_offered, 3);
        assert_eq!(c.jobs_rejected, 1);
        assert_eq!(c.jobs_finished, 2);
        assert_eq!(ctrl.slo_report().rejected, 1);
        assert_eq!(ctrl.slo_report().starved, 0);
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
        let jobs = ctrl.slo.jobs();
        let started = |id: u32| jobs.iter().find(|j| j.ctrl_id == id).unwrap().started.unwrap();
        assert!(started(2) < started(1), "the short job must start before the long one");
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
  "counters": { "queue_depth_hwm": 0, "migrations_planned": 0, "migrations_completed": 0, "migrations_aborted": 0, "rebalance_ticks": 0, "consolidations": 0 }
}
"#;
        assert_eq!(ctrl.slo_report_json(), want);
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
