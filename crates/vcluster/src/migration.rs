//! Pre-copy live migration of VMs and whole virtual clusters.
//!
//! Model (Clark et al., NSDI'05, as implemented by Xen):
//!
//! * round 0 pushes the whole guest memory over the wire while the guest
//!   keeps running;
//! * round *i* pushes the pages dirtied during round *i−1*, i.e.
//!   `dirty_rate × t_{i-1}` bytes, where the dirty rate is sampled from a
//!   [`DirtyRateModel`] at each round boundary (so a guest that goes busy
//!   or idle mid-migration changes convergence behaviour);
//! * pre-copy ends — and the **stop-and-copy** phase (guest paused =
//!   downtime) begins — when the next round would be smaller than
//!   [`STOP_THRESHOLD`], after [`MAX_ROUNDS`] rounds, or when cumulative
//!   traffic exceeds [`MAX_TOTAL_FACTOR`] × mem (Xen's giving-up heuristic);
//! * downtime = stop-and-copy transfer + a fixed [`RESUME_LATENCY`]
//!   (device re-attach, ARP advertisement).
//!
//! Every transfer is a fluid flow over [`VirtualCluster::host_transfer_demands`],
//! so migration traffic *contends with the workload's own traffic* — that
//! contention, plus dirty-rate feedback, is exactly what produces the
//! paper's Fig. 5 / Table II shapes (busy clusters migrate ~3× slower and
//! suffer order-of-magnitude larger, highly variable downtime).
//!
//! Simplification: the guest's other activities are not actually paused
//! during stop-and-copy; Hadoop's fault tolerance masks the gap in the
//! paper too ("the MapReduce workloads can be successfully finished").

use crate::cluster::{HostId, VirtualCluster, VmId};
use crate::spec::MIB;
use serde::{Deserialize, Serialize};
use simcore::owners;
use simcore::prelude::*;
use std::collections::{HashMap, VecDeque};

/// Stop-and-copy phase marker stored in the tag's high payload bit.
const STOP_COPY_BIT: u64 = 1 << 63;

/// Marks a retry timer armed after an aborted transfer (fault injection).
const RETRY_BIT: u64 = 1 << 62;

/// Final-round size below which the guest is paused and the residue
/// copied, bytes.
pub const STOP_THRESHOLD: u64 = MIB;
/// Pre-copy rounds before giving up.
pub const MAX_ROUNDS: u32 = 30;
/// Give up pre-copying once cumulative traffic exceeds this multiple of
/// guest memory.
pub const MAX_TOTAL_FACTOR: f64 = 3.0;
/// Fixed tail of the downtime (device re-attach, ARP), independent of the
/// stop-and-copy transfer.
pub const RESUME_LATENCY: SimDuration = SimDuration::from_millis(30);
/// First retry delay after an aborted transfer; doubles per abort of the
/// same VM, up to [`RETRY_BACKOFF_CAP`].
pub const RETRY_BACKOFF_BASE: SimDuration = SimDuration::from_millis(500);
/// Upper bound on the abort-retry delay.
pub const RETRY_BACKOFF_CAP: SimDuration = SimDuration::from_secs(8);

/// Supplies the memory dirty rate (bytes/s) of a VM. Called once per
/// pre-copy round boundary, so implementations may keep per-VM state to
/// compute averages over the elapsed round.
// trait: faked by `ConstantDirtyModel` (unit and integration tests, `VirtLm`)
pub trait DirtyRateModel {
    /// Dirty rate of `vm` over the window since the model was last asked
    /// about it (or instantaneous, for stateless models).
    fn dirty_rate(&mut self, engine: &Engine, cluster: &VirtualCluster, vm: VmId) -> f64;
}

/// Fixed dirty rate for every VM — unit tests and idle-cluster baselines.
#[derive(Debug, Clone, Copy)]
pub struct ConstantDirtyModel(
    /// Bytes/second.
    pub f64,
);

impl DirtyRateModel for ConstantDirtyModel {
    fn dirty_rate(&mut self, _e: &Engine, _c: &VirtualCluster, _vm: VmId) -> f64 {
        self.0
    }
}

/// Idle floor of [`UtilizationDirtyModel`]'s dirty rate, bytes/s.
const DIRTY_BASE: f64 = 0.5e6;
/// Saturation level of its activity-driven term, bytes/s.
const DIRTY_PEAK: f64 = 70e6;
/// Utilization at which the activity term reaches ~63 % of the peak.
const DIRTY_KNEE: f64 = 0.15;
/// Fraction of the VM's I/O byte rate that dirties fresh pages (page-cache
/// fills, shuffle buffers).
const DIRTY_IO_FRACTION: f64 = 0.5;

/// Dirty rate driven by the VM's VCPU utilization **averaged over the
/// elapsed pre-copy round** (exact, via the fluid model's cumulative-work
/// counters) and its I/O byte rate, with a fixed per-VM jitter factor:
/// `(base + peak × (1 − e^(−util/knee)) + io_fraction × io_rate) × jitter(vm)`.
///
/// A wordcount-busy guest dirties its page cache and JVM heap fast; an
/// idle guest only touches kernel housekeeping pages. The jitter models
/// working-set differences between equally-busy guests (the source of the
/// per-node downtime spread in the paper's Fig. 5b).
#[derive(Debug, Clone)]
pub struct UtilizationDirtyModel {
    jitter: Vec<f64>,
    /// Per-VM `(instant, cumulative vcpu work, cumulative I/O bytes)`
    /// marks from the last query.
    marks: std::collections::HashMap<u32, (SimTime, f64, f64)>,
}

simcore::persist_state!(UtilizationDirtyModel { jitter, marks });

impl UtilizationDirtyModel {
    /// The per-VM jitter is drawn from `seed`; the rates are
    /// paper-calibrated. The activity term *saturates*: a guest hosting
    /// task JVMs dirties its whole heap and page cache through GC and
    /// buffer churn even at moderate CPU load, so dirtying ramps to ~70 MB/s
    /// once average utilization clears the knee (15 %). With ±40 % per-VM
    /// jitter the busiest guests brush against the
    /// contended wire bandwidth — which is what makes *some* nodes fail to
    /// converge (big, variable downtime) while others migrate cleanly,
    /// the paper's Fig. 5b picture. I/O adds 50 % of its byte rate.
    pub fn new(vms: u32, seed: RootSeed) -> Self {
        use rand::Rng;
        let mut rng = seed.stream("dirty-jitter");
        let jitter = (0..vms).map(|_| rng.gen_range(0.6..1.4)).collect();
        UtilizationDirtyModel { jitter, marks: std::collections::HashMap::new() }
    }

    /// `(average VCPU utilization, average I/O bytes/s)` of `vm` since the
    /// last query (first query averages from t = 0).
    fn window_averages(
        &mut self,
        engine: &Engine,
        cluster: &VirtualCluster,
        vm: VmId,
    ) -> (f64, f64) {
        let cpu = cluster.vcpu_resource(vm);
        let cap = engine.fluid().capacity(cpu);
        let now = engine.now();
        let cpu_cum = engine.fluid().cumulative(cpu);
        let io_cum = engine.fluid().cumulative(cluster.vio_resource(vm));
        let (t0, c0, i0) =
            self.marks.insert(vm.0, (now, cpu_cum, io_cum)).unwrap_or((SimTime::ZERO, 0.0, 0.0));
        let dt = now.saturating_since(t0).as_secs_f64();
        if dt <= 0.0 || cap <= 0.0 {
            (cluster.vcpu_utilization(engine, vm), 0.0)
        } else {
            (((cpu_cum - c0) / (cap * dt)).clamp(0.0, 1.0), ((io_cum - i0) / dt).max(0.0))
        }
    }
}

impl DirtyRateModel for UtilizationDirtyModel {
    fn dirty_rate(&mut self, engine: &Engine, cluster: &VirtualCluster, vm: VmId) -> f64 {
        let (util, io_rate) = self.window_averages(engine, cluster, vm);
        let activity = DIRTY_PEAK * (1.0 - (-util / DIRTY_KNEE).exp());
        let j = self.jitter.get(vm.0 as usize).copied().unwrap_or(1.0);
        (DIRTY_BASE + activity + DIRTY_IO_FRACTION * io_rate) * j
    }
}

/// Why pre-copy ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// Next round fell below the stop threshold (clean convergence).
    Converged,
    /// Round budget exhausted.
    MaxRounds,
    /// Cumulative traffic exceeded `max_total_factor × mem`.
    TrafficBudget,
}

/// Outcome of one VM's migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmMigrationReport {
    /// Which VM.
    pub vm: u32,
    /// Source host.
    pub src: u32,
    /// Destination host.
    pub dst: u32,
    /// Guest memory, bytes.
    pub mem: u64,
    /// Pre-copy rounds executed (round 0 included).
    pub rounds: u32,
    /// Total bytes pushed over the wire (all rounds + stop-and-copy).
    pub transferred: f64,
    /// Wall time from migration start to guest running on `dst`.
    pub migration_time: SimDuration,
    /// Guest pause: stop-and-copy transfer + resume latency.
    pub downtime: SimDuration,
    /// Why pre-copy stopped.
    pub stop_reason: StopReason,
    /// Injected transfer aborts this VM survived before completing
    /// (each restarts pre-copy from round 0 after exponential backoff).
    pub aborts: u32,
}

/// Outcome of a whole-cluster migration (Virt-LM style aggregate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterMigrationReport {
    /// Per-VM outcomes in completion order.
    pub per_vm: Vec<VmMigrationReport>,
    /// Start of the first VM's migration to end of the last.
    pub total_time: SimDuration,
    /// Sum of per-VM downtimes ("overall downtime" in the paper's Table II).
    pub total_downtime: SimDuration,
    /// Largest single-VM downtime.
    pub max_downtime: SimDuration,
}

/// Progress events surfaced to the platform driver.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationEvent {
    /// One VM finished migrating and now runs on its destination host.
    VmDone(VmMigrationReport),
    /// Every requested VM finished.
    AllDone(ClusterMigrationReport),
}

#[derive(Debug)]
struct VmJob {
    vm: VmId,
    src: HostId,
    dst: HostId,
    mem: u64,
    started: SimTime,
    round: u32,
    round_started: SimTime,
    transferred: f64,
    stop_started: Option<SimTime>,
    stop_reason: StopReason,
    /// The in-flight transfer, so an injected abort can cancel it.
    flow: Option<ActivityId>,
}

simcore::persist_enum!(StopReason { 0 => Converged, 1 => MaxRounds, 2 => TrafficBudget });
simcore::persist_struct!(VmMigrationReport {
    vm,
    src,
    dst,
    mem,
    rounds,
    transferred,
    migration_time,
    downtime,
    stop_reason,
    aborts,
});
simcore::persist_struct!(ClusterMigrationReport {
    per_vm,
    total_time,
    total_downtime,
    max_downtime
});
simcore::persist_struct!(VmJob {
    vm,
    src,
    dst,
    mem,
    started,
    round,
    round_started,
    transferred,
    stop_started,
    stop_reason,
    flow,
});

/// Orchestrates pre-copy migrations; owns no engine — the platform passes
/// `&mut Engine` into each call and routes `owners::MIGRATION` wakeups here.
#[derive(Debug)]
pub struct MigrationManager {
    /// How many VMs migrate at once (Xen-era toolstacks migrate
    /// sequentially: 1).
    concurrency: u32,
    jobs: HashMap<u32, VmJob>,
    queue: VecDeque<(VmId, HostId)>,
    active: u32,
    session_started: Option<SimTime>,
    finished: Vec<VmMigrationReport>,
    expected: usize,
    /// VMs whose transfer was aborted, waiting out their backoff timer.
    retrying: HashMap<u32, HostId>,
    /// Per-VM abort count within the current session (drives the backoff).
    aborts: HashMap<u32, u32>,
}

// Everything but the launch-time concurrency; maps are written in key order.
simcore::persist_state!(MigrationManager {
    jobs,
    queue,
    active,
    session_started,
    finished,
    expected,
    retrying,
    aborts,
});

impl MigrationManager {
    /// New manager migrating up to `concurrency` VMs at once.
    pub fn new(concurrency: u32) -> Self {
        MigrationManager {
            concurrency,
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            active: 0,
            session_started: None,
            finished: Vec::new(),
            expected: 0,
            retrying: HashMap::new(),
            aborts: HashMap::new(),
        }
    }

    /// True while any migration is queued, in flight, or backing off after
    /// an injected abort.
    pub fn busy(&self) -> bool {
        self.active > 0 || !self.queue.is_empty() || !self.retrying.is_empty()
    }

    /// Starts migrating `vms` to `dst`, honouring the concurrency limit.
    ///
    /// # Panics
    /// If a migration session is already in progress, or any VM already
    /// lives on `dst`.
    pub fn start_cluster_migration(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        vms: &[VmId],
        dst: HostId,
    ) {
        let moves: Vec<(VmId, HostId)> = vms.iter().map(|&vm| (vm, dst)).collect();
        self.start_moves(engine, cluster, &moves);
    }

    /// Starts a migration session over an explicit per-VM move plan — the
    /// general form of [`MigrationManager::start_cluster_migration`], used
    /// by the rebalancing control plane where different VMs head to
    /// different hosts.
    ///
    /// # Panics
    /// If a migration session is already in progress, or any VM already
    /// lives on its requested destination.
    pub fn start_moves(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        moves: &[(VmId, HostId)],
    ) {
        assert!(!self.busy(), "migration session already in progress");
        assert!(!moves.is_empty(), "nothing to migrate");
        self.session_started = Some(engine.now());
        self.finished.clear();
        self.aborts.clear();
        self.expected = moves.len();
        for &(vm, dst) in moves {
            assert_ne!(cluster.host_of(vm), dst, "{vm} already on {dst}");
            self.queue.push_back((vm, dst));
        }
        let slots = self.concurrency.max(1);
        for _ in 0..slots {
            self.launch_next(engine, cluster);
        }
    }

    fn launch_next(&mut self, engine: &mut Engine, cluster: &VirtualCluster) {
        let Some((vm, dst)) = self.queue.pop_front() else {
            return;
        };
        let src = cluster.host_of(vm);
        let mem = cluster.vm_mem(vm);
        let now = engine.now();
        let job = VmJob {
            vm,
            src,
            dst,
            mem,
            started: now,
            round: 0,
            round_started: now,
            transferred: 0.0,
            stop_started: None,
            stop_reason: StopReason::Converged,
            flow: None,
        };
        self.jobs.insert(vm.0, job);
        self.active += 1;
        // Round 0: push the whole guest memory.
        self.start_round_flow(engine, cluster, vm, mem as f64, false);
    }

    fn start_round_flow(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        vm: VmId,
        bytes: f64,
        stop_copy: bool,
    ) {
        let job = self.jobs.get_mut(&vm.0).expect("job exists");
        job.round_started = engine.now();
        job.transferred += bytes;
        let demands = cluster.host_transfer_demands(job.src, job.dst);
        let b = u64::from(job.round) | if stop_copy { STOP_COPY_BIT } else { 0 };
        let tag = Tag::new(owners::MIGRATION, vm.0, b);
        job.flow = Some(engine.start_flow(demands, bytes.max(1.0), tag));
    }

    /// Aborts every in-flight transfer (an injected fault: source toolstack
    /// dies mid-pre-copy, TCP stream resets, ...). Each aborted VM loses
    /// its progress, waits out a capped exponential backoff
    /// ([`RETRY_BACKOFF_BASE`] × 2^(aborts−1), at most [`RETRY_BACKOFF_CAP`])
    /// and then restarts from round 0. Queued, not-yet-started VMs are
    /// untouched. Returns the aborted VM ids; a no-op (empty) when nothing
    /// is in flight.
    pub fn abort_active(&mut self, engine: &mut Engine) -> Vec<u32> {
        let mut vms: Vec<u32> = self.jobs.keys().copied().collect();
        vms.sort_unstable();
        for &vm in &vms {
            let job = self.jobs.remove(&vm).expect("listed job exists");
            if let Some(flow) = job.flow {
                engine.cancel_activity(flow);
            }
            self.active -= 1;
            let n = self.aborts.entry(vm).or_insert(0);
            *n += 1;
            let exp = (*n - 1).min(16);
            let delay = (RETRY_BACKOFF_BASE * (1u64 << exp)).min(RETRY_BACKOFF_CAP);
            engine.trace_span(
                "fault",
                "migration_abort",
                vm,
                job.round_started,
                &[("round", f64::from(job.round)), ("attempt", f64::from(*n))],
            );
            self.retrying.insert(vm, job.dst);
            engine.set_timer_in(delay, Tag::new(owners::MIGRATION, vm, RETRY_BIT));
        }
        vms
    }

    /// Handles an `owners::MIGRATION` wakeup; returns any completions.
    pub fn on_wakeup(
        &mut self,
        engine: &mut Engine,
        cluster: &mut VirtualCluster,
        dirty: &mut dyn DirtyRateModel,
        wakeup: &Wakeup,
    ) -> Vec<MigrationEvent> {
        match wakeup {
            Wakeup::Activity { tag, .. } => {
                debug_assert_eq!(tag.owner, owners::MIGRATION);
                let vm = VmId(tag.a);
                let stop_copy = tag.b & STOP_COPY_BIT != 0;
                if stop_copy {
                    self.finish_vm(engine, cluster, vm)
                } else {
                    self.round_done(engine, cluster, dirty, vm);
                    Vec::new()
                }
            }
            // Backoff expired after an injected abort: re-queue the VM and
            // restart it as soon as a concurrency slot is free.
            Wakeup::Timer { tag, .. } if tag.b & RETRY_BIT != 0 => {
                debug_assert_eq!(tag.owner, owners::MIGRATION);
                if let Some(dst) = self.retrying.remove(&tag.a) {
                    self.queue.push_back((VmId(tag.a), dst));
                    let slots = self.concurrency.max(1);
                    while self.active < slots && !self.queue.is_empty() {
                        self.launch_next(engine, cluster);
                    }
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn round_done(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        dirty: &mut dyn DirtyRateModel,
        vm: VmId,
    ) {
        // A transfer finishing at the very instant an abort removed its job
        // still delivers its queued wakeup; ignore it.
        if !self.jobs.contains_key(&vm.0) {
            return;
        }
        let now = engine.now();
        let rate = dirty.dirty_rate(engine, cluster, vm);
        let (next_bytes, decision) = {
            let job = self.jobs.get_mut(&vm.0).expect("checked above");
            let elapsed = now.saturating_since(job.round_started).as_secs_f64();
            engine.trace_span(
                "migration",
                "precopy_round",
                vm.0,
                job.round_started,
                &[("round", f64::from(job.round))],
            );
            // Pages dirtied during the round we just sent; can never exceed
            // guest memory.
            let next = (rate * elapsed).min(job.mem as f64);
            job.round += 1;
            let decision = if next <= STOP_THRESHOLD as f64 {
                Some(StopReason::Converged)
            } else if job.round >= MAX_ROUNDS {
                Some(StopReason::MaxRounds)
            } else if job.transferred + next > MAX_TOTAL_FACTOR * job.mem as f64 {
                Some(StopReason::TrafficBudget)
            } else {
                None
            };
            if let Some(reason) = decision {
                job.stop_reason = reason;
                job.stop_started = Some(now);
            }
            (next, decision)
        };
        // Stop-and-copy pushes the residual dirty set with the guest paused;
        // another pre-copy round pushes it with the guest running.
        self.start_round_flow(engine, cluster, vm, next_bytes, decision.is_some());
    }

    fn finish_vm(
        &mut self,
        engine: &mut Engine,
        cluster: &mut VirtualCluster,
        vm: VmId,
    ) -> Vec<MigrationEvent> {
        let now = engine.now();
        let Some(job) = self.jobs.remove(&vm.0) else {
            // Stale stop-copy completion of an aborted job (see round_done).
            return Vec::new();
        };
        self.active -= 1;
        cluster.set_host(job.vm, job.dst);
        let stop_started = job.stop_started.expect("stop phase was entered");
        let downtime = now.saturating_since(stop_started) + RESUME_LATENCY;
        engine.trace_span("migration", "stop_and_copy", vm.0, stop_started, &[]);
        engine.trace_span(
            "migration",
            "migrate_vm",
            vm.0,
            job.started,
            &[
                ("mem", job.mem as f64),
                ("rounds", f64::from(job.round)),
                ("downtime_ms", downtime.as_millis_f64()),
            ],
        );
        let report = VmMigrationReport {
            vm: job.vm.0,
            src: job.src.0,
            dst: job.dst.0,
            mem: job.mem,
            rounds: job.round,
            transferred: job.transferred,
            migration_time: (now + RESUME_LATENCY).saturating_since(job.started),
            downtime,
            stop_reason: job.stop_reason,
            aborts: self.aborts.get(&vm.0).copied().unwrap_or(0),
        };
        self.finished.push(report.clone());
        let mut events = vec![MigrationEvent::VmDone(report)];

        self.launch_next(engine, cluster);
        if self.active == 0 && self.queue.is_empty() && self.finished.len() == self.expected {
            let started = self.session_started.take().expect("session was started");
            let total_time = (now + RESUME_LATENCY).saturating_since(started);
            let total_downtime =
                self.finished.iter().fold(SimDuration::ZERO, |acc, r| acc + r.downtime);
            let max_downtime =
                self.finished.iter().map(|r| r.downtime).max().unwrap_or(SimDuration::ZERO);
            events.push(MigrationEvent::AllDone(ClusterMigrationReport {
                per_vm: std::mem::take(&mut self.finished),
                total_time,
                total_downtime,
                max_downtime,
            }));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, Placement};

    fn setup(vms: u32) -> (Engine, VirtualCluster) {
        let mut e = Engine::new();
        let spec =
            ClusterSpec::builder().hosts(2).vms(vms).placement(Placement::SingleDomain).build();
        let c = VirtualCluster::new(&mut e, spec);
        (e, c)
    }

    /// Drives an already-started session to completion.
    fn drive(
        e: &mut Engine,
        c: &mut VirtualCluster,
        mgr: &mut MigrationManager,
        dirty: &mut dyn DirtyRateModel,
    ) -> ClusterMigrationReport {
        while let Some((_, w)) = e.next_wakeup() {
            if w.tag().owner == owners::MIGRATION {
                for ev in mgr.on_wakeup(e, c, dirty, &w) {
                    if let MigrationEvent::AllDone(rep) = ev {
                        return rep;
                    }
                }
            }
        }
        panic!("migration never completed");
    }

    /// Runs a migration session to completion, returning the final report.
    fn run_migration(
        e: &mut Engine,
        c: &mut VirtualCluster,
        mgr: &mut MigrationManager,
        dirty: &mut dyn DirtyRateModel,
        vms: &[VmId],
    ) -> ClusterMigrationReport {
        mgr.start_cluster_migration(e, c, vms, HostId(1));
        drive(e, c, mgr, dirty)
    }

    #[test]
    fn idle_vm_converges_in_two_rounds() {
        let (mut e, mut c) = setup(1);
        let mut mgr = MigrationManager::new(1);
        let mut dirty = ConstantDirtyModel(0.5e6);
        let rep = run_migration(&mut e, &mut c, &mut mgr, &mut dirty, &[VmId(0)]);
        let vm = &rep.per_vm[0];
        assert_eq!(vm.stop_reason, StopReason::Converged);
        assert!(vm.rounds <= 3, "idle guest converges fast, took {} rounds", vm.rounds);
        // 1 GiB at 125 MB/s ≈ 8.6 s.
        let t = vm.migration_time.as_secs_f64();
        assert!((7.0..12.0).contains(&t), "idle migration ≈ 8.6 s, got {t}");
        // Downtime ≈ resume latency.
        assert!(vm.downtime.as_millis_f64() < 100.0, "idle downtime small, got {}", vm.downtime);
        assert_eq!(c.host_of(VmId(0)), HostId(1), "VM re-homed");
    }

    #[test]
    fn busy_vm_migrates_longer_with_bigger_downtime() {
        let (mut e, mut c) = setup(2);
        let mut mgr = MigrationManager::new(1);
        let mut idle = ConstantDirtyModel(0.5e6);
        let idle_rep = run_migration(&mut e, &mut c, &mut mgr, &mut idle, &[VmId(0)]);

        let mut busy = ConstantDirtyModel(90e6); // heavy writer
        let busy_rep = run_migration(&mut e, &mut c, &mut mgr, &mut busy, &[VmId(1)]);

        let (i, b) = (&idle_rep.per_vm[0], &busy_rep.per_vm[0]);
        assert!(
            b.migration_time.as_secs_f64() > 2.0 * i.migration_time.as_secs_f64(),
            "busy migration ({}) ≫ idle ({})",
            b.migration_time,
            i.migration_time
        );
        assert!(
            b.downtime.as_secs_f64() > 5.0 * i.downtime.as_secs_f64(),
            "busy downtime ({}) ≫ idle ({})",
            b.downtime,
            i.downtime
        );
        assert_eq!(b.stop_reason, StopReason::TrafficBudget);
    }

    #[test]
    fn migration_time_scales_with_memory() {
        let run_with_mem = |mib: u64| {
            let mut e = Engine::new();
            let spec = ClusterSpec::builder()
                .hosts(2)
                .vms(1)
                .vm_mem_mib(mib)
                .placement(Placement::SingleDomain)
                .build();
            let mut c = VirtualCluster::new(&mut e, spec);
            let mut mgr = MigrationManager::new(1);
            let mut dirty = ConstantDirtyModel(0.5e6);
            run_migration(&mut e, &mut c, &mut mgr, &mut dirty, &[VmId(0)]).per_vm[0]
                .migration_time
                .as_secs_f64()
        };
        let t512 = run_with_mem(512);
        let t1024 = run_with_mem(1024);
        assert!(
            t1024 > 1.7 * t512,
            "migration time ∝ memory: 512 MB → {t512:.2}s, 1024 MB → {t1024:.2}s"
        );
    }

    #[test]
    fn cluster_migration_is_sequential_by_default() {
        let (mut e, mut c) = setup(4);
        let mut mgr = MigrationManager::new(1);
        let mut dirty = ConstantDirtyModel(0.5e6);
        let vms: Vec<VmId> = (0..4).map(VmId).collect();
        let rep = run_migration(&mut e, &mut c, &mut mgr, &mut dirty, &vms);
        assert_eq!(rep.per_vm.len(), 4);
        // Sequential: total ≈ 4 × single time.
        let single = rep.per_vm[0].migration_time.as_secs_f64();
        let total = rep.total_time.as_secs_f64();
        assert!(
            (total - 4.0 * single).abs() < single,
            "sequential total ≈ 4×single: total {total:.1}, single {single:.1}"
        );
        for vm in 0..4 {
            assert_eq!(c.host_of(VmId(vm)), HostId(1));
        }
    }

    #[test]
    fn concurrent_migration_shares_the_wire() {
        let (mut e, mut c) = setup(4);
        let mut mgr = MigrationManager::new(4);
        let mut dirty = ConstantDirtyModel(0.5e6);
        let vms: Vec<VmId> = (0..4).map(VmId).collect();
        let rep = run_migration(&mut e, &mut c, &mut mgr, &mut dirty, &vms);
        // All four share the wire: each single migration ≈ 4 × solo time,
        // but the total is about the same as sequential.
        let per_vm = rep.per_vm[0].migration_time.as_secs_f64();
        assert!(per_vm > 25.0, "concurrent per-VM time inflated, got {per_vm:.1}");
    }

    #[test]
    fn reports_account_transferred_bytes() {
        let (mut e, mut c) = setup(1);
        let mut mgr = MigrationManager::new(1);
        let mut dirty = ConstantDirtyModel(0.5e6);
        let rep = run_migration(&mut e, &mut c, &mut mgr, &mut dirty, &[VmId(0)]);
        let vm = &rep.per_vm[0];
        assert!(vm.transferred >= vm.mem as f64, "at least one full memory pass is transferred");
        assert!(vm.transferred <= 3.5 * vm.mem as f64, "traffic budget bounds total transfer");
    }

    #[test]
    fn aborted_migration_retries_and_completes() {
        let (mut e, mut c) = setup(1);
        let mut mgr = MigrationManager::new(1);
        let mut dirty = ConstantDirtyModel(0.5e6);
        mgr.start_cluster_migration(&mut e, &c, &[VmId(0)], HostId(1));
        assert_eq!(mgr.abort_active(&mut e), vec![0], "round-0 transfer was in flight");
        assert!(mgr.busy(), "backing off still counts as busy");
        assert!(mgr.abort_active(&mut e).is_empty(), "nothing left in flight to abort");
        let rep = drive(&mut e, &mut c, &mut mgr, &mut dirty);
        let vm = &rep.per_vm[0];
        assert_eq!(vm.aborts, 1);
        assert_eq!(c.host_of(VmId(0)), HostId(1), "retry still re-homes the VM");
        // The session clock includes the lost attempt + 500 ms backoff.
        assert!(rep.total_time >= vm.migration_time + SimDuration::from_millis(500));
        assert!(!mgr.busy());
    }

    #[test]
    fn repeated_aborts_back_off_exponentially() {
        let (mut e, mut c) = setup(1);
        let mut mgr = MigrationManager::new(1);
        let mut dirty = ConstantDirtyModel(0.5e6);
        mgr.start_cluster_migration(&mut e, &c, &[VmId(0)], HostId(1));
        let mut restarted_at = Vec::new();
        for _ in 0..2 {
            let aborted_at = e.now();
            assert_eq!(mgr.abort_active(&mut e), vec![0]);
            while mgr.jobs.is_empty() {
                let (_, w) = e.next_wakeup().expect("retry timer pending");
                if w.tag().owner == owners::MIGRATION {
                    mgr.on_wakeup(&mut e, &mut c, &mut dirty, &w);
                }
            }
            restarted_at.push(e.now().saturating_since(aborted_at));
        }
        assert_eq!(restarted_at[0], SimDuration::from_millis(500));
        assert_eq!(restarted_at[1], SimDuration::from_millis(1000), "second abort waits 2× base");
        let rep = drive(&mut e, &mut c, &mut mgr, &mut dirty);
        assert_eq!(rep.per_vm[0].aborts, 2);
        assert_eq!(c.host_of(VmId(0)), HostId(1));
    }

    #[test]
    fn start_moves_honours_per_vm_destinations() {
        let mut e = Engine::new();
        let spec =
            ClusterSpec::builder().hosts(2).vms(2).placement(Placement::Custom(vec![0, 1])).build();
        let mut c = VirtualCluster::new(&mut e, spec);
        let mut mgr = MigrationManager::new(1);
        let mut dirty = ConstantDirtyModel(0.5e6);
        mgr.start_moves(&mut e, &c, &[(VmId(0), HostId(1)), (VmId(1), HostId(0))]);
        let rep = drive(&mut e, &mut c, &mut mgr, &mut dirty);
        assert_eq!(rep.per_vm.len(), 2);
        assert_eq!(c.host_of(VmId(0)), HostId(1));
        assert_eq!(c.host_of(VmId(1)), HostId(0), "each VM reached its own destination");
        assert!(!mgr.busy());
    }

    #[test]
    #[should_panic(expected = "already on")]
    fn rejects_migrating_to_current_host() {
        let (mut e, c) = setup(1);
        let mut mgr = MigrationManager::new(1);
        mgr.start_cluster_migration(&mut e, &c, &[VmId(0)], HostId(0));
    }
}
