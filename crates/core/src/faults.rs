//! Plan-driven fault injection across the whole platform.
//!
//! [`VHadoop::install_fault_plan`] arms one deterministic engine timer per
//! [`FaultEvent`] (owner [`owners::FAULT`]); when a timer fires, the
//! platform applies the fault to the owning subsystem:
//!
//! * [`FaultKind::NodeCrash`] → [`vhdfs::hdfs::Hdfs::fail_datanode`]
//!   (replica drop + re-replication) **plus**
//!   `MrEngine::lose_tracker` with [`TRACKER_TIMEOUT`] detection latency
//!   and per-task retry backoff;
//! * [`FaultKind::NodeRejoin`] → empty datanode + idle tracker re-admitted;
//! * [`FaultKind::LinkDegrade`] / [`FaultKind::SlowDisk`] /
//!   [`FaultKind::StragglerVm`] → the matching fluid resource's capacity is
//!   scaled down multiplicatively for the fault's duration (stacking
//!   faults multiply; each restore divides the same clamped factor back
//!   out), with a restore timer armed at apply time;
//! * [`FaultKind::MigrationAbort`] → `MigrationManager::abort_active`
//!   (retry with capped exponential backoff).
//!
//! Every applied event is recorded in [`VHadoop::fault_log`], surfaced as
//! a [`PlatformEvent::Fault`], and emitted as a `"fault"`-category trace
//! span, so exported artifacts show what was injected when. Because the
//! whole mechanism is ordinary timers + seedable plans, an injected run
//! replays byte-identically.

use crate::platform::{PlatformEvent, VHadoop};
use simcore::faults::{FaultEvent, FaultKind, FaultPlan};
use simcore::owners;
use simcore::prelude::*;
use std::collections::HashMap;
use vcluster::cluster::{HostId, VmId};

/// Heartbeat timeout after which the JobTracker declares a crashed VM's
/// TaskTracker dead and starts re-queueing its tasks (Hadoop's
/// `mapred.tasktracker.expiry.interval`, scaled to simulation pace).
pub const TRACKER_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Throttle factors are clamped to at least this: a "partition" is a 100×
/// degradation, not zero capacity (a zero-capacity fluid resource would
/// stall its flows forever and break guaranteed termination).
pub const MIN_THROTTLE_FACTOR: f64 = 0.01;

/// Tag payload marking the *apply* timer of event index `tag.a`.
const FAULT_APPLY: u64 = 0;
/// Tag payload marking the *restore* timer of a throttle fault.
const FAULT_RESTORE: u64 = 1;

/// One fault as actually injected, recorded in [`VHadoop::fault_log`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFault {
    /// When it was applied.
    pub at: SimTime,
    /// What was applied.
    pub kind: FaultKind,
    /// Blocks whose last replica died with this fault (crashes only).
    pub lost_blocks: usize,
    /// False when the fault found nothing to act on (crashing an already
    /// dead VM, aborting with no migration in flight, an out-of-range
    /// target) and was skipped.
    pub effective: bool,
}

simcore::persist_struct!(InjectedFault { at, kind, lost_blocks, effective });

/// Which throttle fault is in force; its trace spans are named after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Throttle {
    LinkDegrade,
    SlowDisk,
    StragglerVm,
}

impl Throttle {
    /// The fault's trace span name.
    fn name(self) -> &'static str {
        match self {
            Throttle::LinkDegrade => "link_degrade",
            Throttle::SlowDisk => "slow_disk",
            Throttle::StragglerVm => "straggler_vm",
        }
    }
}

/// A throttle currently in force, so the restore timer can undo exactly
/// what was applied.
#[derive(Debug, Clone, Copy)]
struct ActiveScale {
    resource: ResourceId,
    factor: f64,
    since: SimTime,
    throttle: Throttle,
    track: u32,
}

simcore::persist_enum!(Throttle { 0 => LinkDegrade, 1 => SlowDisk, 2 => StragglerVm });
simcore::persist_struct!(ActiveScale { resource, factor, since, throttle, track });

/// Per-platform fault-injection state (see module docs).
#[derive(Debug, Default)]
pub(crate) struct FaultDriver {
    /// Installed events; a timer's `tag.a` indexes into this.
    events: Vec<FaultEvent>,
    /// Live throttles by event index.
    scales: HashMap<u32, ActiveScale>,
    /// Everything applied so far, in injection order.
    log: Vec<InjectedFault>,
}

// Restores the driver wholesale, replacing whatever a fresh launch
// installed: the snapshot's event list already holds the launch plan plus
// any later `install_fault_plan` additions, and the apply/restore timers
// travel with the engine snapshot, so nothing is re-armed.
simcore::persist_state!(FaultDriver { events, scales, log });

impl FaultDriver {
    /// Arms one apply-timer per event of `plan` (already in injection
    /// order — plans sort at insertion time).
    pub(crate) fn install(&mut self, engine: &mut Engine, plan: &FaultPlan) {
        for &ev in plan.events() {
            let idx = self.events.len() as u32;
            self.events.push(ev);
            engine.set_timer_at(ev.at, Tag::new(owners::FAULT, idx, FAULT_APPLY));
        }
    }
}

impl VHadoop {
    /// Installs `plan` on the running platform: every fault becomes a
    /// deterministic engine timer. May be called repeatedly — plans
    /// accumulate. Events whose instant is already past fire immediately
    /// on the next wakeup.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.faults.install(&mut self.rt.engine, plan);
    }

    /// Every fault injected so far, in injection order.
    pub fn fault_log(&self) -> &[InjectedFault] {
        &self.faults.log
    }

    /// Handles an `owners::FAULT` timer.
    pub(crate) fn on_fault_wakeup(&mut self, tag: Tag) -> Vec<PlatformEvent> {
        match tag.b {
            FAULT_APPLY => self.apply_fault(tag.a),
            FAULT_RESTORE => {
                self.restore_throttle(tag.a);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn apply_fault(&mut self, idx: u32) -> Vec<PlatformEvent> {
        let ev = self.faults.events[idx as usize];
        let now = self.rt.engine.now();
        let mut lost_blocks = 0usize;
        let effective = match ev.kind {
            FaultKind::NodeCrash { vm } => {
                let vm = VmId(vm);
                let mut any = false;
                if vm != self.rt.hdfs.namenode() && vm.0 < self.rt.cluster.spec().vms {
                    if self.rt.hdfs.datanodes().contains(&vm) && self.rt.hdfs.datanodes().len() > 1
                    {
                        let (_, lost) =
                            self.rt.hdfs.fail_datanode(&mut self.rt.engine, &self.rt.cluster, vm);
                        lost_blocks = lost;
                        any = true;
                    }
                    if self.rt.mr.trackers().contains(&vm) {
                        // lose_tracker emits its own tracker_timeout span.
                        self.rt.mr.lose_tracker(
                            &mut self.rt.engine,
                            &self.rt.cluster,
                            vm,
                            TRACKER_TIMEOUT,
                        );
                        any = true;
                    }
                }
                if any {
                    self.rt.engine.trace_span(
                        "fault",
                        "node_crash",
                        vm.0,
                        now,
                        &[("lost_blocks", lost_blocks as f64)],
                    );
                }
                any
            }
            FaultKind::NodeRejoin { vm } => {
                let vmid = VmId(vm);
                let mut any = false;
                if vmid != self.rt.hdfs.namenode() && vm < self.rt.cluster.spec().vms {
                    if !self.rt.hdfs.datanodes().contains(&vmid) {
                        self.rt.hdfs.rejoin_datanode(vmid);
                        any = true;
                    }
                    if !self.rt.mr.trackers().contains(&vmid) {
                        self.rt.mr.rejoin_tracker(&mut self.rt.engine, &self.rt.cluster, vmid);
                        any = true;
                    }
                }
                if any {
                    self.rt.engine.trace_span("fault", "node_rejoin", vm, now, &[]);
                }
                any
            }
            FaultKind::LinkDegrade { host, factor, duration } => {
                if host < self.rt.cluster.spec().hosts {
                    let r = self.rt.cluster.host_nic_resource(HostId(host));
                    self.apply_throttle(idx, r, factor, duration, Throttle::LinkDegrade, host);
                    true
                } else {
                    false
                }
            }
            FaultKind::SlowDisk { factor, duration } => {
                let r = self.rt.cluster.nfs_disk_resource();
                self.apply_throttle(idx, r, factor, duration, Throttle::SlowDisk, u32::MAX);
                true
            }
            FaultKind::StragglerVm { vm, factor, duration } => {
                if vm < self.rt.cluster.spec().vms {
                    let r = self.rt.cluster.vcpu_resource(VmId(vm));
                    self.apply_throttle(idx, r, factor, duration, Throttle::StragglerVm, vm);
                    true
                } else {
                    false
                }
            }
            FaultKind::MigrationAbort => {
                // abort_active emits a per-VM migration_abort span.
                !self.migration.abort_active(&mut self.rt.engine).is_empty()
            }
        };
        let injected = InjectedFault { at: now, kind: ev.kind, lost_blocks, effective };
        self.faults.log.push(injected);
        vec![PlatformEvent::Fault(injected)]
    }

    /// Scales `resource` down by the clamped `factor` and arms the restore
    /// timer. An instant marker span records the injection now; the
    /// matching window span is emitted at restore, covering the outage.
    fn apply_throttle(
        &mut self,
        idx: u32,
        resource: ResourceId,
        factor: f64,
        duration: SimDuration,
        throttle: Throttle,
        track: u32,
    ) {
        let factor = factor.clamp(MIN_THROTTLE_FACTOR, 1.0);
        let now = self.rt.engine.now();
        let cap = self.rt.engine.fluid().capacity(resource);
        self.rt.engine.set_capacity(resource, cap * factor);
        self.rt.engine.trace_span("fault", throttle.name(), track, now, &[("factor", factor)]);
        let scale = ActiveScale { resource, factor, since: now, throttle, track };
        self.faults.scales.insert(idx, scale);
        self.rt.engine.set_timer_in(
            duration.max(SimDuration::from_nanos(1)),
            Tag::new(owners::FAULT, idx, FAULT_RESTORE),
        );
    }

    fn restore_throttle(&mut self, idx: u32) {
        let Some(s) = self.faults.scales.remove(&idx) else {
            return;
        };
        let cap = self.rt.engine.fluid().capacity(s.resource);
        self.rt.engine.set_capacity(s.resource, cap / s.factor);
        let name = s.throttle.name();
        self.rt.engine.trace_span("fault", name, s.track, s.since, &[("factor", s.factor)]);
    }
}
