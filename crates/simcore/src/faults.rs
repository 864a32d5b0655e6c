//! Scriptable, deterministic fault injection.
//!
//! A [`FaultPlan`] is a schedule of [`FaultEvent`]s — *what* goes wrong and
//! *when*, in simulated time. The plan itself is pure data: the platform
//! driver (in the `vhadoop` crate) arms one ordinary engine timer per event
//! (owner [`crate::owners::FAULT`]), so an injected run is still a pure
//! function of configuration + seed and replays byte-identically.
//!
//! Plans are either scripted by hand through the builder-style
//! [`FaultPlan::at`], or generated from a [`FaultProfile`] with
//! [`FaultPlan::random`] for chaos/property testing. Random generation never
//! crashes VM 0 (the namenode/master) and never crashes the same VM twice,
//! so a caller that keeps `max_crashes < replication` can assert that no
//! acknowledged block is ever lost.

use crate::rng::RootSeed;
use crate::time::{SimDuration, SimTime};
use rand::Rng;

/// One kind of injected fault.
///
/// Crash/rejoin faults are permanent state changes; the throttle faults
/// (`LinkDegrade`, `SlowDisk`, `StragglerVm`) carry a `duration` after which
/// the driver restores the scaled capacity, and a multiplicative `factor`
/// in `(0, 1]` (a factor near zero models a partition / a failed device).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A VM dies: its datanode drops out of HDFS (triggering re-replication)
    /// and its tasktracker stops heartbeating (detected after a timeout).
    NodeCrash {
        /// The VM to crash (VM 0 — the master/namenode — is refused).
        vm: u32,
    },
    /// A previously crashed VM rejoins as an empty datanode + idle tracker.
    NodeRejoin {
        /// The VM to bring back.
        vm: u32,
    },
    /// One host's NIC capacity is multiplied by `factor` for `duration`
    /// (a factor near zero partitions the host from the network).
    LinkDegrade {
        /// The host whose uplink degrades.
        host: u32,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
        /// How long the degradation lasts.
        duration: SimDuration,
    },
    /// The shared NFS disk slows by `factor` for `duration`.
    SlowDisk {
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
        /// How long the slowdown lasts.
        duration: SimDuration,
    },
    /// One VM's VCPU is throttled by `factor` for `duration` — the classic
    /// straggler that speculative execution exists to absorb.
    StragglerVm {
        /// The VM to throttle.
        vm: u32,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
        /// How long the throttle lasts.
        duration: SimDuration,
    },
    /// Abort every live-migration transfer currently in flight; the
    /// migration manager retries each aborted VM with capped exponential
    /// backoff. A no-op when no migration is active.
    MigrationAbort,
}

/// A [`FaultKind`] pinned to an instant of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What goes wrong.
    pub kind: FaultKind,
}

crate::persist_enum!(FaultKind {
    0 => NodeCrash { vm },
    1 => NodeRejoin { vm },
    2 => LinkDegrade { host, factor, duration },
    3 => SlowDisk { factor, duration },
    4 => StragglerVm { vm, factor, duration },
    5 => MigrationAbort,
});
crate::persist_struct!(FaultEvent { at, kind });

/// A deterministic schedule of faults.
///
/// Events may be added in any order; the plan keeps them sorted by instant
/// at insertion time (stable for ties, so scripted same-instant faults
/// apply in insertion order) and [`FaultPlan::events`] yields them in
/// injection order directly — no per-consumer re-sort.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Invariant: non-decreasing by `at` (maintained by [`FaultPlan::push`]).
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style: schedules `kind` at `at` and returns the plan.
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// Schedules `kind` at `at`, keeping the plan sorted by instant.
    /// Same-instant events stay in insertion order (the new event goes
    /// after existing ties, matching the former stable sort).
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in injection order (sorted by instant;
    /// same-instant events in insertion order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Generates a random plan from `profile`, deterministically from
    /// `seed`: same profile + seed, same plan, independent of call order.
    ///
    /// Guarantees, so property tests can assert invariants:
    /// * VM 0 is never crashed (it hosts the namenode/JobTracker master);
    /// * no VM is crashed twice, and at most `max_crashes` crash in total
    ///   (keep this below the HDFS replication factor to rule out block
    ///   loss);
    /// * no [`FaultKind::NodeRejoin`] is generated (rejoined nodes would
    ///   make the crash budget unsound), and no [`FaultKind::MigrationAbort`];
    ///   script those explicitly;
    /// * every event lands strictly inside `(0, horizon)`, factors lie in
    ///   `[0.05, 0.6]`, and throttle durations within `horizon / 8` —
    ///   faults perturb the run rather than dominating it.
    pub fn random(profile: &FaultProfile, seed: RootSeed) -> FaultPlan {
        let mut rng = seed.stream("fault-plan");
        let mut plan = FaultPlan::new();
        if profile.vms < 2 || profile.hosts == 0 || profile.max_events == 0 {
            return plan;
        }
        let n = rng.gen_range(1..=profile.max_events);
        let mut crashed: Vec<u32> = Vec::new();
        let horizon_ns = profile.horizon.as_nanos().max(8);
        for _ in 0..n {
            let at = SimTime::ZERO + SimDuration::from_nanos(rng.gen_range(1..horizon_ns));
            let factor = rng.gen_range(0.05..0.6);
            let duration = SimDuration::from_nanos(rng.gen_range(1..=horizon_ns / 8));
            // Draw the kind, skipping exhausted or disallowed ones.
            let kind = match rng.gen_range(0u32..5) {
                0 if (crashed.len() as u32) < profile.max_crashes => {
                    // Candidate workers: every VM but 0, minus prior crashes.
                    let vm = rng.gen_range(1..profile.vms);
                    if crashed.contains(&vm) {
                        continue;
                    }
                    crashed.push(vm);
                    FaultKind::NodeCrash { vm }
                }
                1 => FaultKind::LinkDegrade {
                    host: rng.gen_range(0..profile.hosts),
                    factor,
                    duration,
                },
                2 => FaultKind::SlowDisk { factor, duration },
                3 => FaultKind::StragglerVm { vm: rng.gen_range(1..profile.vms), factor, duration },
                // 4 generates nothing (a migration abort is a no-op unless
                // the scenario migrates: script one). The draw stays so
                // that every seed keeps its plan.
                _ => continue,
            };
            plan.push(at, kind);
        }
        plan
    }
}

/// Bounds for [`FaultPlan::random`]: the cluster shape and how hard the
/// generated chaos may hit it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Number of VMs in the target cluster (VM ids `0..vms`).
    pub vms: u32,
    /// Number of hosts (host ids `0..hosts`).
    pub hosts: u32,
    /// Events land strictly inside `(0, horizon)` of simulated time.
    pub horizon: SimDuration,
    /// Upper bound on generated events (at least 1 is always generated).
    pub max_events: u32,
    /// Upper bound on distinct crashed VMs. Keep below the HDFS
    /// replication factor to guarantee no block loses its last replica.
    pub max_crashes: u32,
}

impl FaultProfile {
    /// A moderate default profile for a `vms`-VM, `hosts`-host cluster:
    /// 20 s horizon, at most 6 events and 2 crashes.
    pub fn new(vms: u32, hosts: u32) -> Self {
        FaultProfile {
            vms,
            hosts,
            horizon: SimDuration::from_secs(20),
            max_events: 6,
            max_crashes: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn builder_collects_and_sorts() {
        let plan = FaultPlan::new()
            .at(secs(5), FaultKind::MigrationAbort)
            .at(secs(1), FaultKind::NodeCrash { vm: 3 })
            .at(secs(5), FaultKind::SlowDisk { factor: 0.5, duration: SimDuration::from_secs(2) });
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        let events = plan.events();
        assert_eq!(events[0].kind, FaultKind::NodeCrash { vm: 3 });
        // Stable: same-instant events keep insertion order.
        assert_eq!(events[1].kind, FaultKind::MigrationAbort);
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn random_is_deterministic() {
        let profile = FaultProfile::new(8, 2);
        let a = FaultPlan::random(&profile, RootSeed(7));
        let b = FaultPlan::random(&profile, RootSeed(7));
        assert_eq!(a, b);
        let c = FaultPlan::random(&profile, RootSeed(8));
        assert_ne!(a, c, "different seeds should differ (overwhelmingly likely)");
    }

    #[test]
    fn random_respects_bounds() {
        for seed in 0..50 {
            let profile = FaultProfile::new(6, 2);
            let plan = FaultPlan::random(&profile, RootSeed(seed));
            assert!(plan.len() <= profile.max_events as usize);
            let mut crashes = Vec::new();
            for ev in plan.events() {
                assert!(ev.at > SimTime::ZERO);
                assert!(ev.at < SimTime::ZERO + profile.horizon);
                match ev.kind {
                    FaultKind::NodeCrash { vm } => {
                        assert!(vm >= 1 && vm < profile.vms, "crash targets a worker VM");
                        assert!(!crashes.contains(&vm), "no VM crashes twice");
                        crashes.push(vm);
                    }
                    FaultKind::NodeRejoin { .. } => panic!("random plans never rejoin"),
                    FaultKind::MigrationAbort => panic!("random plans never abort a migration"),
                    FaultKind::LinkDegrade { host, factor, .. } => {
                        assert!(host < profile.hosts);
                        assert!((0.05..0.6).contains(&factor));
                    }
                    FaultKind::SlowDisk { factor, .. } | FaultKind::StragglerVm { factor, .. } => {
                        assert!((0.05..0.6).contains(&factor));
                    }
                }
            }
            assert!(crashes.len() as u32 <= profile.max_crashes);
        }
    }

    #[test]
    fn random_on_degenerate_profiles_is_empty() {
        let mut p = FaultProfile::new(1, 2); // no worker to target
        assert!(FaultPlan::random(&p, RootSeed(1)).is_empty());
        p = FaultProfile::new(8, 2);
        p.max_events = 0;
        assert!(FaultPlan::random(&p, RootSeed(1)).is_empty());
    }
}
