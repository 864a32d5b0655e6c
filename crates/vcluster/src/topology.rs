//! Hierarchical network topology: VM → host bridge → rack/ToR switch → core.
//!
//! The paper's testbed is two physical hosts on one switch, and until this
//! module the whole stack hard-coded that geometry (same-host traffic on
//! the bridge, everything else across one flat wire). [`Topology`] makes
//! the tree explicit: every host belongs to a rack served by a top-of-rack
//! (ToR) switch, and racks meet at a core switch. A transfer between any
//! two endpoints resolves to a *path* of fluid resources plus a summed
//! one-way latency, so contention and distance both fall out of the tree
//! instead of an if-same-host-else-wire branch.
//!
//! The tree is two [`ClusterSpec`] values: `racks` (hosts fill them in
//! contiguous blocks) and `core_bw`; every ToR switch has `switch_bw`.
//! One rack is the paper's flat geometry: the one switch is registered
//! under the name `switch` and no core resource exists. The one-way
//! latencies are constants: [`BRIDGE_LATENCY`] within a host,
//! [`WIRE_LATENCY`] between hosts in one rack, plus [`CORE_LATENCY`]
//! across the core.

use crate::cluster::{BRIDGE_LATENCY, CORE_LATENCY, WIRE_LATENCY};
use crate::spec::ClusterSpec;
use simcore::prelude::*;

/// Index of a rack (one ToR switch per rack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId(pub u32);

impl std::fmt::Display for RackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// How close two endpoints are in the topology tree, best tier first.
/// Ordered: `Node < Host < Rack < OffRack` (derive(PartialOrd) on the
/// declaration order), so `min` over a replica set picks the best tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LocalityTier {
    /// Same VM — a pure memory copy.
    Node,
    /// Different VMs on one host — traffic crosses the software bridge.
    Host,
    /// Different hosts in one rack — traffic crosses NICs and the ToR.
    Rack,
    /// Different racks — traffic additionally crosses the core switch.
    OffRack,
}

impl LocalityTier {
    /// Hadoop-style tree distance (0 / 2 / 4 / 6): the number of edges up
    /// to the common ancestor and back down.
    pub fn distance(self) -> u32 {
        match self {
            LocalityTier::Node => 0,
            LocalityTier::Host => 2,
            LocalityTier::Rack => 4,
            LocalityTier::OffRack => 6,
        }
    }

    /// Stable lowercase name (CSV series, trace args).
    pub fn name(self) -> &'static str {
        match self {
            LocalityTier::Node => "node",
            LocalityTier::Host => "host",
            LocalityTier::Rack => "rack",
            LocalityTier::OffRack => "off-rack",
        }
    }
}

/// Per-ToR traffic accounting over a run, for benches and monitors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackSwitchStat {
    /// Which rack.
    pub rack: RackId,
    /// Total bytes switched through the rack's ToR.
    pub bytes: f64,
    /// Mean utilization over the accounted window (bytes / (bw × secs)).
    pub mean_util: f64,
}

/// The instantiated switching fabric: per-rack ToR resources, the core
/// resource (absent for one rack) and the host→rack map. Owned by
/// `VirtualCluster`, which composes the endpoint resources (bridges,
/// NICs) with the switch path this type resolves.
#[derive(Debug)]
pub struct Topology {
    racks: u32,
    host_rack: Vec<u32>,
    tor: Vec<ResourceId>,
    tor_bw: f64,
    core: Option<ResourceId>,
}

impl Topology {
    /// Registers the switching resources of a validated `spec` on
    /// `engine`: one rack registers one resource named `switch` and no
    /// core; more racks register `rack{r}.tor` per rack, then `core`.
    pub fn build(engine: &mut Engine, spec: &ClusterSpec) -> Self {
        let host_rack: Vec<u32> = (0..spec.hosts).map(|h| spec.rack_of_host(h)).collect();
        let (tor, core) = if spec.racks == 1 {
            (vec![engine.add_resource("switch", ResourceKind::Net, spec.switch_bw)], None)
        } else {
            let tor = (0..spec.racks)
                .map(|r| {
                    engine.add_resource(format!("rack{r}.tor"), ResourceKind::Net, spec.switch_bw)
                })
                .collect();
            (tor, Some(engine.add_resource("core", ResourceKind::Net, spec.core_bw)))
        };
        Topology { racks: spec.racks, host_rack, tor, tor_bw: spec.switch_bw, core }
    }

    /// Number of racks.
    pub fn rack_count(&self) -> u32 {
        self.racks
    }

    /// Rack of `host`.
    pub fn rack_of_host(&self, host: u32) -> RackId {
        RackId(self.host_rack[host as usize])
    }

    /// ToR switch resource of `rack` (the one `switch` for one rack).
    pub fn tor_resource(&self, rack: RackId) -> ResourceId {
        self.tor[rack.0 as usize]
    }

    /// Core switch resource; `None` for a single rack.
    pub fn core_resource(&self) -> Option<ResourceId> {
        self.core
    }

    /// Locality tier of a host pair (never [`LocalityTier::Node`] — that
    /// needs VM identity, which the cluster layer resolves).
    pub fn tier_hosts(&self, a: u32, b: u32) -> LocalityTier {
        if a == b {
            LocalityTier::Host
        } else if self.host_rack[a as usize] == self.host_rack[b as usize] {
            LocalityTier::Rack
        } else {
            LocalityTier::OffRack
        }
    }

    /// The switching resources a `src` → `dst` host-to-host transfer
    /// crosses, in path order, *excluding* the endpoint NICs: the ToR for
    /// a same-rack pair, `[tor, core, tor]` across racks. Empty for the
    /// same host (the bridge is an endpoint resource, not a switch).
    pub fn switch_path(&self, src: u32, dst: u32) -> Vec<ResourceId> {
        match self.tier_hosts(src, dst) {
            LocalityTier::Node | LocalityTier::Host => Vec::new(),
            LocalityTier::Rack => vec![self.tor[self.host_rack[src as usize] as usize]],
            LocalityTier::OffRack => vec![
                self.tor[self.host_rack[src as usize] as usize],
                self.core.expect("multi-rack fabric has a core"),
                self.tor[self.host_rack[dst as usize] as usize],
            ],
        }
    }

    /// The switching resources between `host` and the core-attached NFS
    /// server: the ToR for one rack (the server hangs off the one
    /// switch), ToR + core across racks.
    pub fn switch_path_to_core(&self, host: u32) -> Vec<ResourceId> {
        let tor = self.tor[self.host_rack[host as usize] as usize];
        match self.core {
            None => vec![tor],
            Some(core) => vec![tor, core],
        }
    }

    /// One-way propagation latency between two hosts (bridge / ToR /
    /// ToR+core by tier).
    pub fn latency_hosts(&self, src: u32, dst: u32) -> SimDuration {
        match self.tier_hosts(src, dst) {
            LocalityTier::Node | LocalityTier::Host => BRIDGE_LATENCY,
            LocalityTier::Rack => WIRE_LATENCY,
            LocalityTier::OffRack => WIRE_LATENCY + CORE_LATENCY,
        }
    }

    /// Per-rack ToR traffic stats over `elapsed_s` seconds (mean
    /// utilization needs a window; pass the run's makespan).
    pub fn rack_switch_stats(&self, engine: &Engine, elapsed_s: f64) -> Vec<RackSwitchStat> {
        self.tor
            .iter()
            .enumerate()
            .map(|(r, &res)| {
                let bytes = engine.fluid().cumulative(res);
                let denom = self.tor_bw * elapsed_s;
                RackSwitchStat {
                    rack: RackId(r as u32),
                    bytes,
                    mean_util: if denom > 0.0 { bytes / denom } else { 0.0 },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(racks: u32, hosts: u32) -> (Engine, Topology) {
        let mut e = Engine::new();
        let spec = ClusterSpec::builder().hosts(hosts).vms(hosts).racks(racks).build();
        let t = Topology::build(&mut e, &spec);
        (e, t)
    }

    #[test]
    fn single_rack_is_the_legacy_switch() {
        let (e, t) = fabric(1, 2);
        assert_eq!(t.rack_count(), 1);
        assert!(t.core_resource().is_none());
        assert_eq!(e.fluid().resource_count(), 1);
        assert_eq!(e.fluid().resource_name(t.tor_resource(RackId(0))), "switch");
        assert_eq!(t.switch_path(0, 1), vec![t.tor_resource(RackId(0))]);
        assert_eq!(t.switch_path_to_core(1), vec![t.tor_resource(RackId(0))]);
        assert_eq!(t.latency_hosts(0, 1), SimDuration::from_micros(200));
        assert_eq!(t.latency_hosts(0, 0), SimDuration::from_micros(50));
    }

    #[test]
    fn multi_rack_registers_tors_and_core() {
        let (e, t) = fabric(2, 4);
        assert_eq!(e.fluid().resource_count(), 3); // 2 ToRs + core
        assert_eq!(e.fluid().resource_name(t.tor_resource(RackId(0))), "rack0.tor");
        assert_eq!(e.fluid().resource_name(t.tor_resource(RackId(1))), "rack1.tor");
        let core = t.core_resource().expect("core exists");
        assert_eq!(e.fluid().resource_name(core), "core");
        // Contiguous: hosts 0,1 in rack 0; hosts 2,3 in rack 1.
        assert_eq!(t.rack_of_host(1), RackId(0));
        assert_eq!(t.rack_of_host(2), RackId(1));
        assert_eq!(t.rack_of_host(3), RackId(1));
    }

    #[test]
    fn paths_and_latencies_follow_the_tree() {
        let (_, t) = fabric(2, 4);
        assert_eq!(t.tier_hosts(0, 0), LocalityTier::Host);
        assert_eq!(t.tier_hosts(0, 1), LocalityTier::Rack);
        assert_eq!(t.tier_hosts(0, 2), LocalityTier::OffRack);
        assert_eq!(t.switch_path(0, 1).len(), 1, "same rack: one ToR");
        let cross = t.switch_path(0, 3);
        assert_eq!(cross.len(), 3, "cross rack: ToR, core, ToR");
        assert_eq!(cross[1], t.core_resource().unwrap());
        assert_eq!(t.switch_path_to_core(3).len(), 2, "NFS across the core");
        assert_eq!(t.latency_hosts(0, 1), SimDuration::from_micros(200));
        assert_eq!(t.latency_hosts(0, 2), SimDuration::from_micros(500));
    }

    #[test]
    fn tier_ordering_and_distance() {
        assert!(LocalityTier::Node < LocalityTier::Host);
        assert!(LocalityTier::Host < LocalityTier::Rack);
        assert!(LocalityTier::Rack < LocalityTier::OffRack);
        assert_eq!(LocalityTier::Node.distance(), 0);
        assert_eq!(LocalityTier::Host.distance(), 2);
        assert_eq!(LocalityTier::Rack.distance(), 4);
        assert_eq!(LocalityTier::OffRack.distance(), 6);
    }
}
