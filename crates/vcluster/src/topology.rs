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
//! **Degeneration contract:** the default [`TopologySpec`] (one rack)
//! reproduces the old flat geometry *exactly* — the single ToR switch is
//! registered under the legacy name `switch` with `ClusterSpec::switch_bw`
//! capacity, no core resource exists, and the per-tier latencies default to
//! the legacy [`BRIDGE_LATENCY`](crate::cluster::BRIDGE_LATENCY) /
//! [`WIRE_LATENCY`](crate::cluster::WIRE_LATENCY) constants. Runs on a
//! single-rack spec are byte-identical to pre-topology runs (pinned by the
//! scheduler goldens and `tests/tests/topology.rs`).

use serde::{Deserialize, Serialize};
use simcore::prelude::*;

/// Index of a rack (one ToR switch per rack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RackId(pub u32);

impl std::fmt::Display for RackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// How close two endpoints are in the topology tree, best tier first.
/// Ordered: `Node < Host < Rack < OffRack` (derive(PartialOrd) on the
/// declaration order), so `min` over a replica set picks the best tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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

/// Where the hosts of a cluster land on the racks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RackPlacement {
    /// Hosts fill racks in contiguous blocks of `ceil(hosts / racks)` —
    /// host 0..k-1 in rack 0, the next k in rack 1, and so on.
    Contiguous,
    /// Host *h* lands in rack *h* mod racks.
    RoundRobin,
    /// Explicit rack index per host.
    Custom(Vec<u32>),
}

impl RackPlacement {
    /// Rack index for host `host` out of `n_hosts` on `racks` racks.
    pub fn rack_of(&self, host: u32, n_hosts: u32, racks: u32) -> u32 {
        assert!(racks > 0, "need at least one rack");
        match self {
            RackPlacement::Contiguous => {
                let per_rack = n_hosts.div_ceil(racks).max(1);
                (host / per_rack).min(racks - 1)
            }
            RackPlacement::RoundRobin => host % racks,
            RackPlacement::Custom(map) => {
                assert_eq!(map.len() as u32, n_hosts, "custom rack map must cover all hosts");
                let r = map[host as usize];
                assert!(r < racks, "custom rack map references unknown rack {r}");
                r
            }
        }
    }
}

/// The network-tier parameters of a cluster: rack count, host→rack map,
/// per-tier bandwidths and one-way latencies.
///
/// Bandwidths of `0.0` inherit `ClusterSpec::switch_bw`, so a spec that
/// only sets `racks` gets uniform switching capacity at every tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Number of racks (≥ 1). One rack *is* the legacy flat geometry: the
    /// single ToR is the old inter-host `switch` and no core exists.
    pub racks: u32,
    /// Host→rack mapping policy.
    pub rack_placement: RackPlacement,
    /// Per-rack ToR backplane bandwidth, bytes/second; `0.0` inherits
    /// `ClusterSpec::switch_bw`. Ignored for a single rack (the legacy
    /// `switch_bw` always applies there).
    pub rack_bw: f64,
    /// Core switch backplane bandwidth, bytes/second; `0.0` inherits
    /// `ClusterSpec::switch_bw`. Unused for a single rack.
    pub core_bw: f64,
    /// One-way latency of the in-host software bridge, microseconds.
    pub bridge_latency_us: f64,
    /// One-way latency between hosts in one rack (NIC + ToR), microseconds.
    pub rack_latency_us: f64,
    /// *Additional* one-way latency when a path crosses the core switch,
    /// microseconds (cross-rack latency = `rack_latency_us` + this).
    pub core_latency_us: f64,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            racks: 1,
            rack_placement: RackPlacement::Contiguous,
            rack_bw: 0.0,
            core_bw: 0.0,
            // Legacy BRIDGE_LATENCY / WIRE_LATENCY, plus a 2012-era
            // multi-tier datacenter hop for the core.
            bridge_latency_us: 50.0,
            rack_latency_us: 200.0,
            core_latency_us: 300.0,
        }
    }
}

impl TopologySpec {
    /// A flat single-rack topology (the paper's testbed) — the default.
    pub fn flat() -> Self {
        TopologySpec::default()
    }

    /// `racks` racks with contiguous host blocks and inherited bandwidths.
    pub fn racks(racks: u32) -> Self {
        TopologySpec { racks, ..Default::default() }
    }

    /// Rack index of `host` (out of `n_hosts`).
    pub fn rack_of_host(&self, host: u32, n_hosts: u32) -> u32 {
        self.rack_placement.rack_of(host, n_hosts, self.racks)
    }

    /// Validates internal consistency against a host count.
    pub fn validate(&self, n_hosts: u32) -> Result<(), String> {
        if self.racks == 0 {
            return Err("topology needs at least one rack".into());
        }
        if self.racks > n_hosts {
            return Err(format!("{} racks but only {n_hosts} hosts", self.racks));
        }
        if let RackPlacement::Custom(map) = &self.rack_placement {
            if map.len() as u32 != n_hosts {
                return Err(format!(
                    "custom rack map covers {} hosts but cluster has {n_hosts}",
                    map.len()
                ));
            }
            if let Some(&r) = map.iter().find(|&&r| r >= self.racks) {
                return Err(format!("custom rack map references unknown rack {r}"));
            }
        }
        for (name, v) in [
            ("rack_bw", self.rack_bw),
            ("core_bw", self.core_bw),
            ("bridge_latency_us", self.bridge_latency_us),
            ("rack_latency_us", self.rack_latency_us),
            ("core_latency_us", self.core_latency_us),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("topology {name} must be finite and non-negative, got {v}"));
            }
        }
        Ok(())
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

fn micros(us: f64) -> SimDuration {
    SimDuration::from_nanos((us * 1_000.0).round() as u64)
}

/// The instantiated switching fabric: per-rack ToR resources, the core
/// resource (absent for one rack), the host→rack map and per-tier
/// latencies. Owned by `VirtualCluster`, which composes the endpoint
/// resources (bridges, NICs) with the switch path this type resolves.
#[derive(Debug)]
pub struct Topology {
    racks: u32,
    host_rack: Vec<u32>,
    tor: Vec<ResourceId>,
    tor_bw: f64,
    core: Option<ResourceId>,
    core_bw: f64,
    bridge_latency: SimDuration,
    rack_latency: SimDuration,
    core_latency: SimDuration,
}

impl Topology {
    /// Registers the switching resources for `spec` on `engine`.
    ///
    /// Single rack: one resource under the legacy name `switch` with
    /// `switch_bw` capacity (and no core) — resource ids, names, and
    /// capacities are exactly the pre-topology layout. Multiple racks:
    /// `rack{r}.tor` per rack, then `core`.
    ///
    /// # Panics
    /// If the topology spec fails [`TopologySpec::validate`].
    pub fn build(engine: &mut Engine, spec: &TopologySpec, n_hosts: u32, switch_bw: f64) -> Self {
        if let Err(e) = spec.validate(n_hosts) {
            panic!("invalid TopologySpec: {e}");
        }
        let host_rack: Vec<u32> = (0..n_hosts).map(|h| spec.rack_of_host(h, n_hosts)).collect();
        let inherit = |bw: f64| if bw > 0.0 { bw } else { switch_bw };
        let (tor, tor_bw, core, core_bw) = if spec.racks == 1 {
            let sw = engine.add_resource("switch", ResourceKind::Net, switch_bw);
            (vec![sw], switch_bw, None, switch_bw)
        } else {
            let tor_bw = inherit(spec.rack_bw);
            let tor = (0..spec.racks)
                .map(|r| engine.add_resource(format!("rack{r}.tor"), ResourceKind::Net, tor_bw))
                .collect();
            let core_bw = inherit(spec.core_bw);
            let core = engine.add_resource("core", ResourceKind::Net, core_bw);
            (tor, tor_bw, Some(core), core_bw)
        };
        Topology {
            racks: spec.racks,
            host_rack,
            tor,
            tor_bw,
            core,
            core_bw,
            bridge_latency: micros(spec.bridge_latency_us),
            rack_latency: micros(spec.rack_latency_us),
            core_latency: micros(spec.core_latency_us),
        }
    }

    /// Number of racks.
    pub fn rack_count(&self) -> u32 {
        self.racks
    }

    /// Rack of `host`.
    pub fn rack_of_host(&self, host: u32) -> RackId {
        RackId(self.host_rack[host as usize])
    }

    /// ToR switch resource of `rack` (the legacy `switch` for one rack).
    pub fn tor_resource(&self, rack: RackId) -> ResourceId {
        self.tor[rack.0 as usize]
    }

    /// ToR backplane bandwidth, bytes/second.
    pub fn tor_bw(&self) -> f64 {
        self.tor_bw
    }

    /// Core switch resource; `None` for a single rack.
    pub fn core_resource(&self) -> Option<ResourceId> {
        self.core
    }

    /// Core backplane bandwidth, bytes/second.
    pub fn core_bw(&self) -> f64 {
        self.core_bw
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
    /// server: the ToR for one rack (the server hangs off the legacy
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
            LocalityTier::Node | LocalityTier::Host => self.bridge_latency,
            LocalityTier::Rack => self.rack_latency,
            LocalityTier::OffRack => self.rack_latency + self.core_latency,
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
        let t = Topology::build(&mut e, &TopologySpec::racks(racks), hosts, 8e9 / 8.0);
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

    #[test]
    fn rack_placement_policies() {
        let c = RackPlacement::Contiguous;
        assert_eq!((0..6).map(|h| c.rack_of(h, 6, 3)).collect::<Vec<_>>(), vec![0, 0, 1, 1, 2, 2]);
        let rr = RackPlacement::RoundRobin;
        assert_eq!((0..6).map(|h| rr.rack_of(h, 6, 3)).collect::<Vec<_>>(), vec![0, 1, 2, 0, 1, 2]);
        let cu = RackPlacement::Custom(vec![1, 0]);
        assert_eq!(cu.rack_of(0, 2, 2), 1);
        // Odd split: 5 hosts over 2 racks → 3 + 2.
        assert_eq!((0..5).map(|h| c.rack_of(h, 5, 2)).collect::<Vec<_>>(), vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(TopologySpec { racks: 0, ..Default::default() }.validate(2).is_err());
        assert!(TopologySpec::racks(4).validate(2).is_err(), "more racks than hosts");
        let bad = TopologySpec {
            racks: 2,
            rack_placement: RackPlacement::Custom(vec![0, 5]),
            ..Default::default()
        };
        assert!(bad.validate(2).is_err());
        let neg = TopologySpec { core_bw: -1.0, ..Default::default() };
        assert!(neg.validate(2).is_err());
        assert!(TopologySpec::racks(2).validate(4).is_ok());
    }

    #[test]
    fn bandwidth_inheritance() {
        let mut e = Engine::new();
        let spec = TopologySpec { racks: 2, rack_bw: 5e8, core_bw: 0.0, ..Default::default() };
        let t = Topology::build(&mut e, &spec, 2, 1e9);
        assert_eq!(t.tor_bw(), 5e8, "explicit rack bw respected");
        assert_eq!(t.core_bw(), 1e9, "zero core bw inherits switch_bw");
    }
}
