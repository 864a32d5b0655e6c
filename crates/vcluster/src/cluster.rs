//! The virtual cluster materialized onto the fluid network.
//!
//! [`VirtualCluster::new`] registers one resource per physical contention
//! point — host CPUs, host NICs, host software bridges, the switching
//! fabric of the spec's racks ([`crate::topology`]), the NFS server's NIC
//! and disk — plus a VCPU-cap resource per VM (the Xen
//! credit scheduler's `cap`). All higher layers (HDFS, MapReduce,
//! migration) build their activities out of the demand paths provided here,
//! so every contention effect flows through one shared model:
//!
//! * guest compute demands {vcpu, host cpu} and is inflated by the
//!   paravirtualization overhead factor;
//! * same-host VM↔VM traffic crosses the host bridge; cross-host traffic
//!   crosses sender NIC → the topology's switch path (ToR, or ToR → core
//!   → ToR across racks) → receiver NIC;
//! * *all* guest disk I/O is NFS traffic (the paper stores VM images on a
//!   shared NFS server, attached at the core), crossing host NIC → switch
//!   path → NFS NIC → NFS disk.
//!
//! No I/O path names a host CPU: guest compute and guest I/O share no fluid
//! resource, so they solve as separate components.
//!
//! On one rack (the default) the switch path is always the one `switch`
//! resource.

use crate::spec::{ClusterSpec, XEN_CPU_OVERHEAD};
use crate::topology::{LocalityTier, RackId, RackSwitchStat, Topology};
use simcore::prelude::*;

/// Index of a physical machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// Index of a guest VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

simcore::persist_struct!(HostId(0));
simcore::persist_struct!(VmId(0));

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pm{}", self.0)
    }
}

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// One-way latency of the intra-host software bridge.
pub const BRIDGE_LATENCY: SimDuration = SimDuration::from_micros(50);
/// One-way latency between two hosts in one rack (NIC + ToR switch).
pub const WIRE_LATENCY: SimDuration = SimDuration::from_micros(200);
/// One-way latency a path adds when it crosses the core switch between
/// racks (a 2012-era multi-tier datacenter hop), on top of
/// [`WIRE_LATENCY`].
pub const CORE_LATENCY: SimDuration = SimDuration::from_micros(300);

/// The instantiated cluster: resource handles plus the (mutable) VM→host map.
#[derive(Debug)]
pub struct VirtualCluster {
    spec: ClusterSpec,
    host_cpu: Vec<ResourceId>,
    host_nic: Vec<ResourceId>,
    host_bridge: Vec<ResourceId>,
    topology: Topology,
    nfs_nic: ResourceId,
    nfs_disk: ResourceId,
    vcpu: Vec<ResourceId>,
    /// Per-VM I/O accounting resource: infinite capacity (never
    /// constrains), threaded through every transfer/disk path the VM
    /// touches so its cumulative counter measures the VM's I/O bytes —
    /// monitors and the migration dirty-page model read it.
    vio: Vec<ResourceId>,
    vm_host: Vec<u32>,
}

// The VM→host map is the only dynamic state; everything else is launch-derived.
simcore::persist_state!(VirtualCluster { vm_host });

impl VirtualCluster {
    /// Registers all resources for `spec` on `engine` and returns the
    /// cluster handle.
    ///
    /// # Panics
    /// If `spec` fails [`ClusterSpec::validate`].
    pub fn new(engine: &mut Engine, spec: ClusterSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid ClusterSpec: {e}");
        }
        let mut host_cpu = Vec::with_capacity(spec.hosts as usize);
        let mut host_nic = Vec::with_capacity(spec.hosts as usize);
        let mut host_bridge = Vec::with_capacity(spec.hosts as usize);
        for h in 0..spec.hosts {
            host_cpu.push(engine.add_resource(
                format!("pm{h}.cpu"),
                ResourceKind::Cpu,
                spec.host.cpu_capacity(),
            ));
            host_nic.push(engine.add_resource(
                format!("pm{h}.nic"),
                ResourceKind::Net,
                spec.host.nic_bw,
            ));
            host_bridge.push(engine.add_resource(
                format!("pm{h}.bridge"),
                ResourceKind::Net,
                spec.host.bridge_bw,
            ));
        }
        let topology = Topology::build(engine, &spec);
        let nfs_nic = engine.add_resource("nfs.nic", ResourceKind::Net, spec.nfs.nic_bw);
        let nfs_disk = engine.add_resource("nfs.disk", ResourceKind::Disk, spec.nfs.disk_bw);

        let mut vcpu = Vec::with_capacity(spec.vms as usize);
        let mut vio = Vec::with_capacity(spec.vms as usize);
        let mut vm_host = Vec::with_capacity(spec.vms as usize);
        for v in 0..spec.vms {
            let cap = f64::from(spec.vm.vcpus) * spec.host.core_hz;
            vcpu.push(engine.add_resource(format!("vm{v}.vcpu"), ResourceKind::Cpu, cap));
            vio.push(engine.add_resource(format!("vm{v}.vio"), ResourceKind::Other, f64::INFINITY));
            vm_host.push(spec.host_of(v));
        }

        VirtualCluster {
            spec,
            host_cpu,
            host_nic,
            host_bridge,
            topology,
            nfs_nic,
            nfs_disk,
            vcpu,
            vio,
            vm_host,
        }
    }

    /// The configuration this cluster was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of guest VMs.
    pub fn vm_count(&self) -> u32 {
        self.spec.vms
    }

    /// Number of physical hosts.
    pub fn host_count(&self) -> u32 {
        self.spec.hosts
    }

    /// All VM ids.
    pub fn vms(&self) -> impl Iterator<Item = VmId> + '_ {
        (0..self.spec.vms).map(VmId)
    }

    /// Current host of `vm` (reflects completed migrations).
    pub fn host_of(&self, vm: VmId) -> HostId {
        HostId(self.vm_host[vm.0 as usize])
    }

    /// Re-homes `vm` onto `host`; called by the migration manager at
    /// switch-over time.
    pub fn set_host(&mut self, vm: VmId, host: HostId) {
        assert!(host.0 < self.spec.hosts, "unknown host {host}");
        self.vm_host[vm.0 as usize] = host.0;
    }

    /// Guest memory of `vm`, bytes.
    pub fn vm_mem(&self, vm: VmId) -> u64 {
        let _ = vm;
        self.spec.vm.mem
    }

    /// VCPU-cap resource of `vm` (for monitors).
    pub fn vcpu_resource(&self, vm: VmId) -> ResourceId {
        self.vcpu[vm.0 as usize]
    }

    /// I/O accounting resource of `vm`: its fluid `cumulative()` counter
    /// equals the VM's total transfer + virtual-disk bytes.
    pub fn vio_resource(&self, vm: VmId) -> ResourceId {
        self.vio[vm.0 as usize]
    }

    /// Host CPU resource (for monitors).
    pub fn host_cpu_resource(&self, host: HostId) -> ResourceId {
        self.host_cpu[host.0 as usize]
    }

    /// Host NIC resource (for monitors).
    pub fn host_nic_resource(&self, host: HostId) -> ResourceId {
        self.host_nic[host.0 as usize]
    }

    /// NFS server disk resource (for monitors).
    pub fn nfs_disk_resource(&self) -> ResourceId {
        self.nfs_disk
    }

    /// The network-tier geometry this cluster runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of racks in the fabric.
    pub fn rack_count(&self) -> u32 {
        self.topology.rack_count()
    }

    /// Rack of physical host `host`.
    pub fn rack_of_host(&self, host: HostId) -> RackId {
        self.topology.rack_of_host(host.0)
    }

    /// Rack currently hosting `vm` (reflects completed migrations).
    pub fn rack_of(&self, vm: VmId) -> RackId {
        self.topology.rack_of_host(self.vm_host[vm.0 as usize])
    }

    /// ToR switch resource of `rack`.
    pub fn tor_resource(&self, rack: RackId) -> ResourceId {
        self.topology.tor_resource(rack)
    }

    /// Core switch resource; `None` on the flat single-rack fabric.
    pub fn core_resource(&self) -> Option<ResourceId> {
        self.topology.core_resource()
    }

    /// Locality tier of a VM pair under the current placement.
    pub fn tier(&self, a: VmId, b: VmId) -> LocalityTier {
        if a == b {
            return LocalityTier::Node;
        }
        self.topology.tier_hosts(self.vm_host[a.0 as usize], self.vm_host[b.0 as usize])
    }

    /// Per-rack ToR traffic totals and mean utilization over `elapsed_s`
    /// seconds of simulated time.
    pub fn rack_switch_stats(&self, engine: &Engine, elapsed_s: f64) -> Vec<RackSwitchStat> {
        self.topology.rack_switch_stats(engine, elapsed_s)
    }

    /// Fraction of `vm`'s VCPU cap currently in use (0..1).
    pub fn vcpu_utilization(&self, engine: &Engine, vm: VmId) -> f64 {
        engine.fluid().utilization(self.vcpu[vm.0 as usize])
    }

    // ----- demand-path builders -------------------------------------------

    /// Demands for guest computation on `vm`: the VCPU cap plus the host
    /// CPU pool.
    pub fn cpu_demands(&self, vm: VmId) -> Vec<ResourceId> {
        let h = self.vm_host[vm.0 as usize] as usize;
        vec![self.vcpu[vm.0 as usize], self.host_cpu[h]]
    }

    /// A compute step burning `cycles` guest cycles on `vm` (inflated by
    /// the Xen CPU-overhead factor).
    pub fn compute(&self, vm: VmId, cycles: f64) -> ChainSpec {
        ChainSpec::new().flow(self.cpu_demands(vm), cycles * XEN_CPU_OVERHEAD)
    }

    /// Demands for a `src` → `dst` network transfer (per byte), resolved
    /// along the topology path: bridge on one host, sender NIC → switch
    /// path (ToR, or ToR → core → ToR across racks) → receiver NIC
    /// otherwise. Same-VM transfers return an empty path (pure memory
    /// copy).
    pub fn transfer_demands(&self, src: VmId, dst: VmId) -> Vec<ResourceId> {
        if src == dst {
            return Vec::new();
        }
        let hs = self.vm_host[src.0 as usize];
        let hd = self.vm_host[dst.0 as usize];
        let mut d = if hs == hd {
            vec![self.host_bridge[hs as usize]]
        } else {
            self.host_transfer_demands(HostId(hs), HostId(hd))
        };
        d.push(self.vio[src.0 as usize]);
        d.push(self.vio[dst.0 as usize]);
        d
    }

    /// A network transfer of `bytes` from `src` to `dst`, including
    /// per-tier propagation latency summed along the path. Same-VM
    /// transfers reduce to a tiny delay.
    pub fn transfer(&self, src: VmId, dst: VmId, bytes: f64) -> ChainSpec {
        if src == dst {
            return ChainSpec::new().delay(SimDuration::from_micros(5));
        }
        let lat =
            self.topology.latency_hosts(self.vm_host[src.0 as usize], self.vm_host[dst.0 as usize]);
        ChainSpec::new().delay(lat).flow(self.transfer_demands(src, dst), bytes)
    }

    /// Demands for `vm` reading from its NFS-backed virtual disk (per byte).
    pub fn disk_read_demands(&self, vm: VmId) -> Vec<ResourceId> {
        self.nfs_demands(vm)
    }

    /// Demands for `vm` writing to its NFS-backed virtual disk (per byte).
    pub fn disk_write_demands(&self, vm: VmId) -> Vec<ResourceId> {
        self.nfs_demands(vm)
    }

    fn nfs_demands(&self, vm: VmId) -> Vec<ResourceId> {
        let h = self.vm_host[vm.0 as usize];
        let mut d = vec![self.host_nic[h as usize]];
        d.extend(self.topology.switch_path_to_core(h));
        d.push(self.nfs_nic);
        d.push(self.nfs_disk);
        d.push(self.vio[vm.0 as usize]);
        d
    }

    /// A virtual-disk read of `bytes` on `vm` (NFS round trip).
    pub fn disk_read(&self, vm: VmId, bytes: f64) -> ChainSpec {
        ChainSpec::new()
            .delay(SimDuration::from_secs_f64(self.spec.nfs.op_latency_ms / 1e3))
            .flow(self.disk_read_demands(vm), bytes)
    }

    /// A virtual-disk write of `bytes` on `vm` (NFS round trip).
    pub fn disk_write(&self, vm: VmId, bytes: f64) -> ChainSpec {
        ChainSpec::new()
            .delay(SimDuration::from_secs_f64(self.spec.nfs.op_latency_ms / 1e3))
            .flow(self.disk_write_demands(vm), bytes)
    }

    /// Demands for a host-to-host bulk transfer (migration traffic)
    /// along the topology path: sender NIC → switch path → receiver NIC.
    pub fn host_transfer_demands(&self, src: HostId, dst: HostId) -> Vec<ResourceId> {
        assert_ne!(src, dst, "migration source and destination must differ");
        let mut d = vec![self.host_nic[src.0 as usize]];
        d.extend(self.topology.switch_path(src.0, dst.0));
        d.push(self.host_nic[dst.0 as usize]);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, Placement};

    fn build(placement: Placement) -> (Engine, VirtualCluster) {
        let mut e = Engine::new();
        let spec = ClusterSpec::builder().hosts(2).vms(4).placement(placement).build();
        let c = VirtualCluster::new(&mut e, spec);
        (e, c)
    }

    #[test]
    fn resources_are_registered() {
        let (e, c) = build(Placement::SingleDomain);
        // 2 hosts × (cpu+nic+bridge) + switch + nfs nic + disk + 4 vcpus
        // + 4 per-VM I/O accounting resources.
        assert_eq!(e.fluid().resource_count(), 2 * 3 + 3 + 4 + 4);
        assert_eq!(c.vm_count(), 4);
        assert!(c.vms().all(|v| c.host_of(v) == HostId(0)));
    }

    #[test]
    fn cross_domain_detected() {
        let (_, c) = build(Placement::CrossDomain);
        assert_eq!(c.host_of(VmId(0)), HostId(0));
        assert_eq!(c.host_of(VmId(1)), HostId(1));
    }

    #[test]
    fn same_host_transfer_uses_bridge() {
        let (_, c) = build(Placement::SingleDomain);
        let d = c.transfer_demands(VmId(0), VmId(1));
        // bridge + 2 I/O accounting entries.
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn cross_host_transfer_uses_nics_and_switch() {
        let (_, c) = build(Placement::CrossDomain);
        let d = c.transfer_demands(VmId(0), VmId(1));
        // 2 NICs + switch + 2 I/O accounting entries.
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn io_paths_leave_host_cpu_to_compute() {
        // No guest-I/O or migration path names a host CPU ...
        for placement in [Placement::SingleDomain, Placement::CrossDomain] {
            let (_, c) = build(placement.clone());
            let cpus = [c.host_cpu_resource(HostId(0)), c.host_cpu_resource(HostId(1))];
            let paths = [
                c.transfer_demands(VmId(0), VmId(1)),
                c.disk_read_demands(VmId(2)),
                c.disk_write_demands(VmId(3)),
                c.host_transfer_demands(HostId(0), HostId(1)),
            ];
            for d in paths {
                assert!(d.iter().all(|x| !cpus.contains(x)), "{placement:?}: {d:?}");
            }
        }
        // ... so a compute flow and same-host I/O flows solve as separate
        // fluid components.
        let (mut e, c) = build(Placement::SingleDomain);
        let io = |d: Vec<ResourceId>| ChainSpec::new().flow(d, 1e6);
        e.start_chain(c.compute(VmId(0), 1e9), Tag::new(simcore::owners::USER, 0, 0));
        e.start_chain(
            io(c.transfer_demands(VmId(0), VmId(1))),
            Tag::new(simcore::owners::USER, 1, 0),
        );
        e.start_chain(io(c.disk_read_demands(VmId(2))), Tag::new(simcore::owners::USER, 2, 0));
        e.next_wakeup().expect("flows complete");
        let s = e.fluid().stats();
        assert_eq!((s.reallocations, s.flows_touched, s.comp_size_max), (1, 3, 1));
    }

    #[test]
    fn same_vm_transfer_is_free() {
        let (_, c) = build(Placement::SingleDomain);
        assert!(c.transfer_demands(VmId(2), VmId(2)).is_empty());
    }

    #[test]
    fn compute_applies_xen_overhead() {
        let (mut e, c) = build(Placement::SingleDomain);
        let spec = c.compute(VmId(0), 1e9);
        match &spec.steps[0] {
            simcore::engine::Step::Flow { work, .. } => {
                assert!((*work - 1.08e9).abs() < 1.0, "overhead factor applied");
            }
            other => panic!("expected flow, got {other:?}"),
        }
        e.start_chain(spec, Tag::new(simcore::owners::USER, 0, 0));
        let (t, _) = e.next_wakeup().expect("compute completes");
        // 1.08e9 cycles at 2.4e9/s VCPU cap -> 0.45 s.
        assert!((t.as_secs_f64() - 0.45).abs() < 1e-6, "got {t}");
    }

    #[test]
    fn migration_rehomes_vm() {
        let (_, mut c) = build(Placement::SingleDomain);
        assert_eq!(c.host_of(VmId(3)), HostId(0));
        c.set_host(VmId(3), HostId(1));
        assert_eq!(c.host_of(VmId(3)), HostId(1));
        // Transfers from vm0 (host0) to vm3 now cross the wire: 2 NICs +
        // switch + 2 I/O accounting entries.
        assert_eq!(c.transfer_demands(VmId(0), VmId(3)).len(), 5);
    }

    #[test]
    fn cross_domain_transfer_slower_under_contention() {
        // Two concurrent cross-host transfers share the NICs; two
        // same-host transfers share the (faster) bridge.
        let mb = 100e6;
        let elapsed = |placement: Placement| {
            let (mut e, c) = build(placement);
            for i in 0..2 {
                e.start_chain(
                    c.transfer(VmId(0), VmId(1), mb),
                    Tag::new(simcore::owners::USER, i, 0),
                );
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = e.next_wakeup() {
                last = t;
            }
            last.as_secs_f64()
        };
        let normal = elapsed(Placement::SingleDomain);
        let cross = elapsed(Placement::CrossDomain);
        assert!(
            cross > normal * 2.0,
            "cross-domain ({cross:.3}s) must be much slower than normal ({normal:.3}s)"
        );
    }

    #[test]
    fn nfs_path_contends_on_server_disk() {
        // Reads from VMs on different hosts still share the NFS disk.
        let (mut e, c) = build(Placement::CrossDomain);
        let bytes = 90e6; // 1 s at full disk bw.
        e.start_chain(c.disk_read(VmId(0), bytes), Tag::new(simcore::owners::USER, 0, 0));
        e.start_chain(c.disk_read(VmId(1), bytes), Tag::new(simcore::owners::USER, 1, 0));
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = e.next_wakeup() {
            last = t;
        }
        // Two 1-second reads sharing one disk ≈ 2 s (plus latency).
        assert!(last.as_secs_f64() > 1.9, "disk contention visible, got {last}");
    }

    fn build_racked() -> (Engine, VirtualCluster) {
        // 4 hosts on 2 racks (hosts 0,1 | 2,3), VMs round-robin.
        let mut e = Engine::new();
        let spec = ClusterSpec::builder()
            .hosts(4)
            .vms(8)
            .placement(Placement::CrossDomain)
            .racks(2)
            .build();
        let c = VirtualCluster::new(&mut e, spec);
        (e, c)
    }

    #[test]
    fn multi_rack_registers_tors_and_core() {
        let (e, c) = build_racked();
        // 4 hosts × 3 + (2 ToRs + core) + nfs nic + disk + 8 vcpu + 8 vio.
        assert_eq!(e.fluid().resource_count(), 4 * 3 + 3 + 2 + 16);
        assert_eq!(c.rack_count(), 2);
        assert_eq!(c.rack_of(VmId(0)), crate::topology::RackId(0)); // host 0
        assert_eq!(c.rack_of(VmId(2)), crate::topology::RackId(1)); // host 2
        assert!(c.core_resource().is_some());
    }

    #[test]
    fn cross_rack_transfer_crosses_the_core() {
        let (_, c) = build_racked();
        // vm0 on host 0 (rack 0), vm1 on host 1 (rack 0): 1 switch hop.
        assert_eq!(c.tier(VmId(0), VmId(1)), LocalityTier::Rack);
        assert_eq!(c.transfer_demands(VmId(0), VmId(1)).len(), 5);
        // vm0 → vm2 (host 2, rack 1): ToR + core + ToR.
        assert_eq!(c.tier(VmId(0), VmId(2)), LocalityTier::OffRack);
        let d = c.transfer_demands(VmId(0), VmId(2));
        // 2 NICs + 3 switches + 2 accounting entries.
        assert_eq!(d.len(), 7);
        // Migration traffic takes the same path (minus vio accounting).
        assert_eq!(c.host_transfer_demands(HostId(0), HostId(2)).len(), 5);
        assert_eq!(c.host_transfer_demands(HostId(0), HostId(1)).len(), 3);
    }

    #[test]
    fn cross_rack_latency_exceeds_in_rack() {
        let (_, c) = build_racked();
        let first_delay = |spec: ChainSpec| match spec.steps[0] {
            simcore::engine::Step::Delay(d) => d,
            ref other => panic!("expected delay, got {other:?}"),
        };
        let in_rack = first_delay(c.transfer(VmId(0), VmId(1), 1.0));
        let cross = first_delay(c.transfer(VmId(0), VmId(2), 1.0));
        assert_eq!(in_rack, WIRE_LATENCY);
        assert!(cross > in_rack, "core hop adds latency");
    }

    #[test]
    fn nfs_path_crosses_core_from_any_rack() {
        let (_, c) = build_racked();
        // NIC + ToR + core + nfs nic + nfs disk + vio = 6.
        assert_eq!(c.disk_read_demands(VmId(0)).len(), 6);
        assert_eq!(c.disk_read_demands(VmId(2)).len(), 6);
    }

    #[test]
    fn single_rack_keeps_legacy_layout() {
        let (e, c) = build(Placement::CrossDomain);
        // Resource names in registration order must match the
        // pre-topology model exactly (ids pin golden traces).
        let names: Vec<String> = e
            .fluid()
            .usage_snapshot()
            .iter()
            .map(|&(r, _, _, _)| e.fluid().resource_name(r).to_string())
            .collect();
        assert_eq!(
            &names[..9],
            &[
                "pm0.cpu",
                "pm0.nic",
                "pm0.bridge",
                "pm1.cpu",
                "pm1.nic",
                "pm1.bridge",
                "switch",
                "nfs.nic",
                "nfs.disk"
            ]
        );
        assert_eq!(c.rack_count(), 1);
        assert!(c.core_resource().is_none());
        assert_eq!(c.tier(VmId(0), VmId(0)), LocalityTier::Node);
        assert_eq!(c.tier(VmId(0), VmId(1)), LocalityTier::Rack);
    }

    #[test]
    fn rack_switch_stats_account_traffic() {
        let (mut e, c) = build_racked();
        // One in-rack transfer in rack 0: its ToR sees the bytes, rack 1's
        // ToR stays idle.
        let bytes = 1e6;
        e.start_chain(c.transfer(VmId(0), VmId(1), bytes), Tag::new(simcore::owners::USER, 0, 0));
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = e.next_wakeup() {
            last = t;
        }
        let stats = c.rack_switch_stats(&e, last.as_secs_f64());
        assert_eq!(stats.len(), 2);
        assert!((stats[0].bytes - bytes).abs() < 1.0, "rack 0 switched the flow");
        assert_eq!(stats[1].bytes, 0.0, "rack 1 idle");
        assert!(stats[0].mean_util > 0.0);
    }
}
