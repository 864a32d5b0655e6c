//! Cluster specifications: physical hosts, VMs, placement, racks, NFS
//! server.
//!
//! Defaults mirror the paper's testbed: Dell T710 servers with two
//! quad-core Xeon E5620 processors at 2.40 GHz and 32 GB DRAM, 1 Gb/s
//! Ethernet behind one switch, Xen with VM images on a shared NFS server,
//! and guests with 1 VCPU and 1024 MB of memory. More racks generalize
//! the one switch to a tree (see [`crate::topology`]); its latencies are
//! the constants in [`crate::cluster`].

/// Bytes in one mebibyte.
pub const MIB: u64 = 1024 * 1024;
/// Bytes in one gibibyte.
pub const GIB: u64 = 1024 * MIB;
/// Bytes/second of a 1 Gb/s link.
pub const GBIT_PER_SEC: f64 = 125_000_000.0;

/// A physical machine's hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Number of physical cores.
    pub cores: u32,
    /// Per-core clock rate in cycles/second.
    pub core_hz: f64,
    /// Installed DRAM in bytes.
    pub dram: u64,
    /// NIC bandwidth in bytes/second.
    pub nic_bw: f64,
    /// Intra-host software bridge bandwidth (VM-to-VM on the same host).
    pub bridge_bw: f64,
}

impl Default for HostSpec {
    fn default() -> Self {
        // Dell T710: 2 × quad-core E5620 @ 2.40 GHz, 32 GB, GigE.
        HostSpec {
            cores: 8,
            core_hz: 2.4e9,
            dram: 32 * GIB,
            nic_bw: GBIT_PER_SEC,
            bridge_bw: 8.0 * GBIT_PER_SEC,
        }
    }
}

impl HostSpec {
    /// Aggregate CPU capacity in cycles/second.
    pub fn cpu_capacity(&self) -> f64 {
        f64::from(self.cores) * self.core_hz
    }
}

/// A guest VM's virtual hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSpec {
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Guest memory in bytes.
    pub mem: u64,
}

impl Default for VmSpec {
    fn default() -> Self {
        // Paper guests: 1 VCPU, 1024 MB.
        VmSpec { vcpus: 1, mem: 1024 * MIB }
    }
}

/// The shared NFS server storing every VM image (and thus every guest's
/// virtual disk).
#[derive(Debug, Clone, PartialEq)]
pub struct NfsSpec {
    /// Server disk bandwidth in bytes/second.
    pub disk_bw: f64,
    /// Server NIC bandwidth in bytes/second.
    pub nic_bw: f64,
    /// Per-operation latency (request round trip).
    pub op_latency_ms: f64,
}

impl Default for NfsSpec {
    fn default() -> Self {
        // 2012-era SATA RAID: ~90 MB/s sequential, GigE attachment.
        NfsSpec { disk_bw: 90e6, nic_bw: GBIT_PER_SEC, op_latency_ms: 0.5 }
    }
}

/// Multiplier on guest CPU work relative to bare metal (Xen paravirt
/// overhead).
pub const XEN_CPU_OVERHEAD: f64 = 1.08;

/// Per-host hardware class: multipliers applied on top of the shared
/// [`HostSpec`] baseline. Heterogeneous clusters (the Frankfurt
/// virtualized-Hadoop evaluation's mixed-generation hosts) assign one
/// class per host; an empty class list means every host is the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostClass {
    /// Multiplier on the host's aggregate CPU capacity (1.0 = baseline).
    pub cpu_mult: f64,
    /// Multiplier on the host's storage-lane bandwidth to the shared NFS
    /// server (1.0 = baseline; models older HBAs/NICs on old hosts).
    pub disk_mult: f64,
}

impl Default for HostClass {
    fn default() -> Self {
        HostClass { cpu_mult: 1.0, disk_mult: 1.0 }
    }
}

/// Where the VMs of a cluster land on the physical machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Every VM on host 0 — the paper's "normal" configuration.
    SingleDomain,
    /// VMs distributed round-robin over all hosts — the paper's
    /// "cross-domain" configuration (with 2 hosts: split equally).
    CrossDomain,
    /// Explicit host index per VM.
    Custom(Vec<u32>),
}

impl Placement {
    /// Host index for VM `vm` out of `n_vms` on `n_hosts` machines.
    pub fn host_of(&self, vm: u32, n_vms: u32, n_hosts: u32) -> u32 {
        assert!(n_hosts > 0, "need at least one host");
        match self {
            Placement::SingleDomain => 0,
            Placement::CrossDomain => vm % n_hosts,
            Placement::Custom(map) => {
                assert_eq!(map.len() as u32, n_vms, "custom placement must cover all VMs");
                let h = map[vm as usize];
                assert!(h < n_hosts, "custom placement references unknown host {h}");
                h
            }
        }
    }
}

/// Complete description of a hadoop virtual cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Physical machines (identical hardware).
    pub hosts: u32,
    /// Hardware of each host.
    pub host: HostSpec,
    /// Number of guest VMs.
    pub vms: u32,
    /// Virtual hardware of each VM.
    pub vm: VmSpec,
    /// VM-to-host mapping policy.
    pub placement: Placement,
    /// Shared NFS image server.
    pub nfs: NfsSpec,
    /// Inter-host switch backplane bandwidth in bytes/second: the one
    /// switch of a single-rack cluster, each rack's ToR switch otherwise.
    pub switch_bw: f64,
    /// Number of racks (1 ..= `hosts`). Hosts fill racks in contiguous
    /// blocks of `ceil(hosts / racks)`. One rack is the paper's flat
    /// testbed: one switch and no core.
    pub racks: u32,
    /// Backplane bandwidth of the core switch joining the racks, in
    /// bytes/second; the same as the default `switch_bw` unless set.
    /// Unused on one rack.
    pub core_bw: f64,
    /// Per-host hardware classes (one entry per host when non-empty;
    /// empty = homogeneous baseline, the legacy layout byte-for-byte).
    pub host_classes: Vec<HostClass>,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            hosts: 2,
            host: HostSpec::default(),
            vms: 16,
            vm: VmSpec::default(),
            placement: Placement::SingleDomain,
            nfs: NfsSpec::default(),
            switch_bw: 8.0 * GBIT_PER_SEC,
            racks: 1,
            core_bw: 8.0 * GBIT_PER_SEC,
            host_classes: Vec::new(),
        }
    }
}

impl ClusterSpec {
    /// Builder entry point.
    pub fn builder() -> ClusterSpecBuilder {
        ClusterSpecBuilder::default()
    }

    /// The paper's 16-node cluster (1 namenode + 15 datanodes) packed onto
    /// one physical machine.
    pub fn paper_normal() -> Self {
        ClusterSpec { placement: Placement::SingleDomain, ..Default::default() }
    }

    /// Host index of `vm`.
    pub fn host_of(&self, vm: u32) -> u32 {
        self.placement.host_of(vm, self.vms, self.hosts)
    }

    /// Rack index of physical host `host`: contiguous blocks of
    /// `ceil(hosts / racks)` hosts.
    pub fn rack_of_host(&self, host: u32) -> u32 {
        let per_rack = self.hosts.div_ceil(self.racks).max(1);
        (host / per_rack).min(self.racks - 1)
    }

    /// Hardware class of physical host `host` (baseline when no classes
    /// are configured).
    pub fn class_of(&self, host: u32) -> HostClass {
        self.host_classes.get(host as usize).copied().unwrap_or_default()
    }

    /// Validates internal consistency, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.hosts == 0 {
            return Err("cluster needs at least one host".into());
        }
        if self.vms == 0 {
            return Err("cluster needs at least one VM".into());
        }
        if self.vm.vcpus == 0 {
            return Err("VMs need at least one VCPU".into());
        }
        if self.host.cores == 0 {
            return Err("hosts need at least one core".into());
        }
        // NaN-safe positivity: NaN compares Greater to nothing.
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        for (name, v) in [
            ("host.core_hz", self.host.core_hz),
            ("host.nic_bw", self.host.nic_bw),
            ("host.bridge_bw", self.host.bridge_bw),
            ("nfs.disk_bw", self.nfs.disk_bw),
            ("nfs.nic_bw", self.nfs.nic_bw),
            ("switch_bw", self.switch_bw),
            ("core_bw", self.core_bw),
        ] {
            if !positive(v) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if !self.nfs.op_latency_ms.is_finite() || self.nfs.op_latency_ms < 0.0 {
            return Err(format!(
                "nfs.op_latency_ms must be finite and non-negative, got {}",
                self.nfs.op_latency_ms
            ));
        }
        if let Placement::Custom(map) = &self.placement {
            if map.len() as u32 != self.vms {
                return Err(format!(
                    "custom placement covers {} VMs but cluster has {}",
                    map.len(),
                    self.vms
                ));
            }
            if let Some(&h) = map.iter().find(|&&h| h >= self.hosts) {
                return Err(format!("custom placement references unknown host {h}"));
            }
        }
        if self.racks == 0 {
            return Err("cluster needs at least one rack".into());
        }
        if self.racks > self.hosts {
            return Err(format!("{} racks but only {} hosts", self.racks, self.hosts));
        }
        if !self.host_classes.is_empty() {
            if self.host_classes.len() as u32 != self.hosts {
                return Err(format!(
                    "host_classes covers {} hosts but cluster has {}",
                    self.host_classes.len(),
                    self.hosts
                ));
            }
            for (h, c) in self.host_classes.iter().enumerate() {
                if !positive(c.cpu_mult) || !positive(c.disk_mult) {
                    return Err(format!(
                        "host {h} class multipliers must be positive (cpu {}, disk {})",
                        c.cpu_mult, c.disk_mult
                    ));
                }
            }
        }
        // Memory oversubscription check per host.
        for h in 0..self.hosts {
            let packed: u64 =
                (0..self.vms).filter(|&v| self.host_of(v) == h).map(|_| self.vm.mem).sum();
            if packed > self.host.dram {
                return Err(format!(
                    "host {h} oversubscribed: {} MB of VMs in {} MB of DRAM",
                    packed / MIB,
                    self.host.dram / MIB
                ));
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`ClusterSpec`].
#[derive(Debug, Clone, Default)]
pub struct ClusterSpecBuilder {
    spec: ClusterSpec,
}

impl ClusterSpecBuilder {
    /// Number of physical hosts.
    pub fn hosts(mut self, n: u32) -> Self {
        self.spec.hosts = n;
        self
    }

    /// Number of VMs.
    pub fn vms(mut self, n: u32) -> Self {
        self.spec.vms = n;
        self
    }

    /// VM memory in MiB (paper uses 512 or 1024).
    pub fn vm_mem_mib(mut self, mib: u64) -> Self {
        self.spec.vm.mem = mib * MIB;
        self
    }

    /// VCPUs per VM.
    pub fn vm_vcpus(mut self, v: u32) -> Self {
        self.spec.vm.vcpus = v;
        self
    }

    /// Placement policy.
    pub fn placement(mut self, p: Placement) -> Self {
        self.spec.placement = p;
        self
    }

    /// Number of racks (contiguous host blocks).
    pub fn racks(mut self, n: u32) -> Self {
        self.spec.racks = n;
        self
    }

    /// Core switch bandwidth in bytes/second.
    pub fn core_bw(mut self, bw: f64) -> Self {
        self.spec.core_bw = bw;
        self
    }

    /// Per-host hardware classes (one per host; empty = homogeneous).
    pub fn host_classes(mut self, classes: Vec<HostClass>) -> Self {
        self.spec.host_classes = classes;
        self
    }

    /// Finalizes the spec.
    ///
    /// # Panics
    /// On an invalid configuration (see [`ClusterSpec::validate`]).
    pub fn build(self) -> ClusterSpec {
        if let Err(e) = self.spec.validate() {
            panic!("invalid ClusterSpec: {e}");
        }
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let s = ClusterSpec::default();
        assert_eq!(s.hosts, 2);
        assert_eq!(s.vms, 16);
        assert_eq!(s.host.cores, 8);
        assert_eq!(s.host.core_hz, 2.4e9);
        assert_eq!(s.host.dram, 32 * GIB);
        assert_eq!(s.vm.mem, 1024 * MIB);
        assert_eq!(s.vm.vcpus, 1);
    }

    #[test]
    fn single_domain_places_everything_on_host0() {
        let s = ClusterSpec::paper_normal();
        assert!((0..16).all(|v| s.host_of(v) == 0));
    }

    #[test]
    fn cross_domain_splits_evenly() {
        let s = ClusterSpec { placement: Placement::CrossDomain, ..Default::default() };
        let on0 = (0..16).filter(|&v| s.host_of(v) == 0).count();
        let on1 = (0..16).filter(|&v| s.host_of(v) == 1).count();
        assert_eq!((on0, on1), (8, 8));
    }

    #[test]
    fn custom_placement_is_respected() {
        let s = ClusterSpec::builder()
            .hosts(2)
            .vms(3)
            .placement(Placement::Custom(vec![1, 0, 1]))
            .build();
        assert_eq!(s.host_of(0), 1);
        assert_eq!(s.host_of(1), 0);
        assert_eq!(s.host_of(2), 1);
    }

    #[test]
    fn validate_catches_oversubscription() {
        let s = ClusterSpec::builder().hosts(1).vms(16).placement(Placement::SingleDomain);
        // 16 × 4 GiB = 64 GiB > 32 GiB DRAM.
        let mut spec = s.spec.clone();
        spec.vm.mem = 4 * GIB;
        assert!(spec.validate().unwrap_err().contains("oversubscribed"));
    }

    #[test]
    #[should_panic(expected = "invalid ClusterSpec")]
    fn builder_rejects_bad_custom_placement() {
        let _ =
            ClusterSpec::builder().hosts(1).vms(2).placement(Placement::Custom(vec![0])).build();
    }

    #[test]
    fn host_cpu_capacity() {
        let h = HostSpec::default();
        assert_eq!(h.cpu_capacity(), 8.0 * 2.4e9);
    }

    #[test]
    fn host_classes_default_to_baseline() {
        let s = ClusterSpec::default();
        assert!(s.host_classes.is_empty());
        assert_eq!(s.class_of(0), HostClass::default());
        let s = ClusterSpec::builder()
            .hosts(2)
            .vms(4)
            .host_classes(vec![HostClass::default(), HostClass { cpu_mult: 0.5, disk_mult: 0.5 }])
            .build();
        assert_eq!(s.class_of(1).cpu_mult, 0.5);
    }

    #[test]
    #[should_panic(expected = "host_classes covers")]
    fn builder_rejects_mismatched_host_classes() {
        let _ =
            ClusterSpec::builder().hosts(2).vms(4).host_classes(vec![HostClass::default()]).build();
    }

    #[test]
    fn hosts_fill_racks_in_contiguous_blocks() {
        let racks_of = |hosts: u32, racks: u32| {
            let s = ClusterSpec::builder().hosts(hosts).vms(hosts).racks(racks).build();
            (0..hosts).map(|h| s.rack_of_host(h)).collect::<Vec<_>>()
        };
        assert_eq!(racks_of(6, 3), vec![0, 0, 1, 1, 2, 2]);
        // Odd split: 5 hosts over 2 racks → 3 + 2.
        assert_eq!(racks_of(5, 2), vec![0, 0, 0, 1, 1]);
        assert_eq!(racks_of(2, 1), vec![0, 0]);
    }

    #[test]
    fn validate_rejects_bad_rack_counts() {
        let with_racks = |racks| ClusterSpec { hosts: 2, racks, ..Default::default() };
        assert!(with_racks(0).validate().unwrap_err().contains("at least one rack"));
        let more = ClusterSpec { hosts: 2, vms: 2, racks: 4, ..Default::default() };
        assert!(more.validate().unwrap_err().contains("4 racks but only 2 hosts"));
        assert!(with_racks(2).validate().is_ok());
    }

    /// `set(spec, v)` writes one bandwidth or clock field: zero, negative
    /// and NaN must fail naming `field`, and +∞ (an uncontended resource)
    /// must pass.
    fn rejects_nonpositive(field: &str, set: fn(&mut ClusterSpec, f64)) {
        for bad in [0.0, -1.0, f64::NAN] {
            let mut s = ClusterSpec::default();
            set(&mut s, bad);
            let err = s.validate().expect_err(&format!("{field} = {bad} accepted"));
            assert!(err.contains(field), "{field} = {bad}: error {err:?} does not name it");
        }
        let mut s = ClusterSpec::default();
        set(&mut s, f64::INFINITY);
        assert_eq!(s.validate(), Ok(()), "{field} = +inf");
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let s =
            ClusterSpec { host: HostSpec { cores: 0, ..Default::default() }, ..Default::default() };
        assert!(s.validate().unwrap_err().contains("core"));
    }

    #[test]
    fn validate_rejects_bad_core_hz() {
        rejects_nonpositive("host.core_hz", |s, v| s.host.core_hz = v);
    }

    #[test]
    fn validate_rejects_bad_host_nic_bw() {
        rejects_nonpositive("host.nic_bw", |s, v| s.host.nic_bw = v);
    }

    #[test]
    fn validate_rejects_bad_bridge_bw() {
        rejects_nonpositive("host.bridge_bw", |s, v| s.host.bridge_bw = v);
    }

    #[test]
    fn validate_rejects_bad_nfs_disk_bw() {
        rejects_nonpositive("nfs.disk_bw", |s, v| s.nfs.disk_bw = v);
    }

    #[test]
    fn validate_rejects_bad_nfs_nic_bw() {
        rejects_nonpositive("nfs.nic_bw", |s, v| s.nfs.nic_bw = v);
    }

    #[test]
    fn validate_rejects_bad_switch_bw() {
        rejects_nonpositive("switch_bw", |s, v| s.switch_bw = v);
    }

    #[test]
    fn validate_rejects_bad_core_bw() {
        rejects_nonpositive("core_bw", |s, v| s.core_bw = v);
    }

    #[test]
    fn validate_rejects_bad_nfs_op_latency() {
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            let s = ClusterSpec {
                nfs: NfsSpec { op_latency_ms: bad, ..Default::default() },
                ..Default::default()
            };
            let err = s.validate().expect_err(&format!("op_latency_ms = {bad} accepted"));
            assert!(err.contains("nfs.op_latency_ms"), "{err}");
        }
        let zero = ClusterSpec {
            nfs: NfsSpec { op_latency_ms: 0.0, ..Default::default() },
            ..Default::default()
        };
        assert_eq!(zero.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn builder_rejects_nonpositive_class_multipliers() {
        let _ = ClusterSpec::builder()
            .hosts(1)
            .vms(4)
            .host_classes(vec![HostClass { cpu_mult: 0.0, disk_mult: 1.0 }])
            .build();
    }
}
