//! VM placement policies.
//!
//! The seed platform pins the VM→host map at cluster construction via
//! [`Placement::host_of`]. This module turns that decision into a policy:
//! a [`PlacementKind`] may rewrite the map before the cluster is built
//! (pack onto few hosts, spread across all, or pick adaptively from a
//! workload hint), or decline ([`PlacementKind::Spec`]) and leave the
//! spec's own layout untouched — the byte-identical default.
//!
//! The adaptive policy reuses the paper's normal-vs-cross-domain framing:
//! packing keeps shuffle traffic on the fast in-host software bridge but
//! stacks every VCPU onto one host's cores;
//! spreading pays the slower physical NIC but doubles the core budget.
//! The configured [`MakespanKind`] prices both layouts — by default
//! [`estimate_makespan`], which models exactly those two effects — and
//! the policy picks the cheaper one.

use crate::model::MakespanKind;
use vcluster::spec::{ClusterSpec, Placement, XEN_CPU_OVERHEAD};

/// Rough description of the workload a placement must serve, used by
/// [`PlacementKind::Adaptive`] to price candidate layouts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadHint {
    /// Concurrent tasks in one wave (map slots demanded).
    pub tasks: u32,
    /// Guest CPU seconds each task burns.
    pub cpu_secs_per_task: f64,
    /// Bytes each task ships through spill + shuffle.
    pub shuffle_bytes_per_task: u64,
}

impl Default for WorkloadHint {
    fn default() -> Self {
        // One modest map wave: what the paper's normal-vs-cross runs look
        // like per job. Callers with real knowledge should override.
        WorkloadHint { tasks: 8, cpu_secs_per_task: 2.0, shuffle_bytes_per_task: 16 << 20 }
    }
}

/// Which VM→host layout the platform boots with.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PlacementKind {
    /// Keep the spec's own placement — the policy under which the
    /// platform is byte-identical to a controller-free run.
    #[default]
    Spec,
    /// Consolidate: fill hosts in index order, moving on only when a
    /// host's DRAM is exhausted (the paper's "normal" single-domain layout
    /// when the VMs fit one host).
    Pack,
    /// Balance: VM *i* lands on host *i* mod hosts (the paper's
    /// cross-domain layout generalized to any host count).
    Spread,
    /// Pack or spread, whichever the makespan model prices cheaper for
    /// this workload on an idle cluster.
    Adaptive(WorkloadHint),
}

impl PlacementKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementKind::Spec => "spec",
            PlacementKind::Pack => "pack",
            PlacementKind::Spread => "spread",
            PlacementKind::Adaptive(_) => "adaptive",
        }
    }

    /// The VM→host override for `spec` (one host index per VM), or `None`
    /// to keep the spec's own placement. Only
    /// [`PlacementKind::Adaptive`] consults `model`.
    pub fn assign(&self, spec: &ClusterSpec, model: &MakespanKind) -> Option<Vec<u32>> {
        match self {
            PlacementKind::Spec => None,
            PlacementKind::Pack => Some(pack(spec)),
            PlacementKind::Spread => Some(spread(spec)),
            PlacementKind::Adaptive(hint) => {
                let (packed, spread_out) = (pack(spec), spread(spec));
                let t_pack = model.estimate(spec, &packed, hint, &[]);
                let t_spread = model.estimate(spec, &spread_out, hint, &[]);
                Some(if t_pack <= t_spread { packed } else { spread_out })
            }
        }
    }
}

fn pack(spec: &ClusterSpec) -> Vec<u32> {
    let per_host = (spec.host.dram / spec.vm.mem.max(1)).max(1) as u32;
    (0..spec.vms).map(|v| (v / per_host).min(spec.hosts - 1)).collect()
}

fn spread(spec: &ClusterSpec) -> Vec<u32> {
    (0..spec.vms).map(|v| v % spec.hosts).collect()
}

/// Applies a placement override to a spec in place (no-op on `None`).
pub fn apply_placement(spec: &mut ClusterSpec, map: Option<Vec<u32>>) {
    if let Some(map) = map {
        assert_eq!(map.len(), spec.vms as usize, "placement map must cover every VM");
        spec.placement = Placement::Custom(map);
    }
}

/// First-order makespan estimate of one task wave under `map`.
///
/// CPU side: VM 0 is the namenode (runs no tasks), so tasks land on the
/// remaining workers proportionally to each host's worker count. A host's
/// wave time is its guest work divided by its effective cores (discounted
/// by `host_load` and Xen's hypervisor overhead). Wire side: shuffle bytes split into same-host traffic at
/// bridge speed and cross-host traffic at NIC speed, with the same-host
/// fraction Σ(wᕼ/W)² from random sender/receiver pairing; on a multi-rack
/// topology the cross-rack fraction 1 − Σ(wᵣ/W)² additionally squeezes
/// through the shared core switch (a term that is exactly zero on the
/// default single-rack fabric, where every pair is rack-local). The wave's
/// cost is the serialized sum of the two sides — pessimistic on overlap,
/// but it keeps the wire term visible when CPU dominates, which is exactly
/// where pack and spread tie on compute and differ only in shuffle path.
pub fn estimate_makespan(
    spec: &ClusterSpec,
    map: &[u32],
    hint: &WorkloadHint,
    host_load: &[f64],
) -> f64 {
    let layout = Layout::of(spec, map);
    if layout.total_workers == 0 {
        return f64::INFINITY;
    }
    let total_workers = f64::from(layout.total_workers);
    let tasks = f64::from(hint.tasks);
    let bytes_per_task = hint.shuffle_bytes_per_task as f64;
    let total_bytes = tasks * bytes_per_task;

    // Per-host CPU time for the wave.
    let mut t_cpu: f64 = 0.0;
    for (h, &w) in layout.workers.iter().enumerate() {
        if w == 0 {
            continue;
        }
        let share = f64::from(w) / total_workers;
        let host_tasks = tasks * share;
        let guest_cycles = host_tasks * hint.cpu_secs_per_task * spec.host.core_hz;
        let load = host_load.get(h).copied().unwrap_or(0.0).clamp(0.0, 1.0);
        let eff_cores = (f64::from(spec.host.cores) * (1.0 - load)).max(1.0) / XEN_CPU_OVERHEAD;
        // The wave can't use more cores than it has runnable tasks.
        let usable = eff_cores.min(host_tasks.max(1.0));
        t_cpu = t_cpu.max(guest_cycles / (spec.host.core_hz * usable));
    }

    // Wire time: same-host bytes ride the bridge, cross-host bytes the NIC
    // (each host's NIC carries its egress share).
    let bridge = total_bytes * layout.p_same / spec.host.bridge_bw.max(1.0);
    let busy_hosts = layout.busy_hosts.max(1) as f64;
    let nic = total_bytes * (1.0 - layout.p_same) / (spec.host.nic_bw.max(1.0) * busy_hosts);
    // Cross-rack bytes all funnel through the one core switch. With one
    // rack p_same_rack = 1 and the term vanishes, leaving the legacy
    // two-term estimate bit-for-bit.
    let core = total_bytes * (1.0 - layout.p_same_rack) / layout.core_bw.max(1.0);
    let t_wire = bridge + nic + core;

    t_cpu + t_wire
}

/// How a VM→host map spreads the workers over hosts and racks — what the
/// hand-priced estimate and the learned model's features both read off a
/// candidate layout. VM 0 hosts the namenode/jobtracker and takes no
/// tasks, so it is not a worker.
pub(crate) struct Layout {
    /// Workers per host.
    pub(crate) workers: Vec<u32>,
    /// Workers in all.
    pub(crate) total_workers: u32,
    /// Hosts with at least one worker.
    pub(crate) busy_hosts: usize,
    /// Chance that a sender and a receiver drawn independently from the
    /// workers share a host, Σ(wₕ/W)² (1 with no workers).
    pub(crate) p_same: f64,
    /// The same over racks, Σ(wᵣ/W)².
    pub(crate) p_same_rack: f64,
    /// Core-switch bandwidth: the topology's, else the flat switch's.
    pub(crate) core_bw: f64,
}

impl Layout {
    pub(crate) fn of(spec: &ClusterSpec, map: &[u32]) -> Self {
        assert_eq!(map.len(), spec.vms as usize);
        let mut workers = vec![0u32; spec.hosts as usize];
        for &h in map.iter().skip(1) {
            workers[h as usize] += 1;
        }
        let total_workers: u32 = workers.iter().sum();
        let mut rack_workers = vec![0u32; spec.topology.racks as usize];
        for (h, &w) in workers.iter().enumerate() {
            rack_workers[spec.rack_of_host(h as u32) as usize] += w;
        }
        let p_same = |counts: &[u32]| -> f64 {
            if total_workers == 0 {
                return 1.0;
            }
            counts
                .iter()
                .map(|&w| {
                    let f = f64::from(w) / f64::from(total_workers);
                    f * f
                })
                .sum()
        };
        Layout {
            busy_hosts: workers.iter().filter(|&&w| w > 0).count(),
            p_same: p_same(&workers),
            p_same_rack: p_same(&rack_workers),
            core_bw: if spec.topology.core_bw > 0.0 {
                spec.topology.core_bw
            } else {
                spec.switch_bw
            },
            workers,
            total_workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::default() // 2 hosts × 8 cores, 16 VMs × 1 GiB
    }

    const HAND: MakespanKind = MakespanKind::HandPriced;

    #[test]
    fn spec_policy_declines() {
        assert_eq!(PlacementKind::Spec.assign(&spec(), &HAND), None);
    }

    #[test]
    fn pack_fills_first_host_first() {
        let map = pack(&spec());
        assert_eq!(map.len(), 16);
        assert!(map.iter().all(|&h| h == 0), "16 × 1 GiB VMs fit host 0's 32 GiB: {map:?}");
        let mut small = spec();
        small.host.dram = 8 * vcluster::spec::GIB;
        let map = pack(&small);
        assert_eq!(&map[..8], &[0; 8], "first 8 on host 0");
        assert_eq!(&map[8..], &[1; 8], "overflow spills to host 1");
    }

    #[test]
    fn spread_round_robins() {
        let map = spread(&spec());
        assert_eq!(map[0], 0);
        assert_eq!(map[1], 1);
        assert_eq!(map[2], 0);
        assert_eq!(map.iter().filter(|&&h| h == 0).count(), 8);
    }

    #[test]
    fn apply_placement_rewrites_spec() {
        let mut s = spec();
        apply_placement(&mut s, None);
        assert_eq!(s.placement, Placement::SingleDomain, "None keeps the spec layout");
        let map = PlacementKind::Spread.assign(&s, &HAND);
        apply_placement(&mut s, map);
        assert!(matches!(s.placement, Placement::Custom(_)));
        assert_eq!(s.host_of(1), 1);
        s.validate().expect("rewritten spec stays valid");
    }

    #[test]
    fn estimator_prefers_pack_for_cpu_bound_and_spread_for_shuffle_heavy() {
        let s = spec();
        let pack = pack(&s);
        let spread = spread(&s);
        // Few heavy tasks, modest shuffle: fits one host's cores, bridge wins.
        let cpu =
            WorkloadHint { tasks: 3, cpu_secs_per_task: 8.0, shuffle_bytes_per_task: 48 << 20 };
        assert!(
            estimate_makespan(&s, &pack, &cpu, &[]) < estimate_makespan(&s, &spread, &cpu, &[]),
            "cpu-bound should pack"
        );
        // Full wave of cheap tasks with big shuffles: oversubscription
        // sinks the packed host.
        let shf =
            WorkloadHint { tasks: 15, cpu_secs_per_task: 2.5, shuffle_bytes_per_task: 4 << 20 };
        assert!(
            estimate_makespan(&s, &spread, &shf, &[]) < estimate_makespan(&s, &pack, &shf, &[]),
            "shuffle-heavy should spread"
        );
    }

    #[test]
    fn adaptive_matches_the_cheaper_layout() {
        let s = spec();
        let cpu =
            WorkloadHint { tasks: 3, cpu_secs_per_task: 8.0, shuffle_bytes_per_task: 48 << 20 };
        let a = PlacementKind::Adaptive(cpu);
        assert_eq!(a.assign(&s, &HAND), Some(pack(&s)), "adaptive packs the cpu-bound mix");
        let shf =
            WorkloadHint { tasks: 15, cpu_secs_per_task: 2.5, shuffle_bytes_per_task: 4 << 20 };
        let a = PlacementKind::Adaptive(shf);
        assert_eq!(a.assign(&s, &HAND), Some(spread(&s)), "adaptive spreads the shuffle mix");
    }

    #[test]
    fn cross_rack_core_term_raises_spread_estimate() {
        // 4 hosts over 2 racks with a slow core: spreading across racks
        // pays the core; the same layout on one rack doesn't.
        let mut racked = ClusterSpec::builder().hosts(4).vms(16).racks(2).build();
        racked.topology.core_bw = 50e6; // much slower than the NICs
        let flat = ClusterSpec::builder().hosts(4).vms(16).build();
        let map = spread(&racked);
        let hint =
            WorkloadHint { tasks: 15, cpu_secs_per_task: 1.0, shuffle_bytes_per_task: 32 << 20 };
        let t_racked = estimate_makespan(&racked, &map, &hint, &[]);
        let t_flat = estimate_makespan(&flat, &map, &hint, &[]);
        assert!(
            t_racked > t_flat * 1.05,
            "slow core must show up in the estimate: racked {t_racked:.2}s vs flat {t_flat:.2}s"
        );
        // And with one rack the topology term is exactly zero: the
        // estimate equals the legacy two-term price.
        let mut one_rack = flat.clone();
        one_rack.topology.core_bw = 50e6; // ignored: no core exists
        assert_eq!(estimate_makespan(&one_rack, &map, &hint, &[]), t_flat);
    }

    #[test]
    fn background_load_tilts_adaptive_away_from_a_busy_host() {
        let s = spec();
        let cpu =
            WorkloadHint { tasks: 3, cpu_secs_per_task: 8.0, shuffle_bytes_per_task: 48 << 20 };
        let pack = pack(&s);
        let idle = estimate_makespan(&s, &pack, &cpu, &[]);
        let busy = estimate_makespan(&s, &pack, &cpu, &[0.9, 0.0]);
        assert!(busy > idle, "load on the packed host must raise its estimate");
    }
}
