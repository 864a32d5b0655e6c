//! The task-scheduler layer: every task-placement decision the JobTracker
//! makes is [`SchedulerPolicy::assign`] or
//! [`SchedulerPolicy::place_speculative`].
//!
//! Paper mechanism modelled: the Hadoop Module's task-assignment loop —
//! the JobTracker answering TaskTracker heartbeats with task assignments.
//! The paper runs stock Hadoop 0.20 FIFO scheduling;
//! [`SchedulerPolicy::Fifo`] reproduces that byte-for-byte (verified by a
//! golden determinism test). [`SchedulerPolicy::JobDriven`] follows Lee
//! & Lin's job-driven scheduling: locality-first map matching plus
//! partition-size-aware (LPT) reduce placement.
//!
//! Policies are pure functions of an immutable [`SchedulerView`] snapshot:
//! they never touch engine state, never consult wall-clock time or
//! ambient randomness, and return [`Assignment`]s in a deterministic
//! order (the order fixes heartbeat-stagger waves, so it is part of the
//! contract, not a cosmetic detail).

use crate::config::JobConfig;
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use vcluster::cluster::{HostId, VmId};
use vcluster::topology::RackId;

/// Which placement policy drives the JobTracker. Selected engine-wide via
/// `PlatformConfig::scheduler` or per submission via
/// [`JobConfig::with_scheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Hadoop 0.20 stock behavior: jobs in submission order, each job
    /// greedily fills free slots (locality-preferring for maps).
    #[default]
    Fifo,
    /// Lee & Lin's job-driven scheduling: maps are matched to replicas
    /// first (data-local, then host-local, then anywhere); reduces are
    /// placed largest-partition-first on the least-loaded trackers.
    JobDriven,
}

impl SchedulerPolicy {
    /// Stable lowercase name (CLI flags, CSV series).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerPolicy::Fifo => "fifo",
            SchedulerPolicy::JobDriven => "job-driven",
        }
    }

    /// All policies, in ablation-sweep order.
    pub fn all() -> [SchedulerPolicy; 2] {
        [SchedulerPolicy::Fifo, SchedulerPolicy::JobDriven]
    }

    /// Decides every placement possible against `view`'s free slots. The
    /// engine applies the assignments in the returned order (the k-th one
    /// launches after k heartbeat staggers) and re-validates each against
    /// live state, so a stale assignment is dropped, never misapplied.
    ///
    /// Returns nothing when nothing is pending — no job has a pending map
    /// and no `reduces_open` job has a pending reduce — and the engine
    /// does not call it then.
    pub fn assign(self, view: &SchedulerView) -> Vec<Assignment> {
        match self {
            SchedulerPolicy::Fifo => fifo(view),
            SchedulerPolicy::JobDriven => job_driven(view),
        }
    }

    /// Places a speculative (backup) map attempt for `job`, avoiding
    /// `avoid` (the tracker running the straggling primary): the emptiest
    /// other tracker, ties to the lowest id — stock Hadoop, under every
    /// policy.
    pub fn place_speculative(self, view: &SchedulerView, job: u32, avoid: VmId) -> Option<VmId> {
        let cfg = view.jobs.iter().find(|j| j.id == job)?.config;
        emptiest(view, &Slots::snapshot(view), cfg, Some(avoid))
    }
}

impl std::fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One live TaskTracker as the scheduler sees it.
#[derive(Debug, Clone, Copy)]
pub struct TrackerInfo {
    /// The tracker VM.
    pub vm: VmId,
    /// The physical host currently running it (for host-local placement).
    pub host: HostId,
    /// The rack that host sits in (for rack-local placement).
    pub rack: RackId,
}

/// One unfinished job as the scheduler sees it. Jobs appear in ascending
/// id (submission) order.
#[derive(Debug)]
pub struct JobView<'a> {
    /// Job id.
    pub id: u32,
    /// The job's configuration (slot capacities, locality flag, ...).
    pub config: &'a JobConfig,
    /// Map task indices awaiting assignment, FIFO order.
    pub pending_maps: &'a VecDeque<usize>,
    /// Reduce task indices awaiting assignment, FIFO order.
    pub pending_reduces: &'a VecDeque<usize>,
    /// Per map task: the VMs holding a replica of its input split.
    pub map_locations: Vec<&'a [VmId]>,
    /// True once the map phase finished — reduces may only be placed then
    /// (the engine models no shuffle/map overlap).
    pub reduces_open: bool,
    /// Bytes of map output per reduce partition; empty until reduces are
    /// schedulable. Drives [`SchedulerPolicy::JobDriven`] LPT placement.
    pub partition_bytes: Vec<u64>,
}

/// Immutable snapshot of everything a policy may consult.
#[derive(Debug)]
pub struct SchedulerView<'a> {
    /// Live TaskTrackers, engine order: ascending VM id, then any
    /// rejoined trackers in the order they came back.
    pub trackers: &'a [TrackerInfo],
    /// Physical host of every VM, indexed by `VmId.0` (covers replica VMs
    /// that are not live trackers, e.g. a failed datanode whose host still
    /// counts as "near" for host-local placement).
    pub vm_hosts: &'a [HostId],
    /// Rack of every VM, indexed by `VmId.0` (same coverage note).
    pub vm_racks: &'a [RackId],
    /// Number of racks in the cluster fabric. Rack-local scheduling
    /// passes only run when this exceeds 1 — on a flat single-rack
    /// cluster "rack-local" would match every tracker and shadow the
    /// emptiest-tracker fallback.
    pub racks: u32,
    /// Map slots currently held, by tracker VM id.
    pub used_map_slots: &'a HashMap<u32, u32>,
    /// Reduce slots currently held, by tracker VM id.
    pub used_reduce_slots: &'a HashMap<u32, u32>,
    /// Unfinished jobs, ascending id.
    pub jobs: Vec<JobView<'a>>,
}

/// What kind of task an [`Assignment`] places.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Map task with this index.
    Map(usize),
    /// Reduce task with this index.
    Reduce(usize),
}

/// One placement decision: run `kind` of job `job` on tracker `vm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Owning job id.
    pub job: u32,
    /// Which task.
    pub kind: TaskKind,
    /// Where it runs.
    pub vm: VmId,
}

/// Scratch slot ledger: policies charge tentative assignments against a
/// dense copy of the engine's slot tables — indexed by `VmId.0`, filled
/// once per round — so one `assign` round never over-commits a tracker
/// and "is this replica's VM a live tracker with room" is two array reads.
#[derive(Debug, Clone)]
struct Slots {
    used_map: Vec<u32>,
    used_reduce: Vec<u32>,
    live: Vec<bool>,
}

impl Slots {
    fn snapshot(view: &SchedulerView) -> Self {
        let vms = view.vm_hosts.len();
        let dense = |held: &HashMap<u32, u32>| {
            let mut table = vec![0; vms];
            for (&vm, &n) in held {
                table[vm as usize] = n;
            }
            table
        };
        let mut live = vec![false; vms];
        for t in view.trackers {
            live[t.vm.0 as usize] = true;
        }
        Slots {
            used_map: dense(view.used_map_slots),
            used_reduce: dense(view.used_reduce_slots),
            live,
        }
    }

    fn free_map(&self, vm: VmId, cfg: &JobConfig) -> u32 {
        cfg.map_slots_per_node.saturating_sub(self.used_map[vm.0 as usize])
    }

    fn free_reduce(&self, vm: VmId, cfg: &JobConfig) -> u32 {
        cfg.reduce_slots_per_node.saturating_sub(self.used_reduce[vm.0 as usize])
    }

    /// Map + reduce slots held on `vm` — total tracker load.
    fn total_used(&self, vm: VmId) -> u32 {
        self.used_map[vm.0 as usize] + self.used_reduce[vm.0 as usize]
    }

    fn take_map(&mut self, vm: VmId) {
        self.used_map[vm.0 as usize] += 1;
    }

    fn take_reduce(&mut self, vm: VmId) {
        self.used_reduce[vm.0 as usize] += 1;
    }
}

/// One tier of map placement: the tracker a map whose split has replicas
/// on `locations` gets from this tier alone, if any.
type Tier = fn(&SchedulerView, &Slots, &JobConfig, &[VmId]) -> Option<VmId>;

/// The locality tiers, nearest first: data-local, host-local, rack-local.
const LOCALITY_TIERS: [Tier; 3] = [data_local, host_local, rack_local];

/// A replica VM with a free slot, in replica order (it must still be a
/// live tracker — datanodes can fail).
fn data_local(_: &SchedulerView, slots: &Slots, cfg: &JobConfig, at: &[VmId]) -> Option<VmId> {
    at.iter().copied().find(|&v| slots.live[v.0 as usize] && slots.free_map(v, cfg) > 0)
}

/// The first tracker (view order) with a free slot that `near` accepts.
fn first_free(
    view: &SchedulerView,
    slots: &Slots,
    cfg: &JobConfig,
    near: impl Fn(&TrackerInfo) -> bool,
) -> Option<VmId> {
    view.trackers.iter().find(|t| slots.free_map(t.vm, cfg) > 0 && near(t)).map(|t| t.vm)
}

fn host_local(view: &SchedulerView, slots: &Slots, cfg: &JobConfig, at: &[VmId]) -> Option<VmId> {
    first_free(view, slots, cfg, |t| at.iter().any(|&l| view.vm_hosts[l.0 as usize] == t.host))
}

/// Only meaningful (and only run) when the fabric has more than one rack:
/// on one rack this tier is every tracker and would shadow the
/// emptiest-tracker balancing that follows it.
fn rack_local(view: &SchedulerView, slots: &Slots, cfg: &JobConfig, at: &[VmId]) -> Option<VmId> {
    if view.racks <= 1 {
        return None;
    }
    first_free(view, slots, cfg, |t| at.iter().any(|&l| view.vm_racks[l.0 as usize] == t.rack))
}

/// The tracker with the most free map slots other than `avoid`, ties to
/// the lowest id.
fn emptiest(
    view: &SchedulerView,
    slots: &Slots,
    cfg: &JobConfig,
    avoid: Option<VmId>,
) -> Option<VmId> {
    view.trackers
        .iter()
        .map(|t| t.vm)
        .filter(|&v| Some(v) != avoid && slots.free_map(v, cfg) > 0)
        .max_by_key(|&v| (slots.free_map(v, cfg), Reverse(v.0)))
}

/// Stock Hadoop map placement: the nearest locality tier that has room
/// (when the job is locality-aware), otherwise the emptiest tracker.
fn pick_map_vm(
    view: &SchedulerView,
    slots: &Slots,
    cfg: &JobConfig,
    locations: &[VmId],
) -> Option<VmId> {
    let near = if cfg.locality_aware {
        LOCALITY_TIERS.iter().find_map(|tier| tier(view, slots, cfg, locations))
    } else {
        None
    };
    near.or_else(|| emptiest(view, slots, cfg, None))
}

/// Reduce placement: the tracker with the most free reduce slots, ties
/// broken toward the *least loaded* tracker overall (map + reduce slots
/// held), then the lowest id. The total-load tie-break fixes the seed
/// engine's bug of ignoring map load: under 2-job contention a tracker
/// still churning through job A's maps no longer ties with an idle one
/// for job B's reduces.
fn pick_reduce_vm(view: &SchedulerView, slots: &Slots, cfg: &JobConfig) -> Option<VmId> {
    view.trackers
        .iter()
        .map(|t| t.vm)
        .filter(|&v| slots.free_reduce(v, cfg) > 0)
        .max_by_key(|&v| (slots.free_reduce(v, cfg), Reverse(slots.total_used(v)), Reverse(v.0)))
}

/// Hadoop 0.20 stock scheduling (the paper's configuration): jobs in
/// submission order, each filling every free slot it can.
fn fifo(view: &SchedulerView) -> Vec<Assignment> {
    let mut slots = Slots::snapshot(view);
    let mut out = Vec::new();
    for job in &view.jobs {
        let cfg = job.config;
        for &m in job.pending_maps {
            let Some(vm) = pick_map_vm(view, &slots, cfg, job.map_locations[m]) else { break };
            slots.take_map(vm);
            out.push(Assignment { job: job.id, kind: TaskKind::Map(m), vm });
        }
        if job.reduces_open {
            for &r in job.pending_reduces {
                let Some(vm) = pick_reduce_vm(view, &slots, cfg) else { break };
                slots.take_reduce(vm);
                out.push(Assignment { job: job.id, kind: TaskKind::Reduce(r), vm });
            }
        }
    }
    out
}

/// Lee & Lin's job-driven scheduling: per job, place every data-local map
/// pairing first, then host-local, then rack-local (when the fabric has
/// racks), then the remainder; reduces go largest-partition-first (LPT)
/// onto the least-loaded trackers.
fn job_driven(view: &SchedulerView) -> Vec<Assignment> {
    let mut slots = Slots::snapshot(view);
    let mut out = Vec::new();
    for job in &view.jobs {
        let cfg = job.config;
        // Maps: one pass per locality tier over the whole queue. Unlike
        // FIFO, a map deep in the queue may jump ahead if its replica
        // tracker has a free slot — that is the locality-first matching.
        let mut remaining: Vec<usize> = job.pending_maps.iter().copied().collect();
        for tier in LOCALITY_TIERS {
            remaining.retain(|&m| {
                let Some(vm) = tier(view, &slots, cfg, job.map_locations[m]) else {
                    return true;
                };
                slots.take_map(vm);
                out.push(Assignment { job: job.id, kind: TaskKind::Map(m), vm });
                false
            });
        }
        // Whatever is left goes to the emptiest trackers.
        for m in remaining {
            let Some(vm) = emptiest(view, &slots, cfg, None) else { break };
            slots.take_map(vm);
            out.push(Assignment { job: job.id, kind: TaskKind::Map(m), vm });
        }
        // Reduces: largest partition first, least-loaded tracker first —
        // classic LPT makespan balancing over reduce inputs.
        if job.reduces_open {
            let mut by_size: Vec<usize> = job.pending_reduces.iter().copied().collect();
            by_size
                .sort_by_key(|&r| (Reverse(job.partition_bytes.get(r).copied().unwrap_or(0)), r));
            for r in by_size {
                let Some(vm) = pick_reduce_vm(view, &slots, cfg) else { break };
                slots.take_reduce(vm);
                out.push(Assignment { job: job.id, kind: TaskKind::Reduce(r), vm });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trackers(n: u32) -> Vec<TrackerInfo> {
        // Two hosts on one rack, round-robin placement, VM 0 excluded
        // (master).
        (1..=n).map(|i| TrackerInfo { vm: VmId(i), host: HostId(i % 2), rack: RackId(0) }).collect()
    }

    struct ViewFixture {
        trackers: Vec<TrackerInfo>,
        vm_hosts: Vec<HostId>,
        vm_racks: Vec<RackId>,
        racks: u32,
        used_map: HashMap<u32, u32>,
        used_reduce: HashMap<u32, u32>,
        configs: Vec<JobConfig>,
        pending_maps: Vec<VecDeque<usize>>,
        pending_reduces: Vec<VecDeque<usize>>,
        locations: Vec<Vec<Vec<VmId>>>,
        reduces_open: Vec<bool>,
        partition_bytes: Vec<Vec<u64>>,
    }

    impl ViewFixture {
        fn new(n_trackers: u32) -> Self {
            ViewFixture {
                trackers: trackers(n_trackers),
                vm_hosts: (0..=n_trackers).map(|i| HostId(i % 2)).collect(),
                vm_racks: vec![RackId(0); n_trackers as usize + 1],
                racks: 1,
                used_map: HashMap::new(),
                used_reduce: HashMap::new(),
                configs: Vec::new(),
                pending_maps: Vec::new(),
                pending_reduces: Vec::new(),
                locations: Vec::new(),
                reduces_open: Vec::new(),
                partition_bytes: Vec::new(),
            }
        }

        /// Makes `vms`, in that order, the live trackers (hosts and racks
        /// from the VM tables).
        fn set_trackers(&mut self, vms: impl IntoIterator<Item = u32>) {
            self.trackers = vms
                .into_iter()
                .map(|v| TrackerInfo {
                    vm: VmId(v),
                    host: self.vm_hosts[v as usize],
                    rack: self.vm_racks[v as usize],
                })
                .collect();
        }

        fn job(
            &mut self,
            cfg: JobConfig,
            maps: usize,
            locations: Vec<Vec<VmId>>,
            reduces_open: bool,
            partition_bytes: Vec<u64>,
        ) -> &mut Self {
            assert_eq!(locations.len(), maps);
            self.configs.push(cfg.clone());
            self.pending_maps.push((0..maps).collect());
            self.pending_reduces.push((0..cfg.num_reduces as usize).collect());
            self.locations.push(locations);
            self.reduces_open.push(reduces_open);
            self.partition_bytes.push(partition_bytes);
            self
        }

        fn view(&self) -> SchedulerView<'_> {
            SchedulerView {
                trackers: &self.trackers,
                vm_hosts: &self.vm_hosts,
                vm_racks: &self.vm_racks,
                racks: self.racks,
                used_map_slots: &self.used_map,
                used_reduce_slots: &self.used_reduce,
                jobs: (0..self.configs.len())
                    .map(|j| JobView {
                        id: j as u32,
                        config: &self.configs[j],
                        pending_maps: &self.pending_maps[j],
                        pending_reduces: &self.pending_reduces[j],
                        map_locations: self.locations[j].iter().map(Vec::as_slice).collect(),
                        reduces_open: self.reduces_open[j],
                        partition_bytes: self.partition_bytes[j].clone(),
                    })
                    .collect(),
            }
        }
    }

    fn count_for_job(assignments: &[Assignment], job: u32) -> usize {
        assignments.iter().filter(|a| a.job == job).count()
    }

    #[test]
    fn fifo_drains_first_job_before_second() {
        let mut fx = ViewFixture::new(2); // 2 trackers × 2 map slots = 4 slots
        let cfg = JobConfig::default().with_locality(false);
        fx.job(cfg.clone(), 4, vec![vec![]; 4], false, vec![]);
        fx.job(cfg, 4, vec![vec![]; 4], false, vec![]);
        let a = SchedulerPolicy::Fifo.assign(&fx.view());
        assert_eq!(a.len(), 4, "all four slots filled");
        assert_eq!(count_for_job(&a, 0), 4, "FIFO gives job 0 everything");
        assert_eq!(count_for_job(&a, 1), 0);
    }

    #[test]
    fn job_driven_prefers_locality_over_queue_order() {
        // One free slot situation: tracker 1 full, tracker 2 free. Map 0
        // (queue front) has its replica on the full tracker; map 1 lives
        // on the free one. FIFO would give the slot to map 0 (remote);
        // JobDriven matches map 1 to its replica first.
        let mut fx = ViewFixture::new(2);
        fx.used_map.insert(1, 2); // tracker 1 full
        let cfg = JobConfig::default();
        fx.job(cfg, 2, vec![vec![VmId(1)], vec![VmId(2)]], false, vec![]);
        let a = SchedulerPolicy::JobDriven.assign(&fx.view());
        let first = a.first().expect("an assignment");
        assert_eq!(first.kind, TaskKind::Map(1), "local map jumps the queue");
        assert_eq!(first.vm, VmId(2));
        // FIFO on the same view places the queue head remotely.
        let f = SchedulerPolicy::Fifo.assign(&fx.view());
        assert_eq!(f.first().expect("an assignment").kind, TaskKind::Map(0));
    }

    #[test]
    fn job_driven_places_largest_partition_first() {
        let mut fx = ViewFixture::new(2);
        let cfg = JobConfig::default().with_reduces(3);
        fx.job(cfg, 0, vec![], true, vec![10, 5000, 70]);
        let a = SchedulerPolicy::JobDriven.assign(&fx.view());
        let order: Vec<usize> = a
            .iter()
            .filter_map(|x| match x.kind {
                TaskKind::Reduce(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![1, 2, 0], "LPT: biggest reduce partition placed first");
    }

    /// Regression for the seed engine's reduce-placement bug: the picker
    /// compared free *reduce* slots only, so a tracker buried in another
    /// job's maps tied with an idle one and won on id. The total-load
    /// tie-break must send the reduce to the idle tracker.
    #[test]
    fn reduce_placement_avoids_map_loaded_tracker() {
        let mut fx = ViewFixture::new(2);
        fx.used_map.insert(1, 2); // tracker 1 busy with maps; reduce slots equal
        let cfg = JobConfig::default().with_reduces(1);
        fx.job(cfg, 0, vec![], true, vec![100]);
        for a in SchedulerPolicy::Fifo.assign(&fx.view()) {
            assert_eq!(a.vm, VmId(2), "reduce avoids the map-loaded tracker");
        }
        assert_eq!(SchedulerPolicy::Fifo.assign(&fx.view()).len(), 1);
    }

    /// The rack-local tier sits between host-local and anywhere: when the
    /// replica node and every tracker on its host are full, a same-rack
    /// tracker wins over an off-rack one — but only on a multi-rack
    /// fabric; flat clusters keep the emptiest-tracker fallback.
    #[test]
    fn rack_local_beats_off_rack() {
        // Hosts alternate (vm1/vm3 on host 1, vm2/vm4 on host 0) while
        // racks split differently: vm1/vm2 in rack 0, vm3/vm4 in rack 1.
        // Replica on vm1; vm1 and vm3 (vm1's host peer) are full, so both
        // the data-local and host-local passes fail. vm2 carries one task
        // (1 free slot), vm4 is idle (2 free).
        let setup = || {
            let mut fx = ViewFixture::new(4);
            fx.used_map.insert(1, 2);
            fx.used_map.insert(3, 2);
            fx.used_map.insert(2, 1);
            fx.job(JobConfig::default(), 1, vec![vec![VmId(1)]], false, vec![]);
            fx
        };
        let mut racked = setup();
        racked.racks = 2;
        racked.vm_racks = vec![RackId(0), RackId(0), RackId(0), RackId(1), RackId(1)];
        for t in &mut racked.trackers {
            t.rack = racked.vm_racks[t.vm.0 as usize];
        }
        for a in [
            SchedulerPolicy::Fifo.assign(&racked.view()),
            SchedulerPolicy::JobDriven.assign(&racked.view()),
        ] {
            assert_eq!(
                a.first().expect("placed").vm,
                VmId(2),
                "same-rack vm2 preferred over the emptier off-rack vm4"
            );
        }
        // Flat fabric, identical slots: the emptiest tracker (vm4) wins —
        // the rack pass must not fire with one rack.
        let flat = setup();
        let a = SchedulerPolicy::Fifo.assign(&flat.view());
        assert_eq!(a.first().expect("placed").vm, VmId(4), "flat fallback is the emptiest");
    }

    #[test]
    fn speculative_placement_avoids_straggler_host() {
        let mut fx = ViewFixture::new(3);
        let cfg = JobConfig::default();
        fx.job(cfg, 1, vec![vec![]], false, vec![]);
        let vm = SchedulerPolicy::Fifo
            .place_speculative(&fx.view(), 0, VmId(1))
            .expect("free slot exists");
        assert_ne!(vm, VmId(1), "backup attempt runs elsewhere");
    }

    /// FNV-1a over a sequence of words (little-endian bytes).
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// A `stream_1024`-sized view: 1024 workers on 128 hosts in 8 racks,
    /// ~70 % of the slots held by a seeded pattern (some entries present
    /// with 0, as the engine leaves them), three dead VMs that replicas
    /// still name, two rejoined trackers at the end of the list, and three
    /// 64-map jobs with two replicas per split — one of them with its
    /// reduces open over skewed partitions.
    fn scale_fixture() -> ViewFixture {
        let mut state = 2012u64;
        let mut draw = move |n: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) % n
        };
        let n = 1024u32;
        let mut fx = ViewFixture::new(n);
        fx.racks = 8;
        fx.vm_hosts = (0..=n).map(|v| HostId(v % 128)).collect();
        fx.vm_racks = (0..=n).map(|v| RackId(v % 128 / 16)).collect();
        let (dead, rejoined) = ([100, 300, 900], [512, 7]);
        let alive = (1..=n).filter(|v| !dead.contains(v) && !rejoined.contains(v));
        fx.set_trackers(alive.chain(rejoined));
        for t in &fx.trackers {
            for used in [&mut fx.used_map, &mut fx.used_reduce] {
                let held = u32::from(draw(10) < 7) + u32::from(draw(10) < 7);
                if held > 0 || draw(3) == 0 {
                    used.insert(t.vm.0, held);
                }
            }
        }
        let configs = [
            JobConfig::default(),
            JobConfig::default().with_reduces(24),
            JobConfig { map_slots_per_node: 3, ..JobConfig::default() },
        ];
        for (j, cfg) in configs.into_iter().enumerate() {
            let locations = (0..64)
                .map(|m| {
                    let first = if m == 0 { dead[j] } else { 1 + draw(1024) as u32 };
                    vec![VmId(first), VmId(1 + draw(1024) as u32)]
                })
                .collect();
            let open = j == 1;
            let bytes =
                if open { (0..24).map(|r| (1 + r % 5) * (1 << (r % 7))).collect() } else { vec![] };
            fx.job(cfg, 64, locations, open, bytes);
        }
        fx
    }

    /// The dense slot ledger must decide exactly what the hashed one did:
    /// the hashes below were captured on the commit before the rewrite
    /// (PR 21's tree) and cover the full `(job, kind, vm)` sequence of
    /// `assign` plus eight `place_speculative` answers, per policy.
    #[test]
    fn assignments_at_1024_trackers_match_the_hashed_ledger() {
        let fx = scale_fixture();
        let view = fx.view();
        let golden: [(SchedulerPolicy, u64, u64); 2] = [
            (SchedulerPolicy::Fifo, 0xcb7d_caa1_51d1_90ae, 0xcf0a_7394_cc94_d2a5),
            (SchedulerPolicy::JobDriven, 0xbebe_1cd6_5812_ecc2, 0xcf0a_7394_cc94_d2a5),
        ];
        for (policy, assign_hash, speculative_hash) in golden {
            let a = policy.assign(&view);
            assert!(a.len() > 150, "{policy}: the view has work and room, got {}", a.len());
            let got_assign = fnv1a(a.iter().flat_map(|x| {
                let (kind, index) = match x.kind {
                    TaskKind::Map(m) => (0, m),
                    TaskKind::Reduce(r) => (1, r),
                };
                [u64::from(x.job), kind, index as u64, u64::from(x.vm.0)]
            }));
            // Each backup avoids the previous answer, so the pairs walk the
            // runners-up too instead of asking for the same winner 8 times.
            let mut avoid = VmId(1);
            let got_speculative = fnv1a((0..8).map(|i| {
                let vm = policy.place_speculative(&view, i % 3, avoid);
                avoid = vm.unwrap_or(avoid);
                vm.map_or(u64::MAX, |vm| u64::from(vm.0))
            }));
            assert_eq!(
                (got_assign, got_speculative),
                (assign_hash, speculative_hash),
                "{policy}: placement diverged from the hashed ledger"
            );
        }
    }

    /// A generated view: 1–40 trackers out of a slightly larger VM set on
    /// 1–3 racks, random held slots (dead VMs included), 0–4 jobs whose
    /// replicas may name VMs that are not live trackers.
    fn random_fixture(g: &mut proptest::Gen) -> ViewFixture {
        let vms = g.u32_in(1, 40);
        let mut fx = ViewFixture::new(vms);
        fx.racks = g.u32_in(1, 3);
        fx.vm_hosts = (0..=vms).map(|v| HostId(v % 6)).collect();
        fx.vm_racks = fx.vm_hosts.iter().map(|h| RackId(h.0 % fx.racks)).collect();
        let alive: Vec<u32> = (1..=vms).filter(|&v| v == 1 || g.bool(0.85)).collect();
        fx.set_trackers(alive);
        if g.bool(0.3) {
            fx.trackers.rotate_left(1); // a rejoined tracker sits at the end
        }
        for v in 1..=vms {
            if g.bool(0.6) {
                fx.used_map.insert(v, g.u32_in(0, 3));
            }
            if g.bool(0.6) {
                fx.used_reduce.insert(v, g.u32_in(0, 3));
            }
        }
        for _ in 0..g.usize_in(0, 4) {
            let cfg = JobConfig {
                map_slots_per_node: g.u32_in(1, 3),
                reduce_slots_per_node: g.u32_in(1, 3),
                ..JobConfig::default().with_reduces(g.u32_in(0, 5)).with_locality(g.bool(0.8))
            };
            let maps = g.usize_in(0, 8);
            let locations = (0..maps)
                .map(|_| (0..g.usize_in(0, 3)).map(|_| VmId(g.u32_in(0, vms))).collect())
                .collect();
            let bytes = (0..cfg.num_reduces).map(|_| g.u64_in(0, 1 << 20)).collect();
            fx.job(cfg, maps, locations, g.bool(0.5), bytes);
        }
        fx
    }

    /// The contract the engine's gate rests on: nothing pending ⇒ nothing
    /// assigned; and whatever is pending, no tracker is handed more than
    /// its free slots and no dead VM is handed anything.
    #[test]
    fn assign_respects_free_slots_and_is_empty_when_nothing_is_pending() {
        proptest::check("scheduler-contract", proptest::Config::with_cases(200), |g| {
            let mut fx = random_fixture(g);
            for policy in SchedulerPolicy::all() {
                let view = fx.view();
                let (mut used_map, mut used_reduce) = (fx.used_map.clone(), fx.used_reduce.clone());
                for a in policy.assign(&view) {
                    assert!(
                        fx.trackers.iter().any(|t| t.vm == a.vm),
                        "{policy}: {a:?} on a dead VM"
                    );
                    let cfg = &fx.configs[a.job as usize];
                    let (held, cap) = match a.kind {
                        TaskKind::Map(_) => (used_map.entry(a.vm.0), cfg.map_slots_per_node),
                        TaskKind::Reduce(_) => {
                            assert!(
                                fx.reduces_open[a.job as usize],
                                "{policy}: {a:?} before map end"
                            );
                            (used_reduce.entry(a.vm.0), cfg.reduce_slots_per_node)
                        }
                    };
                    let held = held.or_insert(0);
                    assert!(*held < cap, "{policy}: {a:?} over-commits ({held} of {cap} held)");
                    *held += 1;
                }
            }
            // Quiesce: no pending map anywhere, no pending reduce that is open.
            for j in 0..fx.configs.len() {
                fx.pending_maps[j].clear();
                if fx.reduces_open[j] {
                    fx.pending_reduces[j].clear();
                }
            }
            for policy in SchedulerPolicy::all() {
                assert_eq!(policy.assign(&fx.view()), vec![], "{policy}");
            }
        });
    }
}
