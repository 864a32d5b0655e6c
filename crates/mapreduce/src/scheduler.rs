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
//!
//! The view lends the [`SlotLedger`], the JobTracker's one record of which
//! VMs are live TaskTrackers and how many slots each holds; a policy
//! charges its round against a clone.

use crate::config::{JobConfig, MAP_SLOTS_PER_TRACKER, REDUCE_SLOTS_PER_TRACKER};
use std::cmp::Reverse;
use std::collections::VecDeque;
use vcluster::cluster::{HostId, VmId};
use vcluster::topology::RackId;

/// Which placement policy drives the JobTracker. One policy serves every
/// job: set at launch via `PlatformConfig::scheduler`, or later via
/// `MrEngine::set_policy`.
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

    /// Places a speculative (backup) map attempt, avoiding `avoid` (the
    /// tracker running the straggling primary): the emptiest other
    /// tracker, ties to the lowest id — stock Hadoop, under every policy.
    pub fn place_speculative(self, view: &SchedulerView, avoid: VmId) -> Option<VmId> {
        emptiest(view, view.slots, Some(avoid))
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
    /// The job's configuration (locality flag, reduce count, ...).
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
    /// The JobTracker's slot ledger: which VMs are live trackers and the
    /// slots each holds.
    pub slots: &'a SlotLedger,
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

/// The JobTracker's slot ledger: the live TaskTrackers in engine order
/// (ascending VM id, then rejoined trackers in the order they came back)
/// and, indexed by `VmId.0`, whether each VM is a live tracker and how many
/// map and reduce slots it holds. A lost tracker holds nothing, so a VM
/// that is not a live tracker has no free slot either.
///
/// The engine owns one and [`SchedulerView`] lends it; a policy clones it
/// as scratch and charges its tentative assignments against the copy, so
/// one `assign` round never over-commits a tracker, and "is this replica's
/// VM a live tracker with room" is two array reads. Only these methods
/// know the layout.
#[derive(Debug, Clone, Default)]
pub struct SlotLedger {
    order: Vec<VmId>,
    live: Vec<bool>,
    map: Vec<u32>,
    reduce: Vec<u32>,
}

simcore::persist_struct!(SlotLedger { order, live, map, reduce });

impl SlotLedger {
    /// A ledger over `trackers`, in that order, holding no slot.
    pub(crate) fn new(trackers: Vec<VmId>) -> Self {
        let mut ledger = SlotLedger::default();
        for vm in trackers {
            ledger.rejoin(vm);
        }
        ledger
    }

    /// Live trackers, engine order.
    pub(crate) fn trackers(&self) -> &[VmId] {
        &self.order
    }

    fn is_live(&self, vm: VmId) -> bool {
        self.live.get(vm.0 as usize) == Some(&true)
    }

    pub(crate) fn free_map(&self, vm: VmId) -> u32 {
        if !self.is_live(vm) {
            return 0;
        }
        MAP_SLOTS_PER_TRACKER.saturating_sub(self.map[vm.0 as usize])
    }

    pub(crate) fn free_reduce(&self, vm: VmId) -> u32 {
        if !self.is_live(vm) {
            return 0;
        }
        REDUCE_SLOTS_PER_TRACKER.saturating_sub(self.reduce[vm.0 as usize])
    }

    /// Map + reduce slots held on `vm` — total tracker load.
    fn total_used(&self, vm: VmId) -> u32 {
        self.map[vm.0 as usize] + self.reduce[vm.0 as usize]
    }

    pub(crate) fn take_map(&mut self, vm: VmId) {
        debug_assert!(self.free_map(vm) > 0, "map slot taken on {vm} without room");
        self.map[vm.0 as usize] += 1;
    }

    pub(crate) fn take_reduce(&mut self, vm: VmId) {
        debug_assert!(self.free_reduce(vm) > 0, "reduce slot taken on {vm} without room");
        self.reduce[vm.0 as usize] += 1;
    }

    /// Returns a map slot of `vm`, which must be a live tracker holding one.
    pub(crate) fn release_map(&mut self, vm: VmId) {
        assert!(self.is_live(vm), "map slot released on {vm}, not a live tracker");
        let held = &mut self.map[vm.0 as usize];
        *held = held.checked_sub(1).expect("map slot released, none held");
    }

    /// Returns a reduce slot of `vm`, which must be a live tracker holding
    /// one.
    pub(crate) fn release_reduce(&mut self, vm: VmId) {
        assert!(self.is_live(vm), "reduce slot released on {vm}, not a live tracker");
        let held = &mut self.reduce[vm.0 as usize];
        *held = held.checked_sub(1).expect("reduce slot released, none held");
    }

    /// Drops `vm` from the live trackers together with every slot it held.
    /// Returns false (and changes nothing) if it was not a live tracker.
    pub(crate) fn lose(&mut self, vm: VmId) -> bool {
        let Some(pos) = self.order.iter().position(|&t| t == vm) else { return false };
        self.order.remove(pos);
        let i = vm.0 as usize;
        (self.live[i], self.map[i], self.reduce[i]) = (false, 0, 0);
        true
    }

    /// Appends `vm` to the live trackers, holding no slot. Returns false
    /// (and changes nothing) if it already was one.
    pub(crate) fn rejoin(&mut self, vm: VmId) -> bool {
        if self.is_live(vm) {
            return false;
        }
        let i = vm.0 as usize;
        if i >= self.live.len() {
            self.live.resize(i + 1, false);
            self.map.resize(i + 1, 0);
            self.reduce.resize(i + 1, 0);
        }
        self.live[i] = true;
        self.order.push(vm);
        true
    }

    /// Live trackers holding at least one slot, busiest first (ties to the
    /// lowest id).
    pub(crate) fn busy(&self) -> Vec<VmId> {
        let mut busy: Vec<VmId> =
            self.order.iter().copied().filter(|&vm| self.total_used(vm) > 0).collect();
        busy.sort_by_key(|&vm| (Reverse(self.total_used(vm)), vm.0));
        busy
    }
}

/// One tier of map placement: the tracker a map whose split has replicas
/// on `locations` gets from this tier alone, if any.
type Tier = fn(&SchedulerView, &SlotLedger, &[VmId]) -> Option<VmId>;

/// The locality tiers, nearest first: data-local, host-local, rack-local.
const LOCALITY_TIERS: [Tier; 3] = [data_local, host_local, rack_local];

/// A replica VM with a free slot, in replica order (only a live tracker
/// has one — datanodes can fail).
fn data_local(_: &SchedulerView, slots: &SlotLedger, at: &[VmId]) -> Option<VmId> {
    at.iter().copied().find(|&v| slots.free_map(v) > 0)
}

/// The first tracker (view order) with a free slot that `near` accepts.
fn first_free(
    view: &SchedulerView,
    slots: &SlotLedger,
    near: impl Fn(&TrackerInfo) -> bool,
) -> Option<VmId> {
    view.trackers.iter().find(|t| slots.free_map(t.vm) > 0 && near(t)).map(|t| t.vm)
}

fn host_local(view: &SchedulerView, slots: &SlotLedger, at: &[VmId]) -> Option<VmId> {
    first_free(view, slots, |t| at.iter().any(|&l| view.vm_hosts[l.0 as usize] == t.host))
}

/// Only meaningful (and only run) when the fabric has more than one rack:
/// on one rack this tier is every tracker and would shadow the
/// emptiest-tracker balancing that follows it.
fn rack_local(view: &SchedulerView, slots: &SlotLedger, at: &[VmId]) -> Option<VmId> {
    if view.racks <= 1 {
        return None;
    }
    first_free(view, slots, |t| at.iter().any(|&l| view.vm_racks[l.0 as usize] == t.rack))
}

/// The tracker with the most free map slots other than `avoid`, ties to
/// the lowest id.
fn emptiest(view: &SchedulerView, slots: &SlotLedger, avoid: Option<VmId>) -> Option<VmId> {
    view.trackers
        .iter()
        .map(|t| t.vm)
        .filter(|&v| Some(v) != avoid && slots.free_map(v) > 0)
        .max_by_key(|&v| (slots.free_map(v), Reverse(v.0)))
}

/// Stock Hadoop map placement: the nearest locality tier that has room
/// (when the job is locality-aware), otherwise the emptiest tracker.
fn pick_map_vm(
    view: &SchedulerView,
    slots: &SlotLedger,
    cfg: &JobConfig,
    locations: &[VmId],
) -> Option<VmId> {
    let near = if cfg.locality_aware {
        LOCALITY_TIERS.iter().find_map(|tier| tier(view, slots, locations))
    } else {
        None
    };
    near.or_else(|| emptiest(view, slots, None))
}

/// Reduce placement: the tracker with the most free reduce slots, ties
/// broken toward the *least loaded* tracker overall (map + reduce slots
/// held), then the lowest id. The total-load tie-break fixes the seed
/// engine's bug of ignoring map load: under 2-job contention a tracker
/// still churning through job A's maps no longer ties with an idle one
/// for job B's reduces.
fn pick_reduce_vm(view: &SchedulerView, slots: &SlotLedger) -> Option<VmId> {
    view.trackers
        .iter()
        .map(|t| t.vm)
        .filter(|&v| slots.free_reduce(v) > 0)
        .max_by_key(|&v| (slots.free_reduce(v), Reverse(slots.total_used(v)), Reverse(v.0)))
}

/// Hadoop 0.20 stock scheduling (the paper's configuration): jobs in
/// submission order, each filling every free slot it can.
fn fifo(view: &SchedulerView) -> Vec<Assignment> {
    let mut slots = view.slots.clone();
    let mut out = Vec::new();
    for job in &view.jobs {
        for &m in job.pending_maps {
            let Some(vm) = pick_map_vm(view, &slots, job.config, job.map_locations[m]) else {
                break;
            };
            slots.take_map(vm);
            out.push(Assignment { job: job.id, kind: TaskKind::Map(m), vm });
        }
        if job.reduces_open {
            for &r in job.pending_reduces {
                let Some(vm) = pick_reduce_vm(view, &slots) else { break };
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
    let mut slots = view.slots.clone();
    let mut out = Vec::new();
    for job in &view.jobs {
        // Maps: one pass per locality tier over the whole queue. Unlike
        // FIFO, a map deep in the queue may jump ahead if its replica
        // tracker has a free slot — that is the locality-first matching.
        let mut remaining: Vec<usize> = job.pending_maps.iter().copied().collect();
        for tier in LOCALITY_TIERS {
            remaining.retain(|&m| {
                let Some(vm) = tier(view, &slots, job.map_locations[m]) else {
                    return true;
                };
                slots.take_map(vm);
                out.push(Assignment { job: job.id, kind: TaskKind::Map(m), vm });
                false
            });
        }
        // Whatever is left goes to the emptiest trackers.
        for m in remaining {
            let Some(vm) = emptiest(view, &slots, None) else { break };
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
                let Some(vm) = pick_reduce_vm(view, &slots) else { break };
                slots.take_reduce(vm);
                out.push(Assignment { job: job.id, kind: TaskKind::Reduce(r), vm });
            }
        }
    }
    out
}

#[cfg(test)]
impl SlotLedger {
    /// Asserts that every VM holds exactly its `expected` (map, reduce)
    /// slots — none where it has no entry — that every entry is a live
    /// tracker, and that the tracker order and the live table agree.
    pub(crate) fn assert_holds(&self, expected: &std::collections::BTreeMap<u32, (u32, u32)>) {
        let live = self.live.iter().filter(|&&l| l).count();
        assert!(
            live == self.order.len() && self.order.iter().all(|&vm| self.is_live(vm)),
            "tracker order {:?} disagrees with the live table",
            self.order
        );
        for (&vm, held) in expected {
            assert!(
                self.is_live(VmId(vm)),
                "{held:?} slots accounted on vm{vm}, not a live tracker"
            );
        }
        for (vm, held) in self.map.iter().zip(&self.reduce).enumerate() {
            let want = expected.get(&(vm as u32)).copied().unwrap_or_default();
            assert_eq!((*held.0, *held.1), want, "vm{vm}: (map, reduce) slots held vs accounted");
        }
    }
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
        slots: SlotLedger,
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
                slots: SlotLedger::new((1..=n_trackers).map(VmId).collect()),
                configs: Vec::new(),
                pending_maps: Vec::new(),
                pending_reduces: Vec::new(),
                locations: Vec::new(),
                reduces_open: Vec::new(),
                partition_bytes: Vec::new(),
            }
        }

        /// Makes `vms`, in that order, the live trackers (hosts and racks
        /// from the VM tables), holding no slot.
        fn set_trackers(&mut self, vms: impl IntoIterator<Item = u32>) {
            self.trackers = vms
                .into_iter()
                .map(|v| TrackerInfo {
                    vm: VmId(v),
                    host: self.vm_hosts[v as usize],
                    rack: self.vm_racks[v as usize],
                })
                .collect();
            self.slots = SlotLedger::new(self.trackers.iter().map(|t| t.vm).collect());
        }

        /// Has live tracker `vm` hold `maps` map and `reduces` reduce slots
        /// more.
        fn hold(&mut self, vm: u32, maps: u32, reduces: u32) {
            for _ in 0..maps {
                self.slots.take_map(VmId(vm));
            }
            for _ in 0..reduces {
                self.slots.take_reduce(VmId(vm));
            }
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
                slots: &self.slots,
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
        fx.hold(1, 2, 0); // tracker 1 full
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
        fx.hold(1, 2, 0); // tracker 1 busy with maps; reduce slots equal
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
            fx.hold(1, 2, 0);
            fx.hold(3, 2, 0);
            fx.hold(2, 1, 0);
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
        let vm =
            SchedulerPolicy::Fifo.place_speculative(&fx.view(), VmId(1)).expect("free slot exists");
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
    /// ~70 % of the slots held by a seeded pattern, three dead VMs that
    /// replicas still name, two rejoined trackers at the end of the list, and three
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
        for vm in fx.slots.trackers().to_vec() {
            let mut held = [0; 2];
            for h in &mut held {
                *h = u32::from(draw(10) < 7) + u32::from(draw(10) < 7);
                if *h == 0 {
                    // This draw once chose between an absent and a
                    // present-with-0 entry of a hashed ledger; it stays so
                    // the rest of the sequence, and so the pins, stay.
                    draw(3);
                }
            }
            fx.hold(vm.0, held[0], held[1]);
        }
        let configs = [
            JobConfig::default(),
            JobConfig::default().with_reduces(24),
            JobConfig::default().with_locality(false),
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

    /// The slot ledger's decisions are pinned (first against the hashed
    /// ledger the engine kept until `SlotLedger` replaced it): the hashes cover the
    /// full `(job, kind, vm)` sequence of `assign` plus eight
    /// `place_speculative` answers, per policy, at the fixed per-tracker
    /// slot counts.
    #[test]
    fn assignments_at_1024_trackers_match_the_hashed_ledger() {
        let fx = scale_fixture();
        let view = fx.view();
        let golden: [(SchedulerPolicy, u64, u64); 2] = [
            (SchedulerPolicy::Fifo, 0x8f9d_1c29_6d50_75bb, 0xcf0a_7394_cc94_d2a5),
            (SchedulerPolicy::JobDriven, 0x1c25_7ef3_9091_ae20, 0xcf0a_7394_cc94_d2a5),
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
            let got_speculative = fnv1a((0..8).map(|_| {
                let vm = policy.place_speculative(&view, avoid);
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
    /// 1–3 racks, random held slots on the live ones, 0–4 jobs whose
    /// replicas may name VMs that are not live trackers.
    fn random_fixture(g: &mut proptest::Gen) -> ViewFixture {
        let vms = g.u32_in(1, 40);
        let mut fx = ViewFixture::new(vms);
        fx.racks = g.u32_in(1, 3);
        fx.vm_hosts = (0..=vms).map(|v| HostId(v % 6)).collect();
        fx.vm_racks = fx.vm_hosts.iter().map(|h| RackId(h.0 % fx.racks)).collect();
        let mut alive: Vec<u32> = (1..=vms).filter(|&v| v == 1 || g.bool(0.85)).collect();
        if g.bool(0.3) {
            alive.rotate_left(1); // a rejoined tracker sits at the end
        }
        fx.set_trackers(alive.iter().copied());
        for v in alive {
            let maps = if g.bool(0.6) { g.u32_in(0, MAP_SLOTS_PER_TRACKER) } else { 0 };
            let reduces = if g.bool(0.6) { g.u32_in(0, REDUCE_SLOTS_PER_TRACKER) } else { 0 };
            fx.hold(v, maps, reduces);
        }
        for _ in 0..g.usize_in(0, 4) {
            let cfg = JobConfig::default().with_reduces(g.u32_in(0, 5)).with_locality(g.bool(0.8));
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
                let mut slots = fx.slots.clone();
                for a in policy.assign(&view) {
                    assert!(
                        fx.trackers.iter().any(|t| t.vm == a.vm),
                        "{policy}: {a:?} on a dead VM"
                    );
                    match a.kind {
                        TaskKind::Map(_) => {
                            assert!(slots.free_map(a.vm) > 0, "{policy}: {a:?} over-commits");
                            slots.take_map(a.vm);
                        }
                        TaskKind::Reduce(_) => {
                            assert!(
                                fx.reduces_open[a.job as usize],
                                "{policy}: {a:?} before map end"
                            );
                            assert!(slots.free_reduce(a.vm) > 0, "{policy}: {a:?} over-commits");
                            slots.take_reduce(a.vm);
                        }
                    }
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
