//! Fluid resource model with progressive-filling max-min fairness.
//!
//! This is the timing substrate of the whole platform, in the style of
//! SimGrid's fluid network model. A **resource** is a server with a scalar
//! capacity (bytes/s for links and disks, cycles/s for CPUs). A **flow** is
//! an amount of *work* that drains through a weighted set of resources: a
//! flow running at rate `x` consumes `w_r · x` capacity on every resource
//! `r` it demands. At any instant the kernel assigns rates by max-min
//! fairness: rates are raised uniformly until a resource saturates, the
//! flows crossing it are frozen, and filling continues on the rest.
//!
//! One mechanism expresses every contention effect the vHadoop paper
//! measures: a vCPU cap is a flow demanding {vcpu, host-cpu}; a cross-host
//! transfer demands {src NIC, switch, dst NIC}; dom0 I/O overhead is an
//! extra CPU demand attached to an I/O flow.
//!
//! ## Incremental re-solve (DESIGN.md §13)
//!
//! Max-min fairness decomposes exactly over **connected components** of the
//! flow/resource bipartite graph: the rate of a flow depends only on flows
//! it is (transitively) coupled to through shared resources. The kernel
//! exploits this: every mutation (flow add/remove/finish, capacity change)
//! marks its resources *dirty*, and [`FluidNet::reallocate`] re-solves only
//! the connected components reachable from dirty resources — untouched
//! components keep their rates, which are byte-identical to what a global
//! solve would assign them. A lazy min-heap of projected completion
//! instants ([`FluidNet::earliest_completion`]) replaces the former
//! full-flow scan, so scheduling the next wake costs `O(log flows)` instead
//! of `O(flows)`.
//!
//! ## Arena/SoA storage and batched re-solve (DESIGN.md §18)
//!
//! Flow state lives in structure-of-arrays arenas: parallel `Vec`s for
//! generation, stamp, rate, remaining, total, plus a flat demand arena
//! (`dem_res`/`dem_w` with per-flow `(start, len)` ranges) so the solver's
//! inner loops are linear scans over dense scalar arrays rather than
//! pointer chases through per-flow heap allocations. Reallocation runs in
//! three phases: **split** the dirty closure into its connected components
//! (deterministic discovery order), **solve** each component's restricted
//! progressive filling in turn, then **apply** results in component order.
//! This is the only max-min implementation in the workspace; its reference
//! is the global-pass `Oracle` in `tests/tests/fluid_equivalence.rs`.

use crate::ids::{FlowId, ResourceId};
use crate::persist::{Decoder, Encoder, Persist};
use crate::stats::SizeHist;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Rates above this are treated as "instantaneous" (flow over only
/// infinite-capacity resources).
const RATE_CAP: f64 = 1e18;
/// Absolute slack under which remaining work counts as finished.
const DONE_EPS: f64 = 1e-6;
/// Completion-heap compaction threshold: rebuild once the heap holds this
/// many entries *and* more than [`HEAP_SLACK`]× the live-flow count.
const HEAP_COMPACT_MIN: usize = 64;
/// See [`HEAP_COMPACT_MIN`].
const HEAP_SLACK: usize = 4;
/// Demand-arena compaction: rebuild once the arena holds at least this many
/// rows *and* more than half of them are garbage (freed flows).
const DEM_COMPACT_MIN: usize = 4096;

/// What a resource meters; used by monitors to group utilization report rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Compute capacity, cycles per second.
    Cpu,
    /// Disk bandwidth, bytes per second.
    Disk,
    /// Network interface or link bandwidth, bytes per second.
    Net,
    /// Anything else (test fixtures, abstract tokens).
    Other,
}

/// One demand entry of a flow: `weight` units of `resource` capacity are
/// consumed per unit of flow rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// The resource consumed.
    pub resource: ResourceId,
    /// Capacity consumed per unit rate; must be finite and > 0.
    pub weight: f64,
}

crate::persist_enum!(ResourceKind { 0 => Cpu, 1 => Disk, 2 => Net, 3 => Other });
crate::persist_struct!(Demand { resource, weight });

impl Demand {
    /// Unit-weight demand on `resource`.
    pub fn unit(resource: ResourceId) -> Self {
        Demand { resource, weight: 1.0 }
    }

    /// Weighted demand on `resource`.
    pub fn weighted(resource: ResourceId, weight: f64) -> Self {
        Demand { resource, weight }
    }
}

/// A finished flow popped from [`FluidNet::take_finished`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedFlow {
    /// Handle of the flow that drained.
    pub id: FlowId,
}

/// Cumulative kernel work counters (monotonic; see DESIGN.md §13/§18).
/// Machine-speed independent: `batching_counts_on_iterative_waves`
/// (`tests/tests/fluid_equivalence.rs`) pins them exactly on a 1024-VM
/// scenario and platbench reports them per workload, so a regression in
/// incremental or batching behavior fails tier-1 on any host.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FluidStats {
    /// Number of [`FluidNet::reallocate`] passes that found dirty state.
    pub reallocations: u64,
    /// Total flows re-solved across all reallocations (the dirty-component
    /// closure size, summed). `flows_touched / reallocations` is the mean
    /// component size — the number the incremental solver drives down.
    pub flows_touched: u64,
    /// Total resources visited across all reallocations.
    pub resources_touched: u64,
    /// Total mutations (flow add/remove/finish, capacity change) absorbed
    /// by coalesced reallocation passes. `batch_applied / reallocations`
    /// is the mean batch size — how much event application amortizes.
    pub batch_applied: u64,
    /// p50 of per-reallocation component flow counts (lifetime histogram).
    pub comp_size_p50: u64,
    /// p99 of per-reallocation component flow counts.
    pub comp_size_p99: u64,
    /// Largest component (in flows) ever re-solved — the cost ceiling of a
    /// single incremental re-solve on this workload.
    pub comp_size_max: u64,
    /// Current completion-heap length (live + stale entries).
    pub completion_heap_len: usize,
}

/// One connected component of the dirty closure: ranges into the
/// `comp_flows` / `comp_res` pools.
#[derive(Debug, Clone, Copy, Default)]
struct Comp {
    flow_start: usize,
    flow_len: usize,
    res_start: usize,
    res_len: usize,
}

/// Scratch for `solve_component`, indexed by component-local resource
/// position (so a solve touches a dense, cache-resident window regardless
/// of network size).
#[derive(Debug, Default, Clone)]
struct SolveScratch {
    residual: Vec<f64>,
    weight: Vec<f64>,
    count: Vec<u32>,
    saturated: Vec<bool>,
    /// Component-local indices of flows not yet frozen this solve.
    unfrozen: Vec<u32>,
    still: Vec<u32>,
}

impl SolveScratch {
    fn ensure(&mut self, res_len: usize) {
        if self.residual.len() < res_len {
            self.residual.resize(res_len, 0.0);
            self.weight.resize(res_len, 0.0);
            self.count.resize(res_len, 0);
            self.saturated.resize(res_len, false);
        }
    }
}

/// The fluid network: resources plus active flows plus the current max-min
/// allocation, stored as index-based SoA arenas. Time only passes through
/// [`FluidNet::advance_to`]; the [`crate::engine::Engine`] owns the clock
/// and drives this structure.
#[derive(Debug, Clone)]
pub struct FluidNet {
    // ----- resources (SoA) ------------------------------------------------
    res_name: Vec<String>,
    res_kind: Vec<ResourceKind>,
    res_capacity: Vec<f64>,
    /// Capacity currently consumed by the allocation (refreshed on each
    /// reallocation); kept for cheap utilization queries.
    res_used: Vec<f64>,
    /// Total work served since t = 0 (integrated `used · dt`); lets
    /// clients compute exact time-averaged utilization over any window.
    res_cumulative: Vec<f64>,
    /// Live flow slots crossing each resource (one entry per demand row,
    /// so duplicate demands stay balanced with [`FluidNet::detach`]).
    res_flows: Vec<Vec<u32>>,

    // ----- flows (SoA arena, parallel by slot) ----------------------------
    f_gen: Vec<u32>,
    /// Estimate stamp: bumped whenever this slot's rate is re-assigned or
    /// the flow leaves; completion-heap entries with an older stamp are
    /// stale and dropped lazily.
    f_stamp: Vec<u32>,
    f_live: Vec<bool>,
    f_total: Vec<f64>,
    f_remaining: Vec<f64>,
    f_rate: Vec<f64>,
    /// Range of this flow's rows in the flat demand arena.
    f_dem_start: Vec<u32>,
    f_dem_len: Vec<u32>,
    free: Vec<u32>,
    active: usize,

    // ----- flat demand arena ----------------------------------------------
    dem_res: Vec<u32>,
    dem_w: Vec<f64>,
    /// Arena rows owned by freed slots; triggers deterministic compaction.
    dem_garbage: usize,

    last_update: SimTime,
    allocation_dirty: bool,
    /// Seed resources touched since the last reallocate, deduplicated via
    /// `res_mark`.
    dirty: Vec<u32>,
    /// Per-resource dirty/visited mark (shared by seeding and the closure
    /// walk inside `reallocate`; always all-false between calls).
    res_mark: Vec<bool>,
    /// Per-slot visited mark for the closure walk (all-false between calls).
    flow_mark: Vec<bool>,
    /// Live flows with `remaining <= DONE_EPS` — the set that makes
    /// `earliest_completion` return "now" immediately.
    near_done: usize,
    /// Lazy min-heap of projected completions: `(finish_ns, slot, stamp)`.
    /// Entries whose stamp no longer matches the slot are stale.
    completions: BinaryHeap<Reverse<(u64, u32, u32)>>,

    // ----- component split pools (recycled across reallocations) ---------
    comp_flows: Vec<u32>,
    comp_res: Vec<u32>,
    comps: Vec<Comp>,
    comp_rates: Vec<f64>,
    comp_used: Vec<f64>,
    /// Component-local resource index, full network size; only entries for
    /// the current closure are meaningful.
    res_local: Vec<u32>,
    /// Solver scratch, recycled across reallocations.
    scratch: SolveScratch,

    /// Mutations since the last reallocation that found dirty state.
    pending_mutations: u64,
    stats: FluidStats,
    /// Flow count of every component re-solved, over the net's lifetime.
    comp_hist: SizeHist,
}

impl Default for FluidNet {
    fn default() -> Self {
        Self::new()
    }
}

impl FluidNet {
    /// Empty network at t = 0.
    pub fn new() -> Self {
        FluidNet {
            res_name: Vec::new(),
            res_kind: Vec::new(),
            res_capacity: Vec::new(),
            res_used: Vec::new(),
            res_cumulative: Vec::new(),
            res_flows: Vec::new(),
            f_gen: Vec::new(),
            f_stamp: Vec::new(),
            f_live: Vec::new(),
            f_total: Vec::new(),
            f_remaining: Vec::new(),
            f_rate: Vec::new(),
            f_dem_start: Vec::new(),
            f_dem_len: Vec::new(),
            free: Vec::new(),
            active: 0,
            dem_res: Vec::new(),
            dem_w: Vec::new(),
            dem_garbage: 0,
            last_update: SimTime::ZERO,
            allocation_dirty: false,
            dirty: Vec::new(),
            res_mark: Vec::new(),
            flow_mark: Vec::new(),
            near_done: 0,
            completions: BinaryHeap::new(),
            comp_flows: Vec::new(),
            comp_res: Vec::new(),
            comps: Vec::new(),
            comp_rates: Vec::new(),
            comp_used: Vec::new(),
            res_local: Vec::new(),
            scratch: SolveScratch::default(),
            pending_mutations: 0,
            stats: FluidStats::default(),
            comp_hist: SizeHist::new(),
        }
    }

    /// Registers a resource with `capacity` units/second.
    ///
    /// `f64::INFINITY` is a valid capacity for resources that never
    /// constrain (e.g. an ideal backplane in tests).
    pub fn add_resource(
        &mut self,
        name: impl Into<String>,
        kind: ResourceKind,
        capacity: f64,
    ) -> ResourceId {
        assert!(capacity >= 0.0, "resource capacity must be non-negative");
        let id = ResourceId(self.res_name.len() as u32);
        self.res_name.push(name.into());
        self.res_kind.push(kind);
        self.res_capacity.push(capacity);
        self.res_used.push(0.0);
        self.res_cumulative.push(0.0);
        self.res_flows.push(Vec::new());
        self.res_mark.push(false);
        self.res_local.push(0);
        id
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.res_name.len()
    }

    /// Human-readable resource name.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.res_name[r.index()]
    }

    /// Configured capacity of `r`.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.res_capacity[r.index()]
    }

    /// Changes capacity of `r`; takes effect at the next reallocation.
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) {
        assert!(capacity >= 0.0, "resource capacity must be non-negative");
        self.res_capacity[r.index()] = capacity;
        self.mark_dirty(r.index());
        self.allocation_dirty = true;
        self.pending_mutations += 1;
    }

    /// Capacity currently consumed on `r` under the present allocation.
    pub fn used(&self, r: ResourceId) -> f64 {
        self.res_used[r.index()]
    }

    /// Total work served on `r` since t = 0 (as of the last `advance_to`).
    pub fn cumulative(&self, r: ResourceId) -> f64 {
        self.res_cumulative[r.index()]
    }

    /// `used / capacity`, clamped to [0, 1]; 0 for infinite capacity.
    pub fn utilization(&self, r: ResourceId) -> f64 {
        let cap = self.res_capacity[r.index()];
        if !cap.is_finite() || cap <= 0.0 {
            0.0
        } else {
            (self.res_used[r.index()] / cap).clamp(0.0, 1.0)
        }
    }

    /// Cumulative kernel counters (see [`FluidStats`]).
    pub fn stats(&self) -> FluidStats {
        FluidStats {
            completion_heap_len: self.completions.len(),
            comp_size_p50: self.comp_hist.percentile(0.50),
            comp_size_p99: self.comp_hist.percentile(0.99),
            comp_size_max: self.comp_hist.max(),
            ..self.stats
        }
    }

    /// Starts a flow of `work` units over `demands`. The allocation is
    /// marked dirty; the caller must `reallocate` (the engine does).
    ///
    /// # Panics
    /// If `demands` is empty, any weight is non-positive/non-finite, any
    /// resource id is unknown, or `work` is negative/non-finite.
    pub fn add_flow(&mut self, demands: Vec<Demand>, work: f64) -> FlowId {
        assert!(!demands.is_empty(), "a flow must demand at least one resource");
        assert!(work.is_finite() && work >= 0.0, "flow work must be finite and >= 0, got {work}");
        for d in &demands {
            assert!(d.weight.is_finite() && d.weight > 0.0, "demand weight must be finite and > 0");
            assert!(d.resource.index() < self.res_name.len(), "unknown resource {}", d.resource);
        }
        let dem_start = self.dem_res.len() as u32;
        let dem_len = demands.len() as u32;
        for d in &demands {
            self.dem_res.push(d.resource.index() as u32);
            self.dem_w.push(d.weight);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let si = s as usize;
                debug_assert!(!self.f_live[si]);
                self.f_live[si] = true;
                self.f_total[si] = work;
                self.f_remaining[si] = work;
                self.f_rate[si] = 0.0;
                self.f_dem_start[si] = dem_start;
                self.f_dem_len[si] = dem_len;
                s
            }
            None => {
                self.f_gen.push(0);
                self.f_stamp.push(0);
                self.f_live.push(true);
                self.f_total.push(work);
                self.f_remaining.push(work);
                self.f_rate.push(0.0);
                self.f_dem_start.push(dem_start);
                self.f_dem_len.push(dem_len);
                self.flow_mark.push(false);
                (self.f_gen.len() - 1) as u32
            }
        };
        if work <= DONE_EPS {
            self.near_done += 1;
        }
        for k in dem_start as usize..(dem_start + dem_len) as usize {
            let r = self.dem_res[k] as usize;
            self.res_flows[r].push(slot);
            self.mark_dirty(r);
        }
        self.active += 1;
        self.allocation_dirty = true;
        self.pending_mutations += 1;
        FlowId { slot, gen: self.f_gen[slot as usize] }
    }

    /// Cancels `id`, returning its remaining work, or `None` if the handle
    /// is stale (already finished/cancelled).
    pub fn remove_flow(&mut self, id: FlowId) -> Option<f64> {
        let si = id.slot as usize;
        if si >= self.f_gen.len() || self.f_gen[si] != id.gen || !self.f_live[si] {
            return None;
        }
        let remaining = self.f_remaining[si];
        self.f_gen[si] = self.f_gen[si].wrapping_add(1);
        self.f_stamp[si] = self.f_stamp[si].wrapping_add(1);
        if remaining <= DONE_EPS {
            self.near_done -= 1;
        }
        self.detach(id.slot);
        self.f_live[si] = false;
        self.dem_garbage += self.f_dem_len[si] as usize;
        self.free.push(id.slot);
        self.active -= 1;
        self.allocation_dirty = true;
        self.pending_mutations += 1;
        Some(remaining)
    }

    /// Flow-arena slot count (live + free): the arena footprint, which only
    /// ever grows to the high-water mark of concurrent flows.
    pub fn flow_arena_slots(&self) -> usize {
        self.f_gen.len()
    }

    /// True if `id` refers to a live flow.
    pub fn is_live(&self, id: FlowId) -> bool {
        let si = id.slot as usize;
        si < self.f_gen.len() && self.f_gen[si] == id.gen && self.f_live[si]
    }

    /// Current rate of `id` (0 if stale).
    pub fn flow_rate(&self, id: FlowId) -> f64 {
        if self.is_live(id) {
            self.f_rate[id.slot as usize]
        } else {
            0.0
        }
    }

    /// Remaining work of `id` as of the last `advance_to` (stale → `None`).
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.is_live(id).then(|| self.f_remaining[id.slot as usize])
    }

    /// Unregisters a departing flow from the per-resource index and marks
    /// its resources dirty (its component must re-solve).
    fn detach(&mut self, slot: u32) {
        let si = slot as usize;
        let d0 = self.f_dem_start[si] as usize;
        let d1 = d0 + self.f_dem_len[si] as usize;
        for k in d0..d1 {
            let r = self.dem_res[k] as usize;
            let list = &mut self.res_flows[r];
            let pos = list.iter().position(|&s| s == slot).expect("flow indexed on its resource");
            list.swap_remove(pos);
            self.mark_dirty(r);
        }
    }

    fn mark_dirty(&mut self, r: usize) {
        if !self.res_mark[r] {
            self.res_mark[r] = true;
            self.dirty.push(r as u32);
        }
    }

    /// Integrates flow progress from the last update instant to `now`.
    ///
    /// # Panics
    /// If `now` is before the last update (time cannot run backwards).
    pub fn advance_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "fluid time ran backwards: {} < {}",
            now,
            self.last_update
        );
        if now == self.last_update {
            return;
        }
        debug_assert!(
            !self.allocation_dirty || self.active == 0,
            "advancing fluid time with a dirty allocation"
        );
        let dt = (now - self.last_update).as_secs_f64();
        let mut crossed = 0usize;
        for si in 0..self.f_live.len() {
            if self.f_live[si] && self.f_rate[si] > 0.0 {
                let rate = self.f_rate[si];
                let before = self.f_remaining[si];
                let after = (before - rate * dt).max(0.0);
                self.f_remaining[si] = after;
                if before > DONE_EPS && after <= DONE_EPS {
                    crossed += 1;
                }
                let d0 = self.f_dem_start[si] as usize;
                let d1 = d0 + self.f_dem_len[si] as usize;
                for k in d0..d1 {
                    self.res_cumulative[self.dem_res[k] as usize] += rate * self.dem_w[k] * dt;
                }
            }
        }
        self.near_done += crossed;
        self.last_update = now;
    }

    /// Recomputes the max-min fair allocation over the flows whose
    /// component changed since the last call.
    ///
    /// Three phases (DESIGN.md §18): **split** the dirty closure into
    /// connected components (discovery order is a pure function of the
    /// mutation sequence), **solve** each component's restricted
    /// progressive filling, and **apply** rates/usage/completions in
    /// component order. Flows outside the closure keep their rates —
    /// max-min shares of independent components are unaffected by each
    /// other, so the result is identical to a global solve.
    pub fn reallocate(&mut self) {
        self.allocation_dirty = false;
        if self.dirty.is_empty() {
            return;
        }
        self.stats.reallocations += 1;
        self.stats.batch_applied += self.pending_mutations;
        self.pending_mutations = 0;
        self.compact_demands();

        self.split_components();
        self.solve_components();
        self.apply_components();
        self.compact_completions();
    }

    /// Phase 1: partition the dirty closure into connected components of
    /// the flow/resource bipartite graph. Components are discovered in
    /// dirty-seed order (deterministic: the seed list is the mutation
    /// order); within each component flows are sorted ascending by slot —
    /// the exact accumulation order of the former global pass, so shares
    /// stay bit-identical.
    fn split_components(&mut self) {
        self.comps.clear();
        self.comp_flows.clear();
        self.comp_res.clear();
        let seeds = std::mem::take(&mut self.dirty);
        // `res_mark` currently flags "is in the seed list"; clear it so it
        // can serve as the BFS visited set (a seed absorbed into an earlier
        // component must not start its own).
        for &r in &seeds {
            self.res_mark[r as usize] = false;
        }
        for &seed in &seeds {
            if self.res_mark[seed as usize] {
                continue;
            }
            let flow_start = self.comp_flows.len();
            let res_start = self.comp_res.len();
            self.res_mark[seed as usize] = true;
            self.comp_res.push(seed);
            let mut qi = res_start;
            while qi < self.comp_res.len() {
                let r = self.comp_res[qi] as usize;
                qi += 1;
                for k in 0..self.res_flows[r].len() {
                    let s = self.res_flows[r][k] as usize;
                    if !self.flow_mark[s] {
                        self.flow_mark[s] = true;
                        self.comp_flows.push(s as u32);
                        let d0 = self.f_dem_start[s] as usize;
                        let d1 = d0 + self.f_dem_len[s] as usize;
                        for k2 in d0..d1 {
                            let ri = self.dem_res[k2] as usize;
                            if !self.res_mark[ri] {
                                self.res_mark[ri] = true;
                                self.comp_res.push(ri as u32);
                            }
                        }
                    }
                }
            }
            self.comp_flows[flow_start..].sort_unstable();
            for (j, &r) in self.comp_res[res_start..].iter().enumerate() {
                self.res_local[r as usize] = j as u32;
            }
            self.comps.push(Comp {
                flow_start,
                flow_len: self.comp_flows.len() - flow_start,
                res_start,
                res_len: self.comp_res.len() - res_start,
            });
        }
        // Restore the all-false invariant on the visited marks.
        for &r in &self.comp_res {
            self.res_mark[r as usize] = false;
        }
        for &s in &self.comp_flows {
            self.flow_mark[s as usize] = false;
        }
        // Recycle the seed list's allocation.
        self.dirty = seeds;
        self.dirty.clear();
    }

    /// Phase 2: solve every component into its own slice of the
    /// `comp_rates` / `comp_used` pools (parallel to `comp_flows` /
    /// `comp_res`).
    fn solve_components(&mut self) {
        let mut rates = std::mem::take(&mut self.comp_rates);
        let mut used = std::mem::take(&mut self.comp_used);
        let mut scratch = std::mem::take(&mut self.scratch);
        rates.clear();
        rates.resize(self.comp_flows.len(), 0.0);
        used.clear();
        used.resize(self.comp_res.len(), 0.0);
        for c in &self.comps {
            let rs = &mut rates[c.flow_start..c.flow_start + c.flow_len];
            let us = &mut used[c.res_start..c.res_start + c.res_len];
            self.solve_component(c, &mut scratch, rs, us);
        }
        self.comp_rates = rates;
        self.comp_used = used;
        self.scratch = scratch;
    }

    /// Restricted progressive filling over one connected component: every
    /// unfrozen flow's rate rises uniformly; the resource with the smallest
    /// residual fair share saturates first and freezes every flow crossing it;
    /// repeat. Scratch is indexed by component-local resource position (via
    /// `res_local`); rates land in `rates` (parallel to the component's flow
    /// list), per-resource usage in `used` (parallel to its resource list).
    fn solve_component(
        &self,
        c: &Comp,
        scratch: &mut SolveScratch,
        rates: &mut [f64],
        used: &mut [f64],
    ) {
        let flows = &self.comp_flows[c.flow_start..c.flow_start + c.flow_len];
        let res = &self.comp_res[c.res_start..c.res_start + c.res_len];
        scratch.ensure(res.len());
        for (j, &r) in res.iter().enumerate() {
            scratch.residual[j] = self.res_capacity[r as usize];
            scratch.weight[j] = 0.0;
            scratch.count[j] = 0;
            used[j] = 0.0;
        }
        for &s in flows {
            let d0 = self.f_dem_start[s as usize] as usize;
            let d1 = d0 + self.f_dem_len[s as usize] as usize;
            for k in d0..d1 {
                let j = self.res_local[self.dem_res[k] as usize] as usize;
                scratch.weight[j] += self.dem_w[k];
                scratch.count[j] += 1;
            }
        }

        scratch.unfrozen.clear();
        scratch.unfrozen.extend(0..flows.len() as u32);
        while !scratch.unfrozen.is_empty() {
            // Find the bottleneck share among component resources that still
            // carry unfrozen flows (the integer count is the authoritative
            // membership test — floating-point weight subtraction can leave
            // dust).
            let mut share = f64::INFINITY;
            for j in 0..res.len() {
                if scratch.count[j] > 0 && scratch.weight[j] > 0.0 {
                    let s = scratch.residual[j] / scratch.weight[j];
                    if s < share {
                        share = s;
                    }
                }
            }
            let share = share.clamp(0.0, RATE_CAP);

            // Freeze flows that cross a saturating resource (or all of them
            // when nothing constrains).
            let tol = share * 1e-12 + 1e-30;
            let mut any_saturated = false;
            for j in 0..res.len() {
                scratch.saturated[j] = false;
                if share < RATE_CAP
                    && scratch.count[j] > 0
                    && scratch.weight[j] > 0.0
                    && scratch.residual[j] / scratch.weight[j] <= share + tol
                {
                    scratch.saturated[j] = true;
                    any_saturated = true;
                }
            }

            scratch.still.clear();
            for ui in 0..scratch.unfrozen.len() {
                let li = scratch.unfrozen[ui];
                let s = flows[li as usize] as usize;
                let d0 = self.f_dem_start[s] as usize;
                let d1 = d0 + self.f_dem_len[s] as usize;
                let frozen_now = !any_saturated
                    || (d0..d1).any(|k| {
                        scratch.saturated[self.res_local[self.dem_res[k] as usize] as usize]
                    });
                if frozen_now {
                    rates[li as usize] = share;
                    for k in d0..d1 {
                        let j = self.res_local[self.dem_res[k] as usize] as usize;
                        let w = self.dem_w[k];
                        scratch.residual[j] = (scratch.residual[j] - share * w).max(0.0);
                        scratch.weight[j] -= w;
                        scratch.count[j] -= 1;
                        if scratch.count[j] == 0 {
                            scratch.weight[j] = 0.0;
                        }
                        used[j] += share * w;
                    }
                } else {
                    scratch.still.push(li);
                }
            }
            debug_assert!(
                scratch.still.len() < scratch.unfrozen.len(),
                "progressive filling must freeze at least one flow per round"
            );
            std::mem::swap(&mut scratch.unfrozen, &mut scratch.still);
        }
    }

    /// Phase 3: commit solved rates and resource usage, re-stamp every
    /// touched flow, and index projected completions, in component order.
    fn apply_components(&mut self) {
        for ci in 0..self.comps.len() {
            let c = self.comps[ci];
            self.stats.flows_touched += c.flow_len as u64;
            self.stats.resources_touched += c.res_len as u64;
            if c.flow_len > 0 {
                self.comp_hist.push(c.flow_len as u64);
            }
            for i in 0..c.flow_len {
                let s = self.comp_flows[c.flow_start + i];
                let si = s as usize;
                self.f_rate[si] = self.comp_rates[c.flow_start + i];
                self.f_stamp[si] = self.f_stamp[si].wrapping_add(1);
                if self.f_rate[si] > 0.0 {
                    let d = SimDuration::from_secs_f64(self.f_remaining[si] / self.f_rate[si]);
                    let key = self.last_update.as_nanos().saturating_add(d.as_nanos());
                    self.completions.push(Reverse((key, s, self.f_stamp[si])));
                }
            }
            for j in 0..c.res_len {
                let r = self.comp_res[c.res_start + j] as usize;
                self.res_used[r] = self.comp_used[c.res_start + j];
            }
        }
    }

    /// Rebuilds the flat demand arena once freed rows dominate it,
    /// repacking live flows in ascending slot order. Deterministic (a pure
    /// function of the logical state) and invisible to snapshots, which
    /// encode per-flow demand lists rather than arena offsets.
    fn compact_demands(&mut self) {
        if self.dem_res.len() < DEM_COMPACT_MIN || self.dem_garbage * 2 <= self.dem_res.len() {
            return;
        }
        let live = self.dem_res.len() - self.dem_garbage;
        let mut new_res = Vec::with_capacity(live);
        let mut new_w = Vec::with_capacity(live);
        for si in 0..self.f_live.len() {
            if !self.f_live[si] {
                continue;
            }
            let d0 = self.f_dem_start[si] as usize;
            let d1 = d0 + self.f_dem_len[si] as usize;
            self.f_dem_start[si] = new_res.len() as u32;
            new_res.extend_from_slice(&self.dem_res[d0..d1]);
            new_w.extend_from_slice(&self.dem_w[d0..d1]);
        }
        self.dem_res = new_res;
        self.dem_w = new_w;
        self.dem_garbage = 0;
    }

    /// Drops stale completion entries wholesale once they dominate the
    /// heap, bounding memory under long flow churn.
    fn compact_completions(&mut self) {
        if self.completions.len() <= HEAP_COMPACT_MIN
            || self.completions.len() <= HEAP_SLACK * self.active
        {
            return;
        }
        let mut entries = std::mem::take(&mut self.completions).into_vec();
        entries.retain(|&Reverse((_, s, stamp))| {
            self.f_stamp[s as usize] == stamp && self.f_live[s as usize]
        });
        self.completions = BinaryHeap::from(entries);
    }

    /// The next instant at which some flow drains, given current rates, or
    /// `None` if no flow is progressing. The allocation must be clean.
    ///
    /// Served from the completion index: stale heap entries are popped
    /// lazily, and the winning flow's instant is recomputed from its
    /// remaining work *now* — the same arithmetic (and therefore the same
    /// nanosecond) as the former full scan.
    pub fn earliest_completion(&mut self) -> Option<SimTime> {
        debug_assert!(!self.allocation_dirty, "earliest_completion on dirty allocation");
        if self.near_done > 0 {
            return Some(self.last_update);
        }
        while let Some(&Reverse((_, s, stamp))) = self.completions.peek() {
            let si = s as usize;
            if self.f_stamp[si] == stamp && self.f_live[si] && self.f_rate[si] > 0.0 {
                break;
            }
            self.completions.pop();
        }
        let &Reverse((_, s, _)) = self.completions.peek()?;
        let si = s as usize;
        let secs = self.f_remaining[si] / self.f_rate[si];
        // Round up one nanosecond so the event lands at-or-after the true
        // completion instant.
        let d = SimDuration::from_secs_f64(secs).saturating_add(SimDuration::from_nanos(1));
        Some(self.last_update + d)
    }

    /// Removes and returns every flow whose work has drained (as of the
    /// last `advance_to`). The allocation becomes dirty if any finished.
    pub fn take_finished(&mut self) -> Vec<FinishedFlow> {
        let mut done = Vec::new();
        for i in 0..self.f_live.len() {
            if !self.f_live[i] {
                continue;
            }
            if self.f_remaining[i] <= DONE_EPS.max(self.f_total[i] * 1e-12) {
                let id = FlowId { slot: i as u32, gen: self.f_gen[i] };
                self.f_gen[i] = self.f_gen[i].wrapping_add(1);
                self.f_stamp[i] = self.f_stamp[i].wrapping_add(1);
                if self.f_remaining[i] <= DONE_EPS {
                    self.near_done -= 1;
                }
                self.detach(i as u32);
                self.f_live[i] = false;
                self.dem_garbage += self.f_dem_len[i] as usize;
                self.free.push(i as u32);
                self.active -= 1;
                self.allocation_dirty = true;
                self.pending_mutations += 1;
                done.push(FinishedFlow { id });
            }
        }
        done
    }

    /// Instant of the last `advance_to`.
    pub fn now(&self) -> SimTime {
        self.last_update
    }

    /// True when `reallocate` must run before time can advance again.
    pub fn is_dirty(&self) -> bool {
        self.allocation_dirty
    }

    /// Per-resource `(name, kind, used, capacity)` rows for monitors.
    pub fn usage_snapshot(&self) -> Vec<(ResourceId, ResourceKind, f64, f64)> {
        (0..self.res_name.len())
            .map(|i| {
                (ResourceId(i as u32), self.res_kind[i], self.res_used[i], self.res_capacity[i])
            })
            .collect()
    }

    /// Demand list of a live slot, reconstructed from the arena (encode and
    /// debug paths only).
    fn slot_demands(&self, si: usize) -> Vec<Demand> {
        let d0 = self.f_dem_start[si] as usize;
        let d1 = d0 + self.f_dem_len[si] as usize;
        (d0..d1)
            .map(|k| Demand { resource: ResourceId(self.dem_res[k]), weight: self.dem_w[k] })
            .collect()
    }
}

// ----- persistence (DESIGN.md §16/§18) ------------------------------------

impl FluidNet {
    /// Drops *every* stale completion-index entry (not just when the lazy
    /// threshold trips). Part of the canonicalize-before-encode rule: two
    /// byte-identical fluid states must produce byte-identical snapshots no
    /// matter how much lazily-deferred garbage each carries. Removing stale
    /// entries is unobservable — they are skipped on pop anyway.
    pub fn canonicalize(&mut self) {
        let mut entries = std::mem::take(&mut self.completions).into_vec();
        entries.retain(|&Reverse((_, s, stamp))| {
            self.f_stamp[s as usize] == stamp && self.f_live[s as usize]
        });
        self.completions = BinaryHeap::from(entries);
    }

    /// Appends the complete network state to `e`, canonicalizing first.
    /// The completion heap is written as a sorted vector; demand lists are
    /// written per-flow (arena offsets are layout, not state, so demand
    /// compaction never perturbs snapshot bytes); scratch buffers, visit
    /// marks and component pools are rebuilt on decode rather than encoded.
    pub(crate) fn encode_state(&mut self, e: &mut Encoder) {
        self.canonicalize();
        e.usize(self.res_name.len());
        for i in 0..self.res_name.len() {
            e.str(&self.res_name[i]);
            self.res_kind[i].encode(e);
            e.f64(self.res_capacity[i]);
            e.f64(self.res_used[i]);
            e.f64(self.res_cumulative[i]);
        }
        e.usize(self.f_gen.len());
        for si in 0..self.f_gen.len() {
            e.u32(self.f_gen[si]);
            e.u32(self.f_stamp[si]);
            if self.f_live[si] {
                e.u8(1);
                self.slot_demands(si).encode(e);
                e.f64(self.f_total[si]);
                e.f64(self.f_remaining[si]);
                e.f64(self.f_rate[si]);
            } else {
                e.u8(0);
            }
        }
        self.free.encode(e);
        e.usize(self.active);
        self.last_update.encode(e);
        e.bool(self.allocation_dirty);
        self.res_flows.encode(e);
        self.dirty.encode(e);
        e.usize(self.near_done);
        let mut entries: Vec<(u64, u32, u32)> =
            self.completions.iter().map(|&Reverse(t)| t).collect();
        entries.sort_unstable();
        entries.encode(e);
        e.u64(self.stats.reallocations);
        e.u64(self.stats.flows_touched);
        e.u64(self.stats.resources_touched);
        e.u64(self.stats.batch_applied);
        e.u64(self.pending_mutations);
        self.comp_hist.encode(e);
    }

    /// Rebuilds a network from bytes written by
    /// [`FluidNet::encode_state`].
    // codec by hand: the SoA arena, canonical completion-index order, and rebuilt scratch
    pub(crate) fn decode_state(d: &mut Decoder) -> FluidNet {
        let mut net = FluidNet::new();
        let nres = d.usize();
        for _ in 0..nres {
            net.res_name.push(d.str());
            net.res_kind.push(ResourceKind::decode(d));
            net.res_capacity.push(d.f64());
            net.res_used.push(d.f64());
            net.res_cumulative.push(d.f64());
        }
        let nslots = d.usize();
        for _ in 0..nslots {
            net.f_gen.push(d.u32());
            net.f_stamp.push(d.u32());
            let live = d.u8() != 0;
            net.f_live.push(live);
            if live {
                let demands = Vec::<Demand>::decode(d);
                net.f_dem_start.push(net.dem_res.len() as u32);
                net.f_dem_len.push(demands.len() as u32);
                for dem in &demands {
                    net.dem_res.push(dem.resource.index() as u32);
                    net.dem_w.push(dem.weight);
                }
                net.f_total.push(d.f64());
                net.f_remaining.push(d.f64());
                net.f_rate.push(d.f64());
            } else {
                net.f_dem_start.push(0);
                net.f_dem_len.push(0);
                net.f_total.push(0.0);
                net.f_remaining.push(0.0);
                net.f_rate.push(0.0);
            }
        }
        net.free = Vec::<u32>::decode(d);
        net.active = d.usize();
        net.last_update = SimTime::decode(d);
        net.allocation_dirty = d.bool();
        net.res_flows = Vec::<Vec<u32>>::decode(d);
        net.dirty = Vec::<u32>::decode(d);
        net.near_done = d.usize();
        let completion_entries = Vec::<(u64, u32, u32)>::decode(d);
        net.completions = completion_entries.into_iter().map(Reverse).collect();
        net.stats.reallocations = d.u64();
        net.stats.flows_touched = d.u64();
        net.stats.resources_touched = d.u64();
        net.stats.batch_applied = d.u64();
        net.pending_mutations = d.u64();
        net.comp_hist = SizeHist::decode(d);
        net.res_mark = vec![false; net.res_name.len()];
        for &r in &net.dirty.clone() {
            net.res_mark[r as usize] = true;
        }
        net.res_local = vec![0; net.res_name.len()];
        net.flow_mark = vec![false; net.f_gen.len()];
        net
    }
}

impl fmt::Display for FluidNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FluidNet @ {} ({} flows)", self.last_update, self.active)?;
        for i in 0..self.res_name.len() {
            writeln!(
                f,
                "  r{i} {:<24} {:>12.3e}/{:>12.3e}",
                self.res_name[i], self.res_used[i], self.res_capacity[i]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net1() -> (FluidNet, ResourceId) {
        let mut net = FluidNet::new();
        let r = net.add_resource("link", ResourceKind::Net, 100.0);
        (net, r)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let (mut net, r) = net1();
        let f = net.add_flow(vec![Demand::unit(r)], 1000.0);
        net.reallocate();
        assert_eq!(net.flow_rate(f), 100.0);
        assert_eq!(net.used(r), 100.0);
        assert_eq!(net.utilization(r), 1.0);
    }

    #[test]
    fn two_flows_share_equally() {
        let (mut net, r) = net1();
        let a = net.add_flow(vec![Demand::unit(r)], 1000.0);
        let b = net.add_flow(vec![Demand::unit(r)], 500.0);
        net.reallocate();
        assert_eq!(net.flow_rate(a), 50.0);
        assert_eq!(net.flow_rate(b), 50.0);
    }

    #[test]
    fn weighted_demand_consumes_more() {
        let (mut net, r) = net1();
        // Flow with weight 4 consumes 4 capacity units per rate unit.
        let a = net.add_flow(vec![Demand::weighted(r, 4.0)], 100.0);
        let b = net.add_flow(vec![Demand::unit(r)], 100.0);
        net.reallocate();
        // Equal rates x: 4x + x = 100 -> x = 20.
        assert!((net.flow_rate(a) - 20.0).abs() < 1e-9);
        assert!((net.flow_rate(b) - 20.0).abs() < 1e-9);
        assert!((net.used(r) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_across_two_resources() {
        let mut net = FluidNet::new();
        let r1 = net.add_resource("a", ResourceKind::Net, 100.0);
        let r2 = net.add_resource("b", ResourceKind::Net, 30.0);
        // f1 uses both; f2 only r1. f1 bottlenecked at r2.
        let f1 = net.add_flow(vec![Demand::unit(r1), Demand::unit(r2)], 1.0);
        let f2 = net.add_flow(vec![Demand::unit(r1)], 1.0);
        net.reallocate();
        assert!((net.flow_rate(f1) - 30.0).abs() < 1e-9);
        // f2 takes the leftovers on r1: 100 - 30 = 70.
        assert!((net.flow_rate(f2) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn advance_drains_work_and_completes() {
        let (mut net, r) = net1();
        let f = net.add_flow(vec![Demand::unit(r)], 200.0);
        net.reallocate();
        let done_at = net.earliest_completion().expect("one active flow");
        assert_eq!(done_at.as_nanos(), SimTime::from_secs(2).as_nanos() + 1);
        net.advance_to(done_at);
        let finished = net.take_finished();
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].id, f);
        assert_eq!(net.active, 0);
    }

    #[test]
    fn remove_flow_returns_remaining() {
        let (mut net, r) = net1();
        let f = net.add_flow(vec![Demand::unit(r)], 200.0);
        net.reallocate();
        net.advance_to(SimTime::from_secs(1));
        let rem = net.remove_flow(f).expect("live flow");
        assert!((rem - 100.0).abs() < 1e-6);
        assert!(net.remove_flow(f).is_none(), "stale handle rejected");
    }

    #[test]
    fn zero_work_flow_finishes_immediately() {
        let (mut net, r) = net1();
        let _f = net.add_flow(vec![Demand::unit(r)], 0.0);
        net.reallocate();
        assert_eq!(net.earliest_completion(), Some(SimTime::ZERO));
        assert_eq!(net.take_finished().len(), 1);
    }

    #[test]
    fn infinite_capacity_gives_capped_rate() {
        let mut net = FluidNet::new();
        let r = net.add_resource("inf", ResourceKind::Other, f64::INFINITY);
        let f = net.add_flow(vec![Demand::unit(r)], 1.0);
        net.reallocate();
        assert!(net.flow_rate(f) >= 1e17);
    }

    #[test]
    fn zero_capacity_stalls_flows() {
        let mut net = FluidNet::new();
        let r = net.add_resource("down", ResourceKind::Net, 0.0);
        let f = net.add_flow(vec![Demand::unit(r)], 1.0);
        net.reallocate();
        assert_eq!(net.flow_rate(f), 0.0);
        assert_eq!(net.earliest_completion(), None);
    }

    #[test]
    fn generations_detect_reuse() {
        let (mut net, r) = net1();
        let f1 = net.add_flow(vec![Demand::unit(r)], 1.0);
        net.remove_flow(f1);
        let f2 = net.add_flow(vec![Demand::unit(r)], 1.0);
        assert_eq!(f1.slot, f2.slot, "slot reused");
        assert!(!net.is_live(f1));
        assert!(net.is_live(f2));
    }

    #[test]
    #[should_panic(expected = "time ran backwards")]
    fn time_cannot_go_backwards() {
        let (mut net, _r) = net1();
        net.reallocate();
        net.advance_to(SimTime::from_secs(5));
        net.advance_to(SimTime::from_secs(4));
    }

    #[test]
    fn three_level_maxmin() {
        // Classic example: three links, three flows.
        //   l1 cap 10, l2 cap 20, l3 cap 30
        //   fA: l1       fB: l1+l2      fC: l2+l3
        // Round 1: l1 fair share 5 saturates; fA = fB = 5.
        // Round 2: l2 residual 15, only fC: rate 15 (l3 has 30).
        let mut net = FluidNet::new();
        let l1 = net.add_resource("l1", ResourceKind::Net, 10.0);
        let l2 = net.add_resource("l2", ResourceKind::Net, 20.0);
        let l3 = net.add_resource("l3", ResourceKind::Net, 30.0);
        let fa = net.add_flow(vec![Demand::unit(l1)], 1.0);
        let fb = net.add_flow(vec![Demand::unit(l1), Demand::unit(l2)], 1.0);
        let fc = net.add_flow(vec![Demand::unit(l2), Demand::unit(l3)], 1.0);
        net.reallocate();
        assert!((net.flow_rate(fa) - 5.0).abs() < 1e-9);
        assert!((net.flow_rate(fb) - 5.0).abs() < 1e-9);
        assert!((net.flow_rate(fc) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn untouched_component_keeps_rates_and_is_not_touched() {
        // Two independent links; churn on one must not re-solve the other.
        let mut net = FluidNet::new();
        let r1 = net.add_resource("l1", ResourceKind::Net, 100.0);
        let r2 = net.add_resource("l2", ResourceKind::Net, 60.0);
        let a = net.add_flow(vec![Demand::unit(r1)], 1e6);
        let b = net.add_flow(vec![Demand::unit(r2)], 1e6);
        net.reallocate();
        assert_eq!(net.flow_rate(a), 100.0);
        assert_eq!(net.flow_rate(b), 60.0);
        let touched0 = net.stats().flows_touched;

        // Add churn on l1 only: the re-solve must touch l1's two flows and
        // leave b's rate (and touch count) alone.
        let c = net.add_flow(vec![Demand::unit(r1)], 1e6);
        net.reallocate();
        assert_eq!(net.flow_rate(a), 50.0);
        assert_eq!(net.flow_rate(c), 50.0);
        assert_eq!(net.flow_rate(b), 60.0, "independent component undisturbed");
        assert_eq!(net.stats().flows_touched - touched0, 2, "only l1's component re-solved");
    }

    #[test]
    fn completion_heap_compacts_under_churn() {
        let (mut net, r) = net1();
        // One long-lived flow plus heavy add/remove churn: stale entries
        // must not accumulate past the compaction bound.
        let _keeper = net.add_flow(vec![Demand::unit(r)], 1e12);
        for _ in 0..10_000 {
            let f = net.add_flow(vec![Demand::unit(r)], 1e9);
            net.reallocate();
            net.remove_flow(f);
            net.reallocate();
        }
        let len = net.stats().completion_heap_len;
        assert!(len <= HEAP_COMPACT_MIN.max(HEAP_SLACK * net.active) + 2, "heap {len}");
    }

    #[test]
    fn demand_arena_compacts_under_churn() {
        let (mut net, r) = net1();
        let keeper = net.add_flow(vec![Demand::unit(r), Demand::weighted(r, 2.0)], 1e12);
        for _ in 0..10_000 {
            let f = net.add_flow(vec![Demand::unit(r), Demand::unit(r)], 1e9);
            net.reallocate();
            net.remove_flow(f);
            net.reallocate();
        }
        // Garbage from 10k freed 2-row flows must not accumulate: the
        // arena stays within the compaction bound, and the survivor's
        // demand range stays intact across every compaction.
        assert!(
            net.dem_res.len() <= DEM_COMPACT_MIN + 4,
            "demand arena grew to {}",
            net.dem_res.len()
        );
        assert_eq!(net.slot_demands(keeper.slot as usize).len(), 2);
        assert!((net.flow_rate(keeper) - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn arena_reuse_is_aba_safe() {
        // Freed slot reused by a new flow: every read through the stale
        // handle must miss, and the recycled slot's state must be fully
        // re-initialized (no leakage from the dead flow).
        let mut net = FluidNet::new();
        let r1 = net.add_resource("l1", ResourceKind::Net, 100.0);
        let r2 = net.add_resource("l2", ResourceKind::Net, 60.0);
        let dead = net.add_flow(vec![Demand::unit(r1), Demand::unit(r1)], 500.0);
        net.reallocate();
        net.remove_flow(dead);
        let reborn = net.add_flow(vec![Demand::unit(r2)], 120.0);
        net.reallocate();
        assert_eq!(dead.slot, reborn.slot, "free list must recycle the slot");
        assert!(!net.is_live(dead));
        assert_eq!(net.flow_rate(dead), 0.0);
        assert_eq!(net.flow_remaining(dead), None);
        assert!(net.remove_flow(dead).is_none(), "stale cancel must miss the reborn flow");
        assert!(net.is_live(reborn));
        assert_eq!(net.flow_rate(reborn), 60.0);
        assert_eq!(net.used(r1), 0.0, "dead flow's demands fully detached");
        // The reborn flow finishes on its own schedule — the dead flow's
        // stale completion entries must not surface it early.
        let t = net.earliest_completion().expect("reborn flow progressing");
        assert_eq!(t.as_nanos(), SimTime::from_secs(2).as_nanos() + 1);
    }

    #[test]
    fn batch_counters_track_coalesced_mutations() {
        let (mut net, r) = net1();
        let a = net.add_flow(vec![Demand::unit(r)], 1e6);
        let b = net.add_flow(vec![Demand::unit(r)], 1e6);
        net.set_capacity(r, 80.0);
        net.remove_flow(b);
        net.reallocate();
        let s = net.stats();
        assert_eq!(s.reallocations, 1, "four mutations coalesced into one pass");
        assert_eq!(s.batch_applied, 4);
        assert_eq!(net.flow_rate(a), 80.0);
        // A clean pass applies nothing further.
        net.reallocate();
        assert_eq!(net.stats().batch_applied, 4);
    }

    #[test]
    fn component_histogram_records_sizes() {
        let mut net = FluidNet::new();
        let r1 = net.add_resource("l1", ResourceKind::Net, 100.0);
        let r2 = net.add_resource("l2", ResourceKind::Net, 60.0);
        for _ in 0..3 {
            net.add_flow(vec![Demand::unit(r1)], 1e6);
        }
        net.add_flow(vec![Demand::unit(r2)], 1e6);
        net.reallocate();
        let s = net.stats();
        assert_eq!(net.comp_hist.count(), 2, "two components solved");
        assert_eq!(s.comp_size_max, 3);
        // Nearest-rank p50 of the two samples {1, 3} resolves to the upper.
        assert_eq!(s.comp_size_p50, 3);
        // Re-solving only the singleton link leaves the max untouched and
        // pulls the median down.
        net.add_flow(vec![Demand::unit(r2)], 1e6);
        net.reallocate();
        let s = net.stats();
        assert_eq!(net.comp_hist.count(), 3);
        assert_eq!(s.comp_size_max, 3);
        assert_eq!(s.comp_size_p50, 2, "samples {{1, 2, 3}} -> median 2");
    }
}
