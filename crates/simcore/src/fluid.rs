//! Fluid resource model with progressive-filling max-min fairness.
//!
//! This is the timing substrate of the whole platform, in the style of
//! SimGrid's fluid network model. A **resource** is a server with a scalar
//! capacity (bytes/s for links and disks, cycles/s for CPUs). A **flow** is
//! an amount of *work* that drains through a list of resources: a flow
//! running at rate `x` consumes `x` capacity on every resource it lists
//! (`k · x` on one it lists `k` times). At any instant the kernel assigns
//! rates by max-min fairness: rates are raised uniformly until a resource
//! saturates, the flows crossing it are frozen, and filling continues on
//! the rest.
//!
//! One mechanism expresses every contention effect the vHadoop paper
//! measures: a vCPU cap is a flow demanding {vcpu, host-cpu}; a cross-host
//! transfer demands {src NIC, switch, dst NIC}.
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
//! ## Lazy clock (DESIGN.md §13)
//!
//! Time passing costs nothing: [`FluidNet::advance_to`] only moves the
//! clock. Every flow stores its remaining work as of its *anchor* instant
//! and every resource its cumulative work as of its own anchor; a rate (or
//! `used`) is constant between anchors, so the value "now" is the stored
//! one less (plus) rate × elapsed time, computed on read. A flow settles —
//! folds the elapsed drain into its stored value and moves its anchor —
//! only when the solver gives it a different rate, when it finishes, or
//! when it is removed; a resource only when its `used` changes. A cluster
//! step therefore costs what it touches, not what is live. Rates and `used`
//! are the solver's alone and stay bit-identical to a global pass; remaining
//! work and cumulative service round differently from an eagerly stepped
//! clock, and completion instants may move by a nanosecond.
//!
//! ## Slot arena and one pass per component (DESIGN.md §18)
//!
//! Flow state lives in parallel `Vec`s indexed by slot (generation, stamp,
//! rate, remaining, anchor, total), and each flow keeps the demand list it
//! was started with. Reallocation walks the dirty seeds once: each seed not
//! yet absorbed grows into its connected component, which is solved by
//! restricted progressive filling and committed before the next seed is
//! walked. This is the only max-min implementation in the workspace; its
//! reference is the global-pass `Oracle` in `tests/tests/fluid_equivalence.rs`.

use crate::ids::{FlowId, ResourceId};
use crate::persist::{Decoder, Encoder, Persist};
use crate::stats::SizeHist;
use crate::time::{SimDuration, SimTime};
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

/// What a resource meters; used by monitors to group utilization report rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

crate::persist_enum!(ResourceKind { 0 => Cpu, 1 => Disk, 2 => Net, 3 => Other });

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
/// incremental, batching or lazy-clock behavior fails tier-1 on any host.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FluidStats {
    /// Number of [`FluidNet::reallocate`] passes that found dirty state.
    pub reallocations: u64,
    /// Total flows re-solved across all reallocations (the dirty-component
    /// closure size, summed). `flows_touched / reallocations` is the mean
    /// component size — the number the incremental solver drives down.
    pub flows_touched: u64,
    /// Flow settles: a flow's drain folded into its stored remaining work
    /// because its rate changed, it finished or it was removed. Idle
    /// flows never count, so this grows with what changes, not with time.
    pub flows_settled: u64,
    /// Total mutations (flow add/remove/finish, capacity change) absorbed
    /// by coalesced reallocation passes. `batch_applied / reallocations`
    /// is the mean batch size — how much event application amortizes.
    pub batch_applied: u64,
    /// p99 of per-reallocation component flow counts (lifetime histogram).
    pub comp_size_p99: u64,
    /// Largest component (in flows) ever re-solved — the cost ceiling of a
    /// single incremental re-solve on this workload.
    pub comp_size_max: u64,
}

/// Scratch for `solve_component`, indexed by component-local flow or
/// resource position (so a solve touches a dense, cache-resident window
/// regardless of network size).
#[derive(Debug, Default, Clone)]
struct SolveScratch {
    residual: Vec<f64>,
    count: Vec<u32>,
    saturated: Vec<bool>,
    /// Solved rate of each flow of the component.
    rate: Vec<f64>,
    /// Solved usage of each resource of the component.
    used: Vec<f64>,
    /// Component-local indices of flows not yet frozen this solve.
    unfrozen: Vec<u32>,
    still: Vec<u32>,
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
    /// Total work served from t = 0 to `res_anchor` (integrated
    /// `used · dt`); lets clients compute exact time-averaged utilization
    /// over any window.
    res_cumulative: Vec<f64>,
    /// Instant `res_cumulative` was last settled; `res_used` has not
    /// changed since.
    res_anchor: Vec<SimTime>,
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
    /// Remaining work as of `f_anchor`.
    f_remaining: Vec<f64>,
    /// Instant `f_remaining` was last settled; `f_rate` has not changed
    /// since.
    f_anchor: Vec<SimTime>,
    f_rate: Vec<f64>,
    /// The resources each live flow demands, as handed to `add_flow`
    /// (empty for a free slot).
    f_dem: Vec<Vec<ResourceId>>,
    free: Vec<u32>,
    active: usize,

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
    /// Live flows whose settled remaining work is `<= DONE_EPS` — the set
    /// that makes `earliest_completion` return "now" immediately and
    /// `take_finished` scan every slot (a zero-work flow on a stalled
    /// resource has no completion-index entry).
    near_done: usize,
    /// Lazy min-heap of projected completions: `(finish_ns, slot, stamp)`.
    /// Entries whose stamp no longer matches the slot are stale.
    completions: BinaryHeap<Reverse<(u64, u32, u32)>>,

    // ----- closure walk pools (recycled across reallocations) -------------
    /// Flows and resources of every component walked this pass, each
    /// component a contiguous run in discovery order.
    comp_flows: Vec<u32>,
    comp_res: Vec<u32>,
    /// Component-local resource index, full network size; only entries for
    /// the current component are meaningful.
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
            res_anchor: Vec::new(),
            res_flows: Vec::new(),
            f_gen: Vec::new(),
            f_stamp: Vec::new(),
            f_live: Vec::new(),
            f_total: Vec::new(),
            f_remaining: Vec::new(),
            f_anchor: Vec::new(),
            f_rate: Vec::new(),
            f_dem: Vec::new(),
            free: Vec::new(),
            active: 0,
            last_update: SimTime::ZERO,
            allocation_dirty: false,
            dirty: Vec::new(),
            res_mark: Vec::new(),
            flow_mark: Vec::new(),
            near_done: 0,
            completions: BinaryHeap::new(),
            comp_flows: Vec::new(),
            comp_res: Vec::new(),
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
        self.res_anchor.push(self.last_update);
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

    /// Total work served on `r` from t = 0 to [`FluidNet::now`]: the
    /// settled total plus `used` × the time since it was settled.
    pub fn cumulative(&self, r: ResourceId) -> f64 {
        let r = r.index();
        self.res_cumulative[r] + self.res_used[r] * self.secs_since(self.res_anchor[r])
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
            comp_size_p99: self.comp_hist.percentile(0.99),
            comp_size_max: self.comp_hist.max(),
            ..self.stats
        }
    }

    /// Starts a flow of `work` units over `demands`. The allocation is
    /// marked dirty; the caller must `reallocate` (the engine does).
    ///
    /// # Panics
    /// If `demands` is empty, any resource id is unknown, or `work` is
    /// negative/non-finite.
    pub fn add_flow(&mut self, demands: Vec<ResourceId>, work: f64) -> FlowId {
        assert!(!demands.is_empty(), "a flow must demand at least one resource");
        assert!(work.is_finite() && work >= 0.0, "flow work must be finite and >= 0, got {work}");
        for r in &demands {
            assert!(r.index() < self.res_name.len(), "unknown resource {r}");
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let si = s as usize;
                debug_assert!(!self.f_live[si]);
                self.f_live[si] = true;
                self.f_total[si] = work;
                self.f_remaining[si] = work;
                self.f_anchor[si] = self.last_update;
                self.f_rate[si] = 0.0;
                s
            }
            None => {
                self.f_gen.push(0);
                self.f_stamp.push(0);
                self.f_live.push(true);
                self.f_total.push(work);
                self.f_remaining.push(work);
                self.f_anchor.push(self.last_update);
                self.f_rate.push(0.0);
                self.f_dem.push(Vec::new());
                self.flow_mark.push(false);
                (self.f_gen.len() - 1) as u32
            }
        };
        if work <= DONE_EPS {
            self.near_done += 1;
        }
        for r in &demands {
            self.res_flows[r.index()].push(slot);
            self.mark_dirty(r.index());
        }
        self.f_dem[slot as usize] = demands;
        self.active += 1;
        self.allocation_dirty = true;
        self.pending_mutations += 1;
        self.handle(slot as usize)
    }

    /// The current handle of slot `si`.
    fn handle(&self, si: usize) -> FlowId {
        FlowId { slot: si as u32, gen: self.f_gen[si] }
    }

    /// Cancels `id`, returning its remaining work, or `None` if the handle
    /// is stale (already finished/cancelled).
    pub fn remove_flow(&mut self, id: FlowId) -> Option<f64> {
        if !self.is_live(id) {
            return None;
        }
        self.retire(id.slot);
        Some(self.f_remaining[id.slot as usize])
    }

    /// Takes live slot `slot` out of the network: settles its remaining
    /// work, stales its handle and completion-index entries, detaches it
    /// from its resources (dropping its demand list) and frees the slot.
    fn retire(&mut self, slot: u32) {
        let si = slot as usize;
        self.settle_flow(si);
        if self.f_remaining[si] <= DONE_EPS {
            self.near_done -= 1;
        }
        self.f_gen[si] = self.f_gen[si].wrapping_add(1);
        self.f_stamp[si] = self.f_stamp[si].wrapping_add(1);
        self.detach(slot);
        self.f_live[si] = false;
        self.free.push(slot);
        self.active -= 1;
        self.allocation_dirty = true;
        self.pending_mutations += 1;
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

    /// Remaining work of `id` at [`FluidNet::now`] (stale → `None`).
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.is_live(id).then(|| self.remaining_now(id.slot as usize))
    }

    /// Seconds from `anchor` to the fluid clock.
    fn secs_since(&self, anchor: SimTime) -> f64 {
        (self.last_update - anchor).as_secs_f64()
    }

    /// Remaining work of live slot `si` at the fluid clock: the settled
    /// value less what the unchanged rate has drained since the anchor.
    fn remaining_now(&self, si: usize) -> f64 {
        let drained = self.f_rate[si] * self.secs_since(self.f_anchor[si]);
        (self.f_remaining[si] - drained).max(0.0)
    }

    /// True when live slot `si` counts as finished at the fluid clock.
    fn is_drained(&self, si: usize) -> bool {
        self.remaining_now(si) <= DONE_EPS.max(self.f_total[si] * 1e-12)
    }

    /// Folds the drain since the anchor into `f_remaining` and moves the
    /// anchor to the fluid clock; must run before the rate changes.
    fn settle_flow(&mut self, si: usize) {
        let after = self.remaining_now(si);
        if self.f_remaining[si] > DONE_EPS && after <= DONE_EPS {
            self.near_done += 1;
        }
        self.f_remaining[si] = after;
        self.f_anchor[si] = self.last_update;
        self.stats.flows_settled += 1;
    }

    /// Unregisters a departing flow from the per-resource index, marks its
    /// resources dirty (its component must re-solve) and drops its list.
    fn detach(&mut self, slot: u32) {
        for r in std::mem::take(&mut self.f_dem[slot as usize]) {
            let list = &mut self.res_flows[r.index()];
            let pos = list.iter().position(|&s| s == slot).expect("flow indexed on its resource");
            list.swap_remove(pos);
            self.mark_dirty(r.index());
        }
    }

    fn mark_dirty(&mut self, r: usize) {
        if !self.res_mark[r] {
            self.res_mark[r] = true;
            self.dirty.push(r as u32);
        }
    }

    /// Moves the fluid clock to `now`. O(1): flows and resources catch up
    /// when they are read or settled, not here.
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
        // A removed flow's share stays in its resources' `used` until the
        // next reallocation, so time must not pass over a dirty allocation.
        debug_assert!(
            now == self.last_update || !self.allocation_dirty,
            "advancing fluid time with a dirty allocation"
        );
        self.last_update = now;
    }

    /// Recomputes the max-min fair allocation over the flows whose
    /// component changed since the last call.
    ///
    /// One pass over the dirty seeds (DESIGN.md §18): a seed not absorbed by
    /// an earlier component grows into its connected component of the
    /// flow/resource graph, which is solved and committed on the spot.
    /// Discovery order is the seed order, a pure function of the mutation
    /// sequence; within a component flows are sorted ascending by slot —
    /// the accumulation order of a global pass, so shares stay
    /// bit-identical. Flows outside the closure keep their rates — max-min
    /// shares of independent components are unaffected by each other, so
    /// the result is identical to a global solve.
    pub fn reallocate(&mut self) {
        self.allocation_dirty = false;
        if self.dirty.is_empty() {
            return;
        }
        self.stats.reallocations += 1;
        self.stats.batch_applied += self.pending_mutations;
        self.pending_mutations = 0;
        self.comp_flows.clear();
        self.comp_res.clear();
        let seeds = std::mem::take(&mut self.dirty);
        // `res_mark` flags "is in the seed list"; clear it so it can serve
        // as the walk's visited set. Marks stay set until every seed has
        // been walked: a seed absorbed by an earlier component must not
        // start its own.
        for &r in &seeds {
            self.res_mark[r as usize] = false;
        }
        for &seed in &seeds {
            if !self.res_mark[seed as usize] {
                let (flow_start, res_start) = (self.comp_flows.len(), self.comp_res.len());
                self.walk_component(seed);
                self.commit_component(flow_start, res_start);
            }
        }
        for &r in &self.comp_res {
            self.res_mark[r as usize] = false;
        }
        for &s in &self.comp_flows {
            self.flow_mark[s as usize] = false;
        }
        // Recycle the seed list's allocation.
        self.dirty = seeds;
        self.dirty.clear();
        self.compact_completions();
    }

    /// Appends the connected component reachable from `seed` to the
    /// `comp_flows` / `comp_res` pools (breadth first, marking what it
    /// visits), sorts its flows by slot and numbers its resources locally.
    fn walk_component(&mut self, seed: u32) {
        let (flow_start, res_start) = (self.comp_flows.len(), self.comp_res.len());
        self.res_mark[seed as usize] = true;
        self.comp_res.push(seed);
        let mut qi = res_start;
        while qi < self.comp_res.len() {
            let r = self.comp_res[qi] as usize;
            qi += 1;
            for &s in &self.res_flows[r] {
                if !self.flow_mark[s as usize] {
                    self.flow_mark[s as usize] = true;
                    self.comp_flows.push(s);
                    for ri in &self.f_dem[s as usize] {
                        if !self.res_mark[ri.index()] {
                            self.res_mark[ri.index()] = true;
                            self.comp_res.push(ri.0);
                        }
                    }
                }
            }
        }
        self.comp_flows[flow_start..].sort_unstable();
        for (j, &r) in self.comp_res[res_start..].iter().enumerate() {
            self.res_local[r as usize] = j as u32;
        }
    }

    /// Restricted progressive filling over one connected component: every
    /// unfrozen flow's rate rises uniformly; the resource with the smallest
    /// residual fair share saturates first and freezes every flow crossing it;
    /// repeat. Scratch is indexed by component-local resource position (via
    /// `res_local`); rates land in `sc.rate` (parallel to `flows`),
    /// per-resource usage in `sc.used` (parallel to `res`).
    fn solve_component(&self, flows: &[u32], res: &[u32], sc: &mut SolveScratch) {
        sc.residual.clear();
        sc.residual.extend(res.iter().map(|&r| self.res_capacity[r as usize]));
        sc.count.clear();
        sc.count.resize(res.len(), 0);
        sc.saturated.clear();
        sc.saturated.resize(res.len(), false);
        sc.used.clear();
        sc.used.resize(res.len(), 0.0);
        sc.rate.clear();
        sc.rate.resize(flows.len(), 0.0);
        for &s in flows {
            for r in &self.f_dem[s as usize] {
                sc.count[self.res_local[r.index()] as usize] += 1;
            }
        }

        sc.unfrozen.clear();
        sc.unfrozen.extend(0..flows.len() as u32);
        while !sc.unfrozen.is_empty() {
            // Find the bottleneck share among component resources that still
            // carry unfrozen flows.
            let mut share = f64::INFINITY;
            for j in 0..res.len() {
                if sc.count[j] > 0 {
                    let s = sc.residual[j] / f64::from(sc.count[j]);
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
                sc.saturated[j] = false;
                if share < RATE_CAP
                    && sc.count[j] > 0
                    && sc.residual[j] / f64::from(sc.count[j]) <= share + tol
                {
                    sc.saturated[j] = true;
                    any_saturated = true;
                }
            }

            sc.still.clear();
            for ui in 0..sc.unfrozen.len() {
                let li = sc.unfrozen[ui];
                let dem = &self.f_dem[flows[li as usize] as usize];
                let frozen_now = !any_saturated
                    || dem.iter().any(|r| sc.saturated[self.res_local[r.index()] as usize]);
                if frozen_now {
                    sc.rate[li as usize] = share;
                    for r in dem {
                        let j = self.res_local[r.index()] as usize;
                        sc.residual[j] = (sc.residual[j] - share).max(0.0);
                        sc.count[j] -= 1;
                        sc.used[j] += share;
                    }
                } else {
                    sc.still.push(li);
                }
            }
            debug_assert!(
                sc.still.len() < sc.unfrozen.len(),
                "progressive filling must freeze at least one flow per round"
            );
            std::mem::swap(&mut sc.unfrozen, &mut sc.still);
        }
    }

    /// Solves the component that starts at `flow_start` / `res_start` in
    /// the pools and commits its rates and resource usage. Only a flow
    /// whose rate changed (bit for bit) is settled, re-stamped and
    /// re-indexed; one re-solved to the same rate keeps its anchor and its
    /// completion-index entry, which still projects the right instant.
    /// Likewise a resource settles only when its `used` changes.
    fn commit_component(&mut self, flow_start: usize, res_start: usize) {
        let mut sc = std::mem::take(&mut self.scratch);
        self.solve_component(&self.comp_flows[flow_start..], &self.comp_res[res_start..], &mut sc);
        let flow_len = self.comp_flows.len() - flow_start;
        self.stats.flows_touched += flow_len as u64;
        if flow_len > 0 {
            self.comp_hist.push(flow_len as u64);
        }
        for (i, &rate) in sc.rate.iter().enumerate() {
            let s = self.comp_flows[flow_start + i];
            let si = s as usize;
            if rate.to_bits() == self.f_rate[si].to_bits() {
                continue;
            }
            self.settle_flow(si);
            self.f_rate[si] = rate;
            self.f_stamp[si] = self.f_stamp[si].wrapping_add(1);
            if rate > 0.0 {
                let d = SimDuration::from_secs_f64(self.f_remaining[si] / rate);
                let key = self.last_update.as_nanos().saturating_add(d.as_nanos());
                self.completions.push(Reverse((key, s, self.f_stamp[si])));
            }
        }
        for (j, &used) in sc.used.iter().enumerate() {
            let r = self.comp_res[res_start + j] as usize;
            if used.to_bits() != self.res_used[r].to_bits() {
                self.res_cumulative[r] = self.cumulative(ResourceId(r as u32));
                self.res_anchor[r] = self.last_update;
                self.res_used[r] = used;
            }
        }
        self.scratch = sc;
    }

    /// Drops stale completion entries wholesale once they dominate the
    /// heap, bounding memory under long flow churn.
    fn compact_completions(&mut self) {
        if self.completions.len() > HEAP_COMPACT_MIN
            && self.completions.len() > HEAP_SLACK * self.active
        {
            self.canonicalize();
        }
    }

    /// The next instant at which some flow drains, given current rates, or
    /// `None` if no flow is progressing. The allocation must be clean.
    ///
    /// Served from the completion index: stale heap entries are popped
    /// lazily, and the winning flow's instant is recomputed from its
    /// remaining work *now* — the expression of the former full scan.
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
        let secs = self.remaining_now(si) / self.f_rate[si];
        // Round up one nanosecond so the event lands at-or-after the true
        // completion instant.
        let d = SimDuration::from_secs_f64(secs).saturating_add(SimDuration::from_nanos(1));
        Some(self.last_update + d)
    }

    /// Removes and returns, in ascending slot order, every flow whose work
    /// has drained by [`FluidNet::now`]. The allocation becomes dirty if
    /// any finished.
    ///
    /// Candidates come from the completion index — every entry projected
    /// to finish by `now + 1 ns` — so the cost follows the finishers, not
    /// the live flows. A candidate still holding more than its finishing
    /// slack goes back into the index. While a near-done flow is live
    /// (which may have no index entry: zero work on a stalled resource),
    /// every slot is checked instead.
    pub fn take_finished(&mut self) -> Vec<FinishedFlow> {
        let mut done = Vec::new();
        if self.near_done > 0 {
            for si in 0..self.f_live.len() {
                if self.f_live[si] && self.is_drained(si) {
                    done.push(FinishedFlow { id: self.handle(si) });
                }
            }
        } else {
            let horizon = self.last_update.as_nanos().saturating_add(1);
            let mut early = Vec::new();
            while let Some(&Reverse(entry)) = self.completions.peek() {
                let (key, s, stamp) = entry;
                if key > horizon {
                    break;
                }
                self.completions.pop();
                let si = s as usize;
                if self.f_stamp[si] != stamp || !self.f_live[si] {
                    continue;
                }
                if self.is_drained(si) {
                    done.push(FinishedFlow { id: self.handle(si) });
                } else {
                    early.push(Reverse(entry));
                }
            }
            self.completions.extend(early);
            done.sort_unstable_by_key(|f| f.id.slot);
        }
        for f in &done {
            self.retire(f.id.slot);
        }
        done
    }

    /// The fluid clock: the instant of the last `advance_to`.
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
    /// The completion heap is written as a sorted vector; scratch buffers,
    /// visit marks and walk pools are rebuilt on decode rather than encoded.
    pub(crate) fn encode_state(&mut self, e: &mut Encoder) {
        self.canonicalize();
        e.usize(self.res_name.len());
        for i in 0..self.res_name.len() {
            e.str(&self.res_name[i]);
            self.res_kind[i].encode(e);
            e.f64(self.res_capacity[i]);
            e.f64(self.res_used[i]);
            e.f64(self.res_cumulative[i]);
            self.res_anchor[i].encode(e);
        }
        e.usize(self.f_gen.len());
        for si in 0..self.f_gen.len() {
            e.u32(self.f_gen[si]);
            e.u32(self.f_stamp[si]);
            if self.f_live[si] {
                e.u8(1);
                self.f_dem[si].encode(e);
                e.f64(self.f_total[si]);
                e.f64(self.f_remaining[si]);
                self.f_anchor[si].encode(e);
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
        e.u64(self.stats.flows_settled);
        e.u64(self.stats.batch_applied);
        e.u64(self.pending_mutations);
        self.comp_hist.encode(e);
    }

    /// Rebuilds a network from bytes written by
    /// [`FluidNet::encode_state`].
    // codec by hand: the slot arena, canonical completion-index order, and rebuilt scratch
    pub(crate) fn decode_state(d: &mut Decoder) -> FluidNet {
        let mut net = FluidNet::new();
        let nres = d.usize();
        for _ in 0..nres {
            net.res_name.push(d.str());
            net.res_kind.push(ResourceKind::decode(d));
            net.res_capacity.push(d.f64());
            net.res_used.push(d.f64());
            net.res_cumulative.push(d.f64());
            net.res_anchor.push(SimTime::decode(d));
        }
        let nslots = d.usize();
        for _ in 0..nslots {
            net.f_gen.push(d.u32());
            net.f_stamp.push(d.u32());
            let live = d.u8() != 0;
            net.f_live.push(live);
            if live {
                net.f_dem.push(Vec::<ResourceId>::decode(d));
                net.f_total.push(d.f64());
                net.f_remaining.push(d.f64());
                net.f_anchor.push(SimTime::decode(d));
                net.f_rate.push(d.f64());
            } else {
                net.f_dem.push(Vec::new());
                net.f_total.push(0.0);
                net.f_remaining.push(0.0);
                net.f_anchor.push(SimTime::ZERO);
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
        net.stats.flows_settled = d.u64();
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
        let f = net.add_flow(vec![r], 1000.0);
        net.reallocate();
        assert_eq!(net.flow_rate(f), 100.0);
        assert_eq!(net.used(r), 100.0);
        assert_eq!(net.utilization(r), 1.0);
    }

    #[test]
    fn two_flows_share_equally() {
        let (mut net, r) = net1();
        let a = net.add_flow(vec![r], 1000.0);
        let b = net.add_flow(vec![r], 500.0);
        net.reallocate();
        assert_eq!(net.flow_rate(a), 50.0);
        assert_eq!(net.flow_rate(b), 50.0);
    }

    #[test]
    fn max_min_across_two_resources() {
        let mut net = FluidNet::new();
        let r1 = net.add_resource("a", ResourceKind::Net, 100.0);
        let r2 = net.add_resource("b", ResourceKind::Net, 30.0);
        // f1 uses both; f2 only r1. f1 bottlenecked at r2.
        let f1 = net.add_flow(vec![r1, r2], 1.0);
        let f2 = net.add_flow(vec![r1], 1.0);
        net.reallocate();
        assert!((net.flow_rate(f1) - 30.0).abs() < 1e-9);
        // f2 takes the leftovers on r1: 100 - 30 = 70.
        assert!((net.flow_rate(f2) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn advance_drains_work_and_completes() {
        let (mut net, r) = net1();
        let f = net.add_flow(vec![r], 200.0);
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
        let f = net.add_flow(vec![r], 200.0);
        net.reallocate();
        net.advance_to(SimTime::from_secs(1));
        let rem = net.remove_flow(f).expect("live flow");
        assert!((rem - 100.0).abs() < 1e-6);
        assert!(net.remove_flow(f).is_none(), "stale handle rejected");
    }

    #[test]
    fn zero_work_flow_finishes_immediately() {
        let (mut net, r) = net1();
        let _f = net.add_flow(vec![r], 0.0);
        net.reallocate();
        assert_eq!(net.earliest_completion(), Some(SimTime::ZERO));
        assert_eq!(net.take_finished().len(), 1);
    }

    #[test]
    fn infinite_capacity_gives_capped_rate() {
        let mut net = FluidNet::new();
        let r = net.add_resource("inf", ResourceKind::Other, f64::INFINITY);
        let f = net.add_flow(vec![r], 1.0);
        net.reallocate();
        assert!(net.flow_rate(f) >= 1e17);
    }

    #[test]
    fn zero_capacity_stalls_flows() {
        let mut net = FluidNet::new();
        let r = net.add_resource("down", ResourceKind::Net, 0.0);
        let f = net.add_flow(vec![r], 1.0);
        net.reallocate();
        assert_eq!(net.flow_rate(f), 0.0);
        assert_eq!(net.earliest_completion(), None);
    }

    #[test]
    fn generations_detect_reuse() {
        let (mut net, r) = net1();
        let f1 = net.add_flow(vec![r], 1.0);
        net.remove_flow(f1);
        let f2 = net.add_flow(vec![r], 1.0);
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
        let fa = net.add_flow(vec![l1], 1.0);
        let fb = net.add_flow(vec![l1, l2], 1.0);
        let fc = net.add_flow(vec![l2, l3], 1.0);
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
        let a = net.add_flow(vec![r1], 1e6);
        let b = net.add_flow(vec![r2], 1e6);
        net.reallocate();
        assert_eq!(net.flow_rate(a), 100.0);
        assert_eq!(net.flow_rate(b), 60.0);
        let touched0 = net.stats().flows_touched;

        // Add churn on l1 only: the re-solve must touch l1's two flows and
        // leave b's rate (and touch count) alone.
        let c = net.add_flow(vec![r1], 1e6);
        net.reallocate();
        assert_eq!(net.flow_rate(a), 50.0);
        assert_eq!(net.flow_rate(c), 50.0);
        assert_eq!(net.flow_rate(b), 60.0, "independent component undisturbed");
        assert_eq!(net.stats().flows_touched - touched0, 2, "only l1's component re-solved");
    }

    #[test]
    fn idle_and_same_rate_flows_are_never_settled() {
        // 1 000 long-running flows, each alone on its own link, never join a
        // re-solve; `steady` does, with every churning flow, but its
        // bottleneck is elsewhere, so its rate never changes.
        let mut net = FluidNet::new();
        let idle: Vec<FlowId> = (0..1000)
            .map(|i| {
                let r = net.add_resource(format!("idle{i}"), ResourceKind::Net, 100.0);
                net.add_flow(vec![r], 1e12)
            })
            .collect();
        let link = net.add_resource("link", ResourceKind::Net, 1000.0);
        let slow = net.add_resource("slow", ResourceKind::Net, 10.0);
        let steady = net.add_flow(vec![link, slow], 1e12);
        net.reallocate();
        let settled = net.stats().flows_settled;
        for _ in 0..1000 {
            net.add_flow(vec![link], 990.0);
            net.reallocate();
            let t = net.earliest_completion().expect("the churning flow drains");
            net.advance_to(t);
            assert_eq!(net.take_finished().len(), 1);
            net.reallocate();
        }
        // Two settles per churning flow: its rate leaving 0, its finish.
        assert_eq!(net.stats().flows_settled - settled, 2000);
        assert_eq!(net.flow_rate(steady), 10.0);
        // Reads catch up without settling.
        let now = net.now().as_secs_f64();
        assert!(now > 1000.0);
        assert!((net.flow_remaining(steady).unwrap() - (1e12 - 10.0 * now)).abs() < 1e-3);
        for &f in &idle {
            assert!((net.flow_remaining(f).unwrap() - (1e12 - 100.0 * now)).abs() < 1e-3);
        }
        assert!((net.cumulative(slow) - 10.0 * now).abs() < 1e-6);
        assert_eq!(net.stats().flows_settled - settled, 2000);
    }

    #[test]
    fn completion_heap_compacts_under_churn() {
        let (mut net, r) = net1();
        // One long-lived flow plus heavy add/remove churn: stale entries
        // must not accumulate past the compaction bound.
        let _keeper = net.add_flow(vec![r], 1e12);
        for _ in 0..10_000 {
            let f = net.add_flow(vec![r], 1e9);
            net.reallocate();
            net.remove_flow(f);
            net.reallocate();
        }
        let len = net.completions.len();
        assert!(len <= HEAP_COMPACT_MIN.max(HEAP_SLACK * net.active) + 2, "heap {len}");
    }

    #[test]
    fn a_flow_keeps_its_demands_under_churn() {
        let (mut net, r) = net1();
        let keeper = net.add_flow(vec![r, r, r], 1e12);
        for _ in 0..10_000 {
            let f = net.add_flow(vec![r, r], 1e9);
            net.reallocate();
            net.remove_flow(f);
            net.reallocate();
        }
        // The survivor still lists its three rows and gets its share of a
        // resource it demands three times; a retired slot keeps no list.
        assert_eq!(net.f_dem[keeper.slot as usize], vec![r, r, r]);
        assert!((net.flow_rate(keeper) - 100.0 / 3.0).abs() < 1e-9);
        for si in (0..net.f_live.len()).filter(|&si| !net.f_live[si]) {
            assert_eq!(net.f_dem[si].capacity(), 0, "retired slot {si} holds a demand list");
        }
    }

    #[test]
    fn an_absorbed_seed_starts_no_component() {
        // x on {r1}, y on {r1, r2}: one component. Dirtying r2 and then r1
        // seeds [r2, r1]; walking r2 absorbs r1, so the pass solves one
        // component of three flows, once.
        let mut net = FluidNet::new();
        let r1 = net.add_resource("r1", ResourceKind::Net, 100.0);
        let r2 = net.add_resource("r2", ResourceKind::Net, 30.0);
        let x = net.add_flow(vec![r1], 1e6);
        let y = net.add_flow(vec![r1, r2], 1e6);
        net.reallocate();
        let (comps0, touched0) = (net.comp_hist.count(), net.stats().flows_touched);
        net.set_capacity(r2, 20.0);
        let z = net.add_flow(vec![r1], 1e6);
        assert_eq!(net.dirty, vec![r2.0, r1.0]);
        net.reallocate();
        assert_eq!(net.comp_hist.count() - comps0, 1, "one component solved");
        assert_eq!(net.stats().flows_touched - touched0, 3, "each flow solved once");
        let sum = net.flow_rate(x) + net.flow_rate(y) + net.flow_rate(z);
        assert_eq!(net.used(r1), sum);
        assert_eq!(net.flow_rate(y), 20.0);
        assert_eq!(net.flow_rate(x), 40.0);
    }

    #[test]
    fn arena_reuse_is_aba_safe() {
        // Freed slot reused by a new flow: every read through the stale
        // handle must miss, and the recycled slot's state must be fully
        // re-initialized (no leakage from the dead flow).
        let mut net = FluidNet::new();
        let r1 = net.add_resource("l1", ResourceKind::Net, 100.0);
        let r2 = net.add_resource("l2", ResourceKind::Net, 60.0);
        let dead = net.add_flow(vec![r1, r1], 500.0);
        net.reallocate();
        net.remove_flow(dead);
        let reborn = net.add_flow(vec![r2], 120.0);
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
        let a = net.add_flow(vec![r], 1e6);
        let b = net.add_flow(vec![r], 1e6);
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
            net.add_flow(vec![r1], 1e6);
        }
        net.add_flow(vec![r2], 1e6);
        net.reallocate();
        let s = net.stats();
        assert_eq!(net.comp_hist.count(), 2, "two components solved");
        assert_eq!(s.comp_size_max, 3);
        // Nearest-rank p50 of the two samples {1, 3} resolves to the upper.
        assert_eq!(net.comp_hist.percentile(0.50), 3);
        // Re-solving only the singleton link leaves the max untouched and
        // pulls the median down.
        net.add_flow(vec![r2], 1e6);
        net.reallocate();
        let s = net.stats();
        assert_eq!(net.comp_hist.count(), 3);
        assert_eq!(s.comp_size_max, 3);
        assert_eq!(net.comp_hist.percentile(0.50), 2, "samples {{1, 2, 3}} -> median 2");
    }
}
