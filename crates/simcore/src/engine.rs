//! Discrete-event engine driving the fluid model.
//!
//! Client subsystems describe work as **activities**: chains of [`Step`]s
//! that run sequentially (a fluid flow, or a pure latency delay). Chains can
//! be AND-joined into **batches**. The engine owns the clock, runs the fluid
//! reallocation whenever the flow set changes, and surfaces completions as
//! [`Wakeup`]s carrying the client's routing [`Tag`].
//!
//! The processing loop is pull-based: callers repeatedly invoke
//! [`Engine::next_wakeup`], dispatch on the tag, and start new activities.
//! Everything is single-threaded and deterministic.

use crate::fluid::{Demand, FluidNet, FluidStats, ResourceKind};
use crate::ids::{ActivityId, BatchId, FlowId, ResourceId, Tag, TimerId};
use crate::persist::{Decoder, Encoder, Persist};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Name, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// One stage of an activity chain.
#[derive(Debug, Clone)]
pub enum Step {
    /// Drain `work` units through `demands` under max-min sharing.
    Flow {
        /// Resources consumed, with weights.
        demands: Vec<Demand>,
        /// Amount of work (bytes, cycles, ...).
        work: f64,
    },
    /// Pure latency: occupy no resource for a fixed span.
    Delay(SimDuration),
}

/// An ordered list of steps; the unit of work submission.
#[derive(Debug, Clone, Default)]
pub struct ChainSpec {
    /// Steps executed front to back.
    pub steps: Vec<Step>,
}

impl ChainSpec {
    /// Empty chain (completes immediately when started).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a flow step.
    pub fn flow(mut self, demands: Vec<Demand>, work: f64) -> Self {
        self.steps.push(Step::Flow { demands, work });
        self
    }

    /// Appends a single-resource unit-weight flow step.
    pub fn on(self, resource: ResourceId, work: f64) -> Self {
        self.flow(vec![Demand::unit(resource)], work)
    }

    /// Appends a latency step.
    pub fn delay(mut self, d: SimDuration) -> Self {
        self.steps.push(Step::Delay(d));
        self
    }

    /// Concatenates another chain's steps after this one's.
    pub fn then(mut self, mut other: ChainSpec) -> Self {
        self.steps.append(&mut other.steps);
        self
    }

    /// True when the chain has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// A completion surfaced to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wakeup {
    /// A timer fired.
    Timer {
        /// Handle returned by `set_timer_*`.
        id: TimerId,
        /// Client routing tag.
        tag: Tag,
    },
    /// An activity (chain) ran all its steps.
    Activity {
        /// Handle returned by `start_chain`/`start_batch`.
        id: ActivityId,
        /// Client routing tag.
        tag: Tag,
        /// Batch this chain belonged to, if any.
        batch: Option<BatchId>,
    },
    /// Every member of a batch completed (or was cancelled).
    Batch {
        /// Handle returned by `start_batch`.
        id: BatchId,
        /// Client routing tag.
        tag: Tag,
    },
}

crate::persist_enum!(Step { 0 => Flow { demands, work }, 1 => Delay(duration) });
crate::persist_enum!(Wakeup {
    0 => Timer { id, tag },
    1 => Activity { id, tag, batch },
    2 => Batch { id, tag },
});

impl Wakeup {
    /// The routing tag regardless of variant.
    pub fn tag(&self) -> Tag {
        match self {
            Wakeup::Timer { tag, .. }
            | Wakeup::Activity { tag, .. }
            | Wakeup::Batch { tag, .. } => *tag,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    FluidWake { epoch: u64 },
    Timer { id: TimerId },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

crate::persist_enum!(Ev { 0 => FluidWake { epoch }, 1 => Timer { id } });
crate::persist_struct!(Entry { time, seq, ev });

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
enum Current {
    Idle,
    Flow(FlowId),
    Delay(TimerId),
}

#[derive(Debug)]
struct Activity {
    remaining: VecDeque<Step>,
    current: Current,
    tag: Tag,
    batch: Option<BatchId>,
}

crate::persist_enum!(Current { 0 => Idle, 1 => Flow(flow), 2 => Delay(timer) });
crate::persist_struct!(Activity { remaining, current, tag, batch });

#[derive(Debug, Clone, Copy)]
enum TimerKind {
    User { tag: Tag },
    ChainDelay { activity: ActivityId },
}

#[derive(Debug)]
struct Batch {
    tag: Tag,
    pending: usize,
}

crate::persist_struct!(Batch { tag, pending });

/// Cumulative kernel-level work counters exposed by
/// [`Engine::kernel_stats`] — the fluid solver's [`FluidStats`] plus event
/// queue health. Machine-speed independent: platbench reports them per
/// workload and `batching_counts_on_iterative_waves` pins them exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Fluid reallocation passes that found dirty state.
    pub reallocations: u64,
    /// Flows re-solved, summed over all reallocations.
    pub flows_touched: u64,
    /// Resources visited, summed over all reallocations.
    pub resources_touched: u64,
    /// Mutations absorbed by coalesced reallocation passes (batched event
    /// application; see [`FluidStats::batch_applied`]).
    pub batch_applied: u64,
    /// p50 of re-solved component flow counts (lifetime histogram).
    pub comp_size_p50: u64,
    /// p99 of re-solved component flow counts.
    pub comp_size_p99: u64,
    /// Largest component ever re-solved (see [`FluidStats::comp_size_max`]).
    pub comp_size_max: u64,
    /// Current completion-index heap length (live + stale).
    pub completion_heap_len: usize,
    /// Current event heap length (live + tombstoned entries).
    pub event_heap_len: usize,
    /// Cancelled-timer tombstones currently in the event heap.
    pub dead_timers: usize,
    /// Flow-arena slot count (live + free — occupancy is
    /// `flows_touched`-independent arena footprint).
    pub flow_arena_slots: usize,
    /// Timer-arena slot count (live + free).
    pub timer_arena_slots: usize,
    /// Total wakeups delivered so far.
    pub wakeups: u64,
}

/// Tombstone compaction floor: never rebuild the event heap for fewer dead
/// entries than this (rebuilds are O(heap) — only worth it at scale).
/// Compaction triggers at `dead > max(MIN, live/4)`: proportional to the
/// live population, so a 16k-VM heap is not rebuilt every 64 cancellations.
const DEAD_TIMER_COMPACT_MIN: usize = 64;

/// One slot of the timer arena: the current generation plus the armed
/// timer, if any. `kind == None` means the slot is on the free list.
#[derive(Debug, Clone, Copy)]
struct TimerSlot {
    gen: u32,
    kind: Option<TimerKind>,
}

// codec by hand: `kind` is one tag byte with 0 for a free slot, not an `Option` prefix
impl Persist for TimerSlot {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.gen);
        match self.kind {
            None => e.u8(0),
            Some(TimerKind::User { tag }) => {
                e.u8(1);
                tag.encode(e);
            }
            Some(TimerKind::ChainDelay { activity }) => {
                e.u8(2);
                activity.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        let gen = d.u32();
        let kind = match d.u8() {
            0 => None,
            1 => Some(TimerKind::User { tag: Tag::decode(d) }),
            2 => Some(TimerKind::ChainDelay { activity: ActivityId::decode(d) }),
            other => d.unknown_tag("TimerKind", other),
        };
        TimerSlot { gen, kind }
    }
}

/// The simulation engine. See the module docs for the programming model.
#[derive(Debug)]
pub struct Engine {
    now: SimTime,
    fluid: FluidNet,
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
    epoch: u64,
    flow_owner: HashMap<FlowId, ActivityId>,
    activities: HashMap<ActivityId, Activity>,
    next_activity: u64,
    /// Timer arena: dense slots with generation-stamped handles and a free
    /// list, replacing the former `HashMap<TimerId, TimerKind>` + counter
    /// (no hashing on the hot arm/fire path, stable memory at scale).
    timer_slots: Vec<TimerSlot>,
    timer_free: Vec<u32>,
    timer_live: usize,
    batches: HashMap<BatchId, Batch>,
    next_batch: u64,
    out: VecDeque<(SimTime, Wakeup)>,
    /// Total wakeups delivered; useful for tests and progress telemetry.
    wakeups_delivered: u64,
    /// Cancelled timers whose heap entry has not yet popped or been
    /// compacted away.
    dead_timers: usize,
    tracer: Tracer,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Fresh engine at t = 0 with an empty fluid network.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            fluid: FluidNet::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            epoch: 0,
            flow_owner: HashMap::new(),
            activities: HashMap::new(),
            next_activity: 0,
            timer_slots: Vec::new(),
            timer_free: Vec::new(),
            timer_live: 0,
            batches: HashMap::new(),
            next_batch: 0,
            out: VecDeque::new(),
            wakeups_delivered: 0,
            dead_timers: 0,
            tracer: Tracer::new(),
        }
    }

    /// Current simulation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Registers a fluid resource (see [`FluidNet::add_resource`]).
    pub fn add_resource(
        &mut self,
        name: impl Into<String>,
        kind: ResourceKind,
        capacity: f64,
    ) -> ResourceId {
        self.fluid.add_resource(name, kind, capacity)
    }

    /// Read access to the fluid network (utilization queries, monitors).
    pub fn fluid(&self) -> &FluidNet {
        &self.fluid
    }

    /// Changes a resource's capacity from this instant on.
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) {
        self.sync_fluid_clock();
        self.fluid.set_capacity(r, capacity);
    }

    /// True while anything is still to happen: a live activity, an armed
    /// timer, or a wakeup not yet delivered. A timer being handled right
    /// now is no longer armed, so a periodic observer asks this to learn
    /// whether anything besides itself is pending.
    pub fn in_flight(&self) -> bool {
        !self.activities.is_empty() || self.timer_live > 0 || !self.out.is_empty()
    }

    /// Total wakeups delivered so far.
    pub fn wakeups_delivered(&self) -> u64 {
        self.wakeups_delivered
    }

    /// Current event-heap length (live entries + not-yet-compacted
    /// tombstones); regression tests pin this after mass cancellation.
    pub fn event_heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Snapshot of the kernel work counters (see [`KernelStats`]).
    pub fn kernel_stats(&self) -> KernelStats {
        let FluidStats {
            reallocations,
            flows_touched,
            resources_touched,
            batch_applied,
            comp_size_p50,
            comp_size_p99,
            comp_size_max,
            completion_heap_len,
        } = self.fluid.stats();
        KernelStats {
            reallocations,
            flows_touched,
            resources_touched,
            batch_applied,
            comp_size_p50,
            comp_size_p99,
            comp_size_max,
            completion_heap_len,
            event_heap_len: self.heap.len(),
            dead_timers: self.dead_timers,
            flow_arena_slots: self.fluid.flow_arena_slots(),
            timer_arena_slots: self.timer_slots.len(),
            wakeups: self.wakeups_delivered,
        }
    }

    // ----- tracing --------------------------------------------------------

    /// Read access to the tracer (exports, queries).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer (enable/disable, interning).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Records a complete span ending at the current instant. No-op while
    /// tracing is disabled.
    pub fn trace_span(
        &mut self,
        cat: &'static str,
        name: &'static str,
        track: u32,
        start: SimTime,
        args: &[(&'static str, f64)],
    ) {
        self.tracer.span(cat, name, track, start, self.now, args);
    }

    /// Records a counter sample at the current instant under a pre-interned
    /// name. No-op while tracing is disabled.
    pub fn trace_counter(&mut self, name: Name, value: f64) {
        self.tracer.counter(name, self.now, value);
    }

    // ----- timers ---------------------------------------------------------

    /// Fires a [`Wakeup::Timer`] at the absolute instant `at` (clamped to
    /// "now" if already past).
    pub fn set_timer_at(&mut self, at: SimTime, tag: Tag) -> TimerId {
        let at = at.max(self.now);
        let id = self.alloc_timer(TimerKind::User { tag });
        self.push_entry(at, Ev::Timer { id });
        id
    }

    /// Fires a [`Wakeup::Timer`] after `d`.
    pub fn set_timer_in(&mut self, d: SimDuration, tag: Tag) -> TimerId {
        self.set_timer_at(self.now + d, tag)
    }

    /// Cancels a pending timer. Returns `false` if it already fired or was
    /// cancelled.
    ///
    /// The heap entry becomes a tombstone; once tombstones outnumber live
    /// timers (fault/timeout churn), the heap is rebuilt without them, so
    /// mass cancellation cannot grow the event queue without bound.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        let cancelled = self.free_timer(id).is_some();
        if cancelled {
            self.note_dead_timer();
        }
        cancelled
    }

    /// Allocates a timer-arena slot holding `kind` and returns its
    /// generation-stamped handle.
    fn alloc_timer(&mut self, kind: TimerKind) -> TimerId {
        self.timer_live += 1;
        if let Some(slot) = self.timer_free.pop() {
            let s = &mut self.timer_slots[slot as usize];
            debug_assert!(s.kind.is_none(), "free list held a live slot");
            s.kind = Some(kind);
            TimerId { slot, gen: s.gen }
        } else {
            let slot = self.timer_slots.len() as u32;
            self.timer_slots.push(TimerSlot { gen: 0, kind: Some(kind) });
            TimerId { slot, gen: 0 }
        }
    }

    /// Frees the slot behind `id` if the handle is still current, returning
    /// the armed kind. The generation bump makes every outstanding copy of
    /// the handle — including the not-yet-popped heap entry — stale, so a
    /// recycled slot can never be reached through an old id (ABA safety).
    fn free_timer(&mut self, id: TimerId) -> Option<TimerKind> {
        let s = self.timer_slots.get_mut(id.slot as usize)?;
        if s.gen != id.gen || s.kind.is_none() {
            return None;
        }
        let kind = s.kind.take();
        s.gen = s.gen.wrapping_add(1);
        self.timer_free.push(id.slot);
        self.timer_live -= 1;
        kind
    }

    /// True while the timer behind `id` is still armed.
    fn timer_is_live(&self, id: TimerId) -> bool {
        self.timer_slots.get(id.slot as usize).is_some_and(|s| s.gen == id.gen && s.kind.is_some())
    }

    /// Accounts one new tombstone and compacts the event heap when dead
    /// entries outgrow `max(DEAD_TIMER_COMPACT_MIN, live/4)` — proportional
    /// to the live population so large heaps are not rebuilt constantly,
    /// floored so small ones are not rebuilt pointlessly.
    fn note_dead_timer(&mut self) {
        self.dead_timers += 1;
        if self.dead_timers <= DEAD_TIMER_COMPACT_MIN.max(self.timer_live / 4) {
            return;
        }
        let epoch = self.epoch;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|&Reverse(e)| match e.ev {
            Ev::Timer { id } => self.timer_is_live(id),
            Ev::FluidWake { epoch: e } => e == epoch,
        });
        self.heap = BinaryHeap::from(entries);
        self.dead_timers = 0;
    }

    // ----- activities -----------------------------------------------------

    /// Starts a chain. An empty chain completes at the current instant.
    pub fn start_chain(&mut self, spec: ChainSpec, tag: Tag) -> ActivityId {
        self.spawn_chain(spec, tag, None)
    }

    /// Starts a single fluid flow as a one-step chain.
    pub fn start_flow(&mut self, demands: Vec<Demand>, work: f64, tag: Tag) -> ActivityId {
        self.start_chain(ChainSpec::new().flow(demands, work), tag)
    }

    /// Starts `members` concurrently and emits a [`Wakeup::Batch`] with
    /// `batch_tag` once every member has completed (each member also emits
    /// its own [`Wakeup::Activity`]). An empty batch completes immediately.
    pub fn start_batch(&mut self, members: Vec<(ChainSpec, Tag)>, batch_tag: Tag) -> BatchId {
        let id = BatchId(self.next_batch);
        self.next_batch += 1;
        if members.is_empty() {
            self.out.push_back((self.now, Wakeup::Batch { id, tag: batch_tag }));
            return id;
        }
        self.batches.insert(id, Batch { tag: batch_tag, pending: members.len() });
        for (spec, tag) in members {
            self.spawn_chain(spec, tag, Some(id));
        }
        id
    }

    /// Cancels an in-flight activity, dropping its remaining steps. A
    /// cancelled batch member counts as completed for the join (speculative
    ///-execution semantics: killing the loser must not wedge the job).
    /// Returns `false` for unknown/finished activities.
    pub fn cancel_activity(&mut self, id: ActivityId) -> bool {
        let Some(act) = self.activities.remove(&id) else {
            return false;
        };
        match act.current {
            Current::Flow(f) => {
                // Only mark dirty: the reallocation is coalesced with any
                // other pending mutations at the next `next_wakeup` pass
                // (batched event application).
                self.sync_fluid_clock();
                self.fluid.remove_flow(f);
                self.flow_owner.remove(&f);
            }
            Current::Delay(t) => {
                if self.free_timer(t).is_some() {
                    self.note_dead_timer();
                }
            }
            Current::Idle => {}
        }
        if let Some(b) = act.batch {
            self.batch_member_done(b);
        }
        true
    }

    /// True if `id` is still running.
    pub fn is_active(&self, id: ActivityId) -> bool {
        self.activities.contains_key(&id)
    }

    // ----- main loop ------------------------------------------------------

    /// Advances the simulation to the next client-visible completion and
    /// returns it, or `None` when nothing remains scheduled.
    pub fn next_wakeup(&mut self) -> Option<(SimTime, Wakeup)> {
        loop {
            if let Some((t, w)) = self.out.pop_front() {
                self.wakeups_delivered += 1;
                return Some((t, w));
            }
            // Client calls may have dirtied the allocation since the last
            // pass; refresh before consulting the heap.
            self.refresh_fluid();

            let Reverse(entry) = self.heap.pop()?;
            debug_assert!(entry.time >= self.now, "event heap went backwards");
            match entry.ev {
                Ev::Timer { id } => {
                    let Some(kind) = self.free_timer(id) else {
                        // Tombstone of a cancelled timer drained naturally.
                        self.dead_timers = self.dead_timers.saturating_sub(1);
                        continue;
                    };
                    self.now = entry.time;
                    match kind {
                        TimerKind::User { tag } => {
                            self.out.push_back((self.now, Wakeup::Timer { id, tag }));
                        }
                        TimerKind::ChainDelay { activity } => {
                            self.step_done(activity);
                        }
                    }
                }
                Ev::FluidWake { epoch } => {
                    if epoch != self.epoch {
                        continue; // stale completion estimate
                    }
                    self.now = entry.time;
                    self.fluid.advance_to(self.now);
                    let finished = self.fluid.take_finished();
                    if finished.is_empty() {
                        // Accumulated floating-point error left a sliver of
                        // work: re-estimate and wake again (1 ns later at
                        // worst).
                        self.epoch += 1;
                        if let Some(t) = self.fluid.earliest_completion() {
                            let epoch = self.epoch;
                            let t = t.max(self.now + crate::time::SimDuration::from_nanos(1));
                            self.push_entry(t, Ev::FluidWake { epoch });
                        }
                        continue;
                    }
                    for fin in finished {
                        let act = self
                            .flow_owner
                            .remove(&fin.id)
                            .expect("finished flow must belong to an activity");
                        self.step_done(act);
                    }
                    // No refresh here: every mutation the completions above
                    // caused (chains advancing into new flows, removals) is
                    // applied in one coalesced pass at the top of the loop.
                }
            }
        }
    }

    /// Drains the simulation until no events remain; returns the number of
    /// wakeups discarded. Useful in tests and fire-and-forget phases.
    pub fn run_to_quiescence(&mut self) -> usize {
        let mut n = 0;
        while self.next_wakeup().is_some() {
            n += 1;
        }
        n
    }

    // ----- persistence (DESIGN.md §16) ------------------------------------

    /// Compacts every lazily-deferred structure: cancelled-timer tombstones
    /// in the event heap, stale fluid-wake entries of superseded epochs,
    /// and the fluid completion index. Two byte-identical simulation states
    /// then encode to byte-identical snapshots regardless of how much
    /// garbage each happened to accumulate. Observable behavior is
    /// unchanged — all removed entries would have been skipped on pop.
    pub fn canonicalize(&mut self) {
        let epoch = self.epoch;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|&Reverse(en)| match en.ev {
            Ev::Timer { id } => self.timer_is_live(id),
            Ev::FluidWake { epoch: e } => e == epoch,
        });
        self.heap = BinaryHeap::from(entries);
        self.dead_timers = 0;
        self.fluid.canonicalize();
    }

    /// Appends the complete engine state — clock, fluid network, event
    /// heap, activities, timers, batches, pending wakeups, and tracer — to
    /// `e`, canonicalizing first. The heap is written as a sorted vector and
    /// maps in ascending key order, so equal states produce equal bytes.
    pub fn encode_state(&mut self, e: &mut Encoder) {
        self.canonicalize();
        self.now.encode(e);
        self.fluid.encode_state(e);
        let mut heap: Vec<Entry> = self.heap.iter().map(|&Reverse(en)| en).collect();
        heap.sort_unstable();
        heap.encode(e);
        self.seq.encode(e);
        self.epoch.encode(e);
        self.flow_owner.encode(e);
        self.activities.encode(e);
        self.next_activity.encode(e);
        self.timer_slots.encode(e);
        self.timer_free.encode(e);
        self.batches.encode(e);
        self.next_batch.encode(e);
        self.out.encode(e);
        self.wakeups_delivered.encode(e);
        self.tracer.encode(e);
    }

    /// Rebuilds an engine from bytes written by [`Engine::encode_state`].
    /// The rebuilt engine delivers the exact same wakeup sequence as the
    /// original: heap entries keep their `(time, seq)` total order, so pop
    /// order is independent of the heap's internal array layout.
    // codec by hand: canonical heap order, and the fluid arena and the live-timer count are rebuilt
    pub fn decode_state(d: &mut Decoder) -> Engine {
        let mut engine = Engine {
            now: Persist::decode(d),
            fluid: FluidNet::decode_state(d),
            heap: Vec::<Entry>::decode(d).into_iter().map(Reverse).collect(),
            seq: Persist::decode(d),
            epoch: Persist::decode(d),
            flow_owner: Persist::decode(d),
            activities: Persist::decode(d),
            next_activity: Persist::decode(d),
            timer_slots: Persist::decode(d),
            timer_free: Persist::decode(d),
            timer_live: 0,
            batches: Persist::decode(d),
            next_batch: Persist::decode(d),
            out: Persist::decode(d),
            wakeups_delivered: Persist::decode(d),
            dead_timers: 0,
            tracer: Persist::decode(d),
        };
        engine.timer_live = engine.timer_slots.iter().filter(|s| s.kind.is_some()).count();
        engine
    }

    // ----- internals ------------------------------------------------------

    fn push_entry(&mut self, time: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, ev }));
    }

    /// Brings the fluid clock up to "now" so mutations integrate correctly.
    fn sync_fluid_clock(&mut self) {
        if self.fluid.now() < self.now {
            self.fluid.advance_to(self.now);
        }
    }

    /// If the allocation is dirty, recompute it and schedule the next
    /// completion estimate under a fresh epoch.
    fn refresh_fluid(&mut self) {
        if !self.fluid.is_dirty() {
            return;
        }
        self.sync_fluid_clock();
        self.fluid.reallocate();
        self.epoch += 1;
        if let Some(t) = self.fluid.earliest_completion() {
            let epoch = self.epoch;
            self.push_entry(t.max(self.now), Ev::FluidWake { epoch });
        }
    }

    fn spawn_chain(&mut self, spec: ChainSpec, tag: Tag, batch: Option<BatchId>) -> ActivityId {
        let id = ActivityId(self.next_activity);
        self.next_activity += 1;
        self.activities.insert(
            id,
            Activity { remaining: spec.steps.into(), current: Current::Idle, tag, batch },
        );
        self.advance_activity(id);
        id
    }

    /// Current step completed: start the next one or finish the chain.
    fn step_done(&mut self, id: ActivityId) {
        if let Some(act) = self.activities.get_mut(&id) {
            act.current = Current::Idle;
        }
        self.advance_activity(id);
    }

    fn advance_activity(&mut self, id: ActivityId) {
        let step = match self.activities.get_mut(&id) {
            Some(act) => {
                debug_assert!(matches!(act.current, Current::Idle));
                act.remaining.pop_front()
            }
            None => return,
        };
        match step {
            Some(Step::Flow { demands, work }) => {
                // Dirty-mark only; the solve is coalesced into the next
                // `next_wakeup` refresh with any sibling mutations.
                self.sync_fluid_clock();
                let f = self.fluid.add_flow(demands, work);
                self.activities.get_mut(&id).expect("just checked").current = Current::Flow(f);
                self.flow_owner.insert(f, id);
            }
            Some(Step::Delay(d)) => {
                let tid = self.alloc_timer(TimerKind::ChainDelay { activity: id });
                self.activities.get_mut(&id).expect("just checked").current = Current::Delay(tid);
                let at = self.now + d;
                self.push_entry(at, Ev::Timer { id: tid });
            }
            None => {
                let act = self.activities.remove(&id).expect("just checked");
                self.out
                    .push_back((self.now, Wakeup::Activity { id, tag: act.tag, batch: act.batch }));
                if let Some(b) = act.batch {
                    self.batch_member_done(b);
                }
            }
        }
    }

    fn batch_member_done(&mut self, b: BatchId) {
        let done = {
            let batch = self.batches.get_mut(&b).expect("member of unknown batch");
            batch.pending -= 1;
            batch.pending == 0
        };
        if done {
            let batch = self.batches.remove(&b).expect("present");
            self.out.push_back((self.now, Wakeup::Batch { id: b, tag: batch.tag }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u32 = 7;

    /// Decodes a `T` from `body` written after a valid snapshot header.
    fn decode_body<T: Persist>(body: &[u8]) -> T {
        let mut bytes = Encoder::new().finish();
        bytes.extend_from_slice(body);
        T::decode(&mut Decoder::new(&bytes))
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown Ev tag 2 at byte 26")]
    fn heap_entry_rejects_an_unknown_event_tag() {
        decode_body::<Entry>(&[0; 16].into_iter().chain([2]).collect::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown Step tag 2 at byte 10")]
    fn step_rejects_an_unknown_tag() {
        decode_body::<Step>(&[2]);
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown Current tag 3 at byte 10")]
    fn current_rejects_an_unknown_tag() {
        decode_body::<Current>(&[3]);
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown TimerKind tag 3 at byte 14")]
    fn timer_slot_rejects_an_unknown_kind_tag() {
        decode_body::<TimerSlot>(&[1, 0, 0, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown Wakeup tag 3 at byte 10")]
    fn wakeup_rejects_an_unknown_tag() {
        decode_body::<Wakeup>(&[3]);
    }

    fn engine1() -> (Engine, ResourceId) {
        let mut e = Engine::new();
        let r = e.add_resource("link", ResourceKind::Net, 100.0);
        (e, r)
    }

    #[test]
    fn single_flow_completes_on_time() {
        let (mut e, r) = engine1();
        let a = e.start_flow(vec![Demand::unit(r)], 500.0, Tag::new(T, 1, 0));
        let (t, w) = e.next_wakeup().expect("completion");
        assert_eq!(t.as_secs_f64().round() as u64, 5);
        match w {
            Wakeup::Activity { id, tag, batch } => {
                assert_eq!(id, a);
                assert_eq!(tag, Tag::new(T, 1, 0));
                assert!(batch.is_none());
            }
            other => panic!("unexpected wakeup {other:?}"),
        }
        assert!(e.next_wakeup().is_none());
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // Two equal flows of 100 work on a 100-cap link: both finish at 2s
        // (each runs at 50). With unequal work, the shorter finishes, the
        // longer speeds up.
        let (mut e, r) = engine1();
        e.start_flow(vec![Demand::unit(r)], 100.0, Tag::new(T, 1, 0));
        e.start_flow(vec![Demand::unit(r)], 300.0, Tag::new(T, 2, 0));
        let (t1, w1) = e.next_wakeup().unwrap();
        assert_eq!(w1.tag().a, 1);
        assert!((t1.as_secs_f64() - 2.0).abs() < 1e-6, "short flow at 2s, got {t1}");
        // Long flow: 2s at 50 (100 done) + remaining 200 at 100 = 2 more s.
        let (t2, w2) = e.next_wakeup().unwrap();
        assert_eq!(w2.tag().a, 2);
        assert!((t2.as_secs_f64() - 4.0).abs() < 1e-6, "long flow at 4s, got {t2}");
    }

    #[test]
    fn chain_runs_steps_sequentially() {
        let (mut e, r) = engine1();
        let spec = ChainSpec::new()
            .on(r, 100.0) // 1s
            .delay(SimDuration::from_millis(500))
            .on(r, 200.0); // 2s
        e.start_chain(spec, Tag::new(T, 9, 0));
        let (t, _) = e.next_wakeup().unwrap();
        assert!((t.as_secs_f64() - 3.5).abs() < 1e-6, "chain end at 3.5s, got {t}");
    }

    #[test]
    fn empty_chain_completes_immediately() {
        let (mut e, _r) = engine1();
        e.start_chain(ChainSpec::new(), Tag::new(T, 1, 0));
        let (t, w) = e.next_wakeup().unwrap();
        assert_eq!(t, SimTime::ZERO);
        assert!(matches!(w, Wakeup::Activity { .. }));
    }

    #[test]
    fn batch_joins_members() {
        let (mut e, r) = engine1();
        let members = vec![
            (ChainSpec::new().on(r, 100.0), Tag::new(T, 1, 0)),
            (ChainSpec::new().on(r, 100.0), Tag::new(T, 2, 0)),
            (ChainSpec::new().on(r, 400.0), Tag::new(T, 3, 0)),
        ];
        let b = e.start_batch(members, Tag::new(T, 99, 0));
        let mut member_tags = Vec::new();
        let mut batch_at = None;
        while let Some((t, w)) = e.next_wakeup() {
            match w {
                Wakeup::Activity { tag, batch, .. } => {
                    assert_eq!(batch, Some(b));
                    member_tags.push(tag.a);
                }
                Wakeup::Batch { id, tag } => {
                    assert_eq!(id, b);
                    assert_eq!(tag.a, 99);
                    batch_at = Some(t);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(member_tags.len(), 3);
        // Batch completes when the largest member does: 3 flows at ~33.3
        // until 100-work ones finish at 3s, then 400-work has 300 left at
        // 100/s -> 6s total.
        let t = batch_at.expect("batch completed").as_secs_f64();
        assert!((t - 6.0).abs() < 1e-6, "batch at 6s, got {t}");
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let (mut e, _r) = engine1();
        let b = e.start_batch(vec![], Tag::new(T, 1, 0));
        let (t, w) = e.next_wakeup().unwrap();
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(w, Wakeup::Batch { id: b, tag: Tag::new(T, 1, 0) });
    }

    #[test]
    fn timer_fires_and_cancels() {
        let (mut e, _r) = engine1();
        let t1 = e.set_timer_in(SimDuration::from_secs(1), Tag::new(T, 1, 0));
        let t2 = e.set_timer_in(SimDuration::from_secs(2), Tag::new(T, 2, 0));
        assert!(e.cancel_timer(t2));
        assert!(!e.cancel_timer(t2), "double cancel rejected");
        let (at, w) = e.next_wakeup().unwrap();
        assert_eq!(at, SimTime::from_secs(1));
        assert_eq!(w, Wakeup::Timer { id: t1, tag: Tag::new(T, 1, 0) });
        assert!(e.next_wakeup().is_none());
    }

    #[test]
    fn in_flight_sees_activities_timers_and_undelivered_wakeups() {
        let (mut e, r) = engine1();
        assert!(!e.in_flight(), "a fresh engine has nothing pending");
        // A cancelled timer leaves a tombstone in the heap, not pending work.
        let t = e.set_timer_in(SimDuration::from_secs(1), Tag::new(T, 1, 0));
        assert!(e.in_flight());
        e.cancel_timer(t);
        assert!(!e.in_flight());
        e.start_flow(vec![Demand::unit(r)], 100.0, Tag::new(T, 2, 0));
        assert!(e.in_flight(), "the flow is running");
        e.start_flow(vec![Demand::unit(r)], 100.0, Tag::new(T, 3, 0));
        e.next_wakeup().expect("both flows complete at one instant");
        assert!(e.in_flight(), "the second completion is not delivered yet");
        e.next_wakeup().expect("second completion");
        assert!(!e.in_flight());
        // Two same-instant timers: while the first is handled, the second
        // is still armed.
        e.set_timer_in(SimDuration::from_secs(1), Tag::new(T, 4, 0));
        e.set_timer_in(SimDuration::from_secs(1), Tag::new(T, 5, 0));
        e.next_wakeup().expect("first timer");
        assert!(e.in_flight());
        e.next_wakeup().expect("second timer");
        assert!(!e.in_flight());
    }

    #[test]
    fn cancel_activity_frees_capacity() {
        let (mut e, r) = engine1();
        let victim = e.start_flow(vec![Demand::unit(r)], 1_000.0, Tag::new(T, 1, 0));
        e.start_flow(vec![Demand::unit(r)], 100.0, Tag::new(T, 2, 0));
        assert!(e.cancel_activity(victim));
        assert!(!e.is_active(victim));
        // Survivor now gets the whole link: 100 work at 100/s = 1s.
        let (t, w) = e.next_wakeup().unwrap();
        assert_eq!(w.tag().a, 2);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cancelled_batch_member_still_joins() {
        let (mut e, r) = engine1();
        let b = e.start_batch(
            vec![
                (ChainSpec::new().on(r, 100.0), Tag::new(T, 1, 0)),
                (ChainSpec::new().on(r, 10_000.0), Tag::new(T, 2, 0)),
            ],
            Tag::new(T, 9, 0),
        );
        // Cancel the slow member: batch must complete when the fast one does.
        // Find its ActivityId by cancelling the second spawned activity.
        // Activities are numbered in spawn order: 0 and 1.
        assert!(e.cancel_activity(ActivityId(1)));
        let mut saw_batch = false;
        while let Some((t, w)) = e.next_wakeup() {
            if let Wakeup::Batch { id, .. } = w {
                assert_eq!(id, b);
                assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
                saw_batch = true;
            }
        }
        assert!(saw_batch);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut e, r) = engine1();
            for i in 0..20u32 {
                e.start_flow(vec![Demand::unit(r)], 50.0 + f64::from(i) * 13.0, Tag::new(T, i, 0));
            }
            let mut trace = Vec::new();
            while let Some((t, w)) = e.next_wakeup() {
                trace.push((t.as_nanos(), w.tag().a));
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn delay_only_chain() {
        let (mut e, _r) = engine1();
        e.start_chain(
            ChainSpec::new().delay(SimDuration::from_secs(1)).delay(SimDuration::from_secs(2)),
            Tag::new(T, 5, 0),
        );
        let (t, _) = e.next_wakeup().unwrap();
        assert_eq!(t, SimTime::from_secs(3));
    }

    #[test]
    fn mass_timer_cancellation_compacts_heap() {
        let (mut e, _r) = engine1();
        // Arm a large far-future timer population, then cancel all of it:
        // the tombstoned heap must shrink instead of holding every entry
        // until its (never-delivered) pop time.
        let ids: Vec<_> = (0..10_000u64)
            .map(|i| e.set_timer_in(SimDuration::from_secs(1_000 + i), Tag::new(T, i as u32, 0)))
            .collect();
        let full = e.event_heap_len();
        assert_eq!(full, 10_000);
        for id in ids {
            assert!(e.cancel_timer(id));
        }
        let after = e.event_heap_len();
        assert!(after < full / 10, "heap compacted: {after} entries left of {full}");
        assert_eq!(e.kernel_stats().dead_timers, after);
        assert!(e.next_wakeup().is_none(), "no cancelled timer ever fires");
    }

    #[test]
    fn timer_compaction_threshold_scales_with_live_population() {
        let (mut e, _r) = engine1();
        let ids: Vec<_> = (0..10_000u64)
            .map(|i| e.set_timer_in(SimDuration::from_secs(1_000 + i), Tag::new(T, i as u32, 0)))
            .collect();
        // Below the proportional threshold (live/4) nothing is rebuilt even
        // though the absolute floor (64) is long past.
        for id in &ids[..2_000] {
            assert!(e.cancel_timer(*id));
        }
        assert_eq!(e.event_heap_len(), 10_000, "dead=2000 <= live/4=2000: no rebuild");
        assert_eq!(e.kernel_stats().dead_timers, 2_000);
        // One more cancellation tips dead over live/4 and compacts.
        assert!(e.cancel_timer(ids[2_000]));
        assert_eq!(e.event_heap_len(), 7_999);
        assert_eq!(e.kernel_stats().dead_timers, 0);
    }

    #[test]
    fn timer_arena_reuse_rejects_stale_handles() {
        let (mut e, _r) = engine1();
        let a = e.set_timer_in(SimDuration::from_secs(1), Tag::new(T, 1, 0));
        assert!(e.cancel_timer(a));
        // The slot is recycled under a bumped generation: the stale handle
        // must not be able to cancel the newborn timer (ABA).
        let b = e.set_timer_in(SimDuration::from_secs(2), Tag::new(T, 2, 0));
        assert_eq!(a.slot, b.slot, "slot recycled through the free list");
        assert_ne!(a.gen, b.gen, "generation advanced on free");
        assert!(!e.cancel_timer(a), "stale handle rejected");
        let (at, w) = e.next_wakeup().unwrap();
        assert_eq!(at, SimTime::from_secs(2));
        assert_eq!(w, Wakeup::Timer { id: b, tag: Tag::new(T, 2, 0) });
        assert!(e.next_wakeup().is_none());
        assert_eq!(e.kernel_stats().timer_arena_slots, 1, "one slot serves both timers");
    }

    #[test]
    fn snapshot_mid_run_replays_identically() {
        // Drive a mixed workload halfway, snapshot, and check the restored
        // engine delivers the exact remaining wakeup sequence.
        let build = || {
            let (mut e, r) = engine1();
            let r2 = e.add_resource("link2", ResourceKind::Net, 40.0);
            e.tracer_mut().set_enabled(true);
            for i in 0..10u32 {
                let res = if i % 2 == 0 { r } else { r2 };
                let spec = ChainSpec::new()
                    .on(res, 50.0 + f64::from(i) * 13.0)
                    .delay(SimDuration::from_millis(u64::from(i) * 7))
                    .on(res, 25.0);
                e.start_chain(spec, Tag::new(T, i, 0));
            }
            e.set_timer_in(SimDuration::from_secs(2), Tag::new(T, 100, 0));
            let dead = e.set_timer_in(SimDuration::from_secs(3), Tag::new(T, 101, 0));
            e.cancel_timer(dead);
            e
        };
        let mut control = build();
        let mut original = build();
        for _ in 0..5 {
            control.next_wakeup();
            original.next_wakeup();
        }
        let mut enc = Encoder::new();
        original.encode_state(&mut enc);
        let bytes = enc.finish();
        let mut restored = Engine::decode_state(&mut Decoder::new(&bytes));
        let drain = |e: &mut Engine| {
            let mut tail = Vec::new();
            while let Some((t, w)) = e.next_wakeup() {
                tail.push((t.as_nanos(), w.tag()));
            }
            tail
        };
        assert_eq!(drain(&mut restored), drain(&mut control));
        assert_eq!(restored.now(), control.now());
        assert_eq!(restored.wakeups_delivered(), control.wakeups_delivered());
        assert_eq!(restored.tracer().to_chrome_json(), control.tracer().to_chrome_json());
    }

    #[test]
    fn canonicalized_snapshots_of_equal_states_are_byte_identical() {
        // One engine accumulates timer tombstones, the other never had
        // them; after cancellation both describe the same state and must
        // encode to the same bytes.
        let (mut clean, _r) = engine1();
        let (mut dirty, _r2) = engine1();
        for i in 0..10u64 {
            // Keep id allocation identical: both engines arm every timer,
            // but `dirty` cancels the odd ones while `clean` never arms
            // odd entries... ids would diverge, so instead both arm and
            // both cancel — `dirty` simply carries extra *stale fluid*
            // churn that canonicalization must erase.
            let id = clean.set_timer_in(SimDuration::from_secs(100 + i), Tag::new(T, i as u32, 0));
            let id2 = dirty.set_timer_in(SimDuration::from_secs(100 + i), Tag::new(T, i as u32, 0));
            if i % 2 == 1 {
                clean.cancel_timer(id);
                dirty.cancel_timer(id2);
            }
        }
        // Extra dead churn on `dirty` only: arm + cancel leaves a tombstone
        // and bumps next_timer — so mirror the arms on `clean` too, but
        // only `dirty` is left holding uncompacted garbage via a manual
        // compaction on `clean`.
        let a = clean.set_timer_in(SimDuration::from_secs(999), Tag::new(T, 77, 0));
        let b = dirty.set_timer_in(SimDuration::from_secs(999), Tag::new(T, 77, 0));
        clean.cancel_timer(a);
        dirty.cancel_timer(b);
        clean.canonicalize(); // clean pre-compacts; dirty still has tombstones
        let enc = |e: &mut Engine| {
            let mut enc = Encoder::new();
            e.encode_state(&mut enc);
            enc.finish()
        };
        assert_eq!(enc(&mut clean), enc(&mut dirty), "tombstones must not leak into bytes");
    }

    #[test]
    fn run_to_quiescence_counts() {
        let (mut e, r) = engine1();
        for i in 0..5 {
            e.start_flow(vec![Demand::unit(r)], 10.0, Tag::new(T, i, 0));
        }
        assert_eq!(e.run_to_quiescence(), 5);
        assert_eq!(e.wakeups_delivered(), 5);
    }
}
