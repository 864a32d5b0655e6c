//! Discrete-event engine driving the fluid model.
//!
//! Client subsystems describe work as **activities**: chains of [`Step`]s
//! that run sequentially (a fluid flow, or a pure latency delay). Chains can
//! be AND-joined into **batches**, which wake their client once, when the
//! last member ends. The engine owns the clock, runs the fluid reallocation
//! whenever the flow set changes, and surfaces completions as [`Wakeup`]s
//! carrying the client's routing [`Tag`].
//!
//! The processing loop is pull-based: callers repeatedly invoke
//! [`Engine::next_wakeup`], dispatch on the tag, and start new activities.
//! The event heap holds only what fires: fluid completion estimates, user
//! timers and chain delays. Everything is single-threaded and deterministic.

use crate::fluid::{FluidNet, FluidStats, ResourceKind};
use crate::ids::{ActivityId, BatchId, FlowId, ResourceId, Tag};
use crate::persist::{Decoder, Encoder, Persist};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Name, Tracer};
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// SipHash-1-3, as `HashMap`'s default, but with fixed keys: a map's
/// bucket layout, and so when it rehashes and what that allocates, is the
/// same in every process (a per-process random key moves it from run to
/// run). For maps keyed by ids the simulation assigns, which no outside
/// input can pick to collide.
pub type FixedState = BuildHasherDefault<DefaultHasher>;

/// One stage of an activity chain.
#[derive(Debug, Clone)]
pub enum Step {
    /// Drain `work` units through `demands` under max-min sharing.
    Flow {
        /// Resources consumed; one listed `k` times takes `k` × the rate.
        demands: Vec<ResourceId>,
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
    pub fn flow(mut self, demands: Vec<ResourceId>, work: f64) -> Self {
        self.steps.push(Step::Flow { demands, work });
        self
    }

    /// Appends a single-resource flow step.
    pub fn on(self, resource: ResourceId, work: f64) -> Self {
        self.flow(vec![resource], work)
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
        /// Client routing tag given to `set_timer_*`.
        tag: Tag,
    },
    /// An activity (chain) ran all its steps. Batch members end silently.
    Activity {
        /// Handle returned by `start_chain`/`start_flow`.
        id: ActivityId,
        /// Client routing tag.
        tag: Tag,
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
    0 => Timer { tag },
    1 => Activity { id, tag },
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

/// What a heap entry fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// The fluid net's completion estimate under `epoch`; stale once a
    /// later solve supersedes it.
    FluidWake { epoch: u64 },
    /// A user timer: wakes its client with `tag`.
    Timer { tag: Tag },
    /// The end of `activity`'s delay step; skipped on pop when the activity
    /// was cancelled during the delay.
    ChainDelay { activity: ActivityId },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

crate::persist_enum!(Ev {
    0 => FluidWake { epoch },
    1 => Timer { tag },
    2 => ChainDelay { activity },
});
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
    Delay,
}

/// How an activity ends: it wakes its client with its tag, or it counts
/// down its batch.
#[derive(Debug, Clone, Copy)]
enum Ending {
    Wake(Tag),
    Batch(BatchId),
}

#[derive(Debug)]
struct Activity {
    remaining: VecDeque<Step>,
    current: Current,
    ending: Ending,
}

crate::persist_enum!(Current { 0 => Idle, 1 => Flow(flow), 2 => Delay });
crate::persist_enum!(Ending { 0 => Wake(tag), 1 => Batch(batch) });
crate::persist_struct!(Activity { remaining, current, ending });

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
    /// Flow settles (see [`FluidStats::flows_settled`]).
    pub flows_settled: u64,
    /// Mutations absorbed by coalesced reallocation passes (batched event
    /// application; see [`FluidStats::batch_applied`]).
    pub batch_applied: u64,
    /// p99 of re-solved component flow counts (lifetime histogram).
    pub comp_size_p99: u64,
    /// Largest component ever re-solved (see [`FluidStats::comp_size_max`]).
    pub comp_size_max: u64,
    /// Total wakeups delivered so far.
    pub wakeups: u64,
}

/// The simulation engine. See the module docs for the programming model.
#[derive(Debug)]
pub struct Engine {
    now: SimTime,
    fluid: FluidNet,
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
    epoch: u64,
    flow_owner: HashMap<FlowId, ActivityId, FixedState>,
    activities: HashMap<ActivityId, Activity, FixedState>,
    next_activity: u64,
    /// User timers armed and not yet fired: their `Ev::Timer` heap entries.
    timers: usize,
    batches: HashMap<BatchId, Batch, FixedState>,
    next_batch: u64,
    out: VecDeque<(SimTime, Wakeup)>,
    /// Total wakeups delivered; useful for tests and progress telemetry.
    wakeups_delivered: u64,
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
            flow_owner: HashMap::default(),
            activities: HashMap::default(),
            next_activity: 0,
            timers: 0,
            batches: HashMap::default(),
            next_batch: 0,
            out: VecDeque::new(),
            wakeups_delivered: 0,
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
        !self.activities.is_empty() || self.timers > 0 || !self.out.is_empty()
    }

    /// Total wakeups delivered so far.
    pub fn wakeups_delivered(&self) -> u64 {
        self.wakeups_delivered
    }

    /// Snapshot of the kernel work counters (see [`KernelStats`]).
    pub fn kernel_stats(&self) -> KernelStats {
        let FluidStats {
            reallocations,
            flows_touched,
            flows_settled,
            batch_applied,
            comp_size_p99,
            comp_size_max,
        } = self.fluid.stats();
        KernelStats {
            reallocations,
            flows_touched,
            flows_settled,
            batch_applied,
            comp_size_p99,
            comp_size_max,
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
    pub fn set_timer_at(&mut self, at: SimTime, tag: Tag) {
        self.timers += 1;
        self.push_entry(at.max(self.now), Ev::Timer { tag });
    }

    /// Fires a [`Wakeup::Timer`] after `d`.
    pub fn set_timer_in(&mut self, d: SimDuration, tag: Tag) {
        self.set_timer_at(self.now + d, tag);
    }

    // ----- activities -----------------------------------------------------

    /// Starts a chain. An empty chain completes at the current instant.
    pub fn start_chain(&mut self, spec: ChainSpec, tag: Tag) -> ActivityId {
        self.spawn_chain(spec, Ending::Wake(tag))
    }

    /// Starts a single fluid flow as a one-step chain.
    pub fn start_flow(&mut self, demands: Vec<ResourceId>, work: f64, tag: Tag) -> ActivityId {
        self.start_chain(ChainSpec::new().flow(demands, work), tag)
    }

    /// Starts `members` concurrently and wakes the client once, with a
    /// [`Wakeup::Batch`] carrying `batch_tag`, when every member has ended;
    /// a member's own end wakes nobody. An empty batch completes
    /// immediately.
    pub fn start_batch(&mut self, members: Vec<ChainSpec>, batch_tag: Tag) -> BatchId {
        let id = BatchId(self.next_batch);
        self.next_batch += 1;
        if members.is_empty() {
            self.out.push_back((self.now, Wakeup::Batch { id, tag: batch_tag }));
            return id;
        }
        self.batches.insert(id, Batch { tag: batch_tag, pending: members.len() });
        for spec in members {
            self.spawn_chain(spec, Ending::Batch(id));
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
            // The delay's heap entry stays and is skipped when it pops.
            Current::Delay | Current::Idle => {}
        }
        if let Ending::Batch(b) = act.ending {
            self.batch_member_done(b);
        }
        true
    }

    // ----- main loop ------------------------------------------------------

    /// Advances the simulation to the next client-visible completion and
    /// returns it, or `None` when nothing remains scheduled.
    ///
    /// The fluid net is re-solved before every heap pop but one kind: a
    /// chain delay ending at the current instant whose chain still has a
    /// step to run. Popping it only adds a flow or arms another delay, so
    /// the solve waits for the next pop, and chains whose delays end
    /// together cost one solve. Every wakeup and every fluid wake still
    /// sees the allocation of the full flow set.
    pub fn next_wakeup(&mut self) -> Option<(SimTime, Wakeup)> {
        loop {
            if let Some((t, w)) = self.out.pop_front() {
                self.wakeups_delivered += 1;
                return Some((t, w));
            }
            // Client calls and earlier pops may have dirtied the
            // allocation; refresh before the pop unless it is excused.
            if !self.next_pop_continues_a_chain() {
                self.refresh_fluid();
            }

            let Reverse(entry) = self.heap.pop()?;
            debug_assert!(entry.time >= self.now, "event heap went backwards");
            match entry.ev {
                Ev::Timer { tag } => {
                    self.timers -= 1;
                    self.now = entry.time;
                    self.out.push_back((self.now, Wakeup::Timer { tag }));
                }
                Ev::ChainDelay { activity } => {
                    if !self.activities.contains_key(&activity) {
                        continue; // the chain was cancelled during its delay
                    }
                    self.now = entry.time;
                    self.step_done(activity);
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

    /// Compacts every lazily-deferred structure: the delay entries of
    /// cancelled chains and the fluid wakes of superseded epochs in the
    /// event heap, and the fluid completion index. Two byte-identical
    /// simulation states then encode to byte-identical snapshots regardless
    /// of how much garbage each happened to accumulate. Observable behavior
    /// is unchanged — all removed entries would have been skipped on pop.
    pub fn canonicalize(&mut self) {
        let epoch = self.epoch;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|&Reverse(en)| match en.ev {
            Ev::Timer { .. } => true,
            Ev::ChainDelay { activity } => self.activities.contains_key(&activity),
            Ev::FluidWake { epoch: e } => e == epoch,
        });
        self.heap = BinaryHeap::from(entries);
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
    // codec by hand: canonical heap order, and the fluid arena and the armed-timer count are rebuilt
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
            timers: 0,
            batches: Persist::decode(d),
            next_batch: Persist::decode(d),
            out: Persist::decode(d),
            wakeups_delivered: Persist::decode(d),
            tracer: Persist::decode(d),
        };
        engine.timers =
            engine.heap.iter().filter(|&&Reverse(en)| matches!(en.ev, Ev::Timer { .. })).count();
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

    /// True when the heap's next entry is a live chain delay ending now
    /// whose chain has another step: popping it changes no rate a client
    /// or a fluid wake can read, so the solve before it can wait.
    fn next_pop_continues_a_chain(&self) -> bool {
        let Some(&Reverse(Entry { time, ev: Ev::ChainDelay { activity }, .. })) = self.heap.peek()
        else {
            return false;
        };
        time == self.now && self.activities.get(&activity).is_some_and(|a| !a.remaining.is_empty())
    }

    /// If the allocation is dirty, recompute it and schedule the next
    /// completion estimate under a fresh epoch. Called before every heap
    /// pop that [`Engine::next_pop_continues_a_chain`] does not excuse.
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

    fn spawn_chain(&mut self, spec: ChainSpec, ending: Ending) -> ActivityId {
        let id = ActivityId(self.next_activity);
        self.next_activity += 1;
        self.activities
            .insert(id, Activity { remaining: spec.steps.into(), current: Current::Idle, ending });
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
                self.activities.get_mut(&id).expect("just checked").current = Current::Delay;
                self.push_entry(self.now + d, Ev::ChainDelay { activity: id });
            }
            None => match self.activities.remove(&id).expect("just checked").ending {
                Ending::Wake(tag) => self.out.push_back((self.now, Wakeup::Activity { id, tag })),
                Ending::Batch(b) => self.batch_member_done(b),
            },
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
    #[should_panic(expected = "snapshot corrupt: unknown Ev tag 3 at byte 26")]
    fn heap_entry_rejects_an_unknown_event_tag() {
        decode_body::<Entry>(&[0; 16].into_iter().chain([3]).collect::<Vec<u8>>());
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
    #[should_panic(expected = "snapshot corrupt: unknown Ending tag 2 at byte 10")]
    fn ending_rejects_an_unknown_tag() {
        decode_body::<Ending>(&[2]);
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
        let a = e.start_flow(vec![r], 500.0, Tag::new(T, 1, 0));
        let (t, w) = e.next_wakeup().expect("completion");
        assert_eq!(t.as_secs_f64().round() as u64, 5);
        match w {
            Wakeup::Activity { id, tag } => {
                assert_eq!(id, a);
                assert_eq!(tag, Tag::new(T, 1, 0));
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
        e.start_flow(vec![r], 100.0, Tag::new(T, 1, 0));
        e.start_flow(vec![r], 300.0, Tag::new(T, 2, 0));
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
            ChainSpec::new().on(r, 100.0),
            ChainSpec::new().on(r, 100.0),
            ChainSpec::new().on(r, 400.0),
        ];
        let b = e.start_batch(members, Tag::new(T, 99, 0));
        // One wakeup for the whole batch, none per member. It comes when
        // the largest member ends: 3 flows at ~33.3 until the 100-work ones
        // finish at 3s, then 400-work has 300 left at 100/s -> 6s total.
        let (t, w) = e.next_wakeup().expect("batch completed");
        assert_eq!(w, Wakeup::Batch { id: b, tag: Tag::new(T, 99, 0) });
        assert!((t.as_secs_f64() - 6.0).abs() < 1e-6, "batch at 6s, got {t}");
        assert!(e.next_wakeup().is_none(), "members end silently");
        assert_eq!(e.wakeups_delivered(), 1);
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
    fn timers_fire_in_time_order() {
        let (mut e, _r) = engine1();
        e.set_timer_in(SimDuration::from_secs(2), Tag::new(T, 2, 0));
        e.set_timer_in(SimDuration::from_secs(1), Tag::new(T, 1, 0));
        assert_eq!(
            e.next_wakeup(),
            Some((SimTime::from_secs(1), Wakeup::Timer { tag: Tag::new(T, 1, 0) }))
        );
        assert_eq!(
            e.next_wakeup(),
            Some((SimTime::from_secs(2), Wakeup::Timer { tag: Tag::new(T, 2, 0) }))
        );
        assert!(e.next_wakeup().is_none());
    }

    #[test]
    fn in_flight_sees_activities_timers_and_undelivered_wakeups() {
        let (mut e, r) = engine1();
        assert!(!e.in_flight(), "a fresh engine has nothing pending");
        // A cancelled chain leaves its delay in the heap, not pending work.
        let a = e.start_chain(ChainSpec::new().delay(SimDuration::from_secs(1)), Tag::new(T, 1, 0));
        assert!(e.in_flight());
        e.cancel_activity(a);
        assert!(!e.in_flight());
        e.start_flow(vec![r], 100.0, Tag::new(T, 2, 0));
        assert!(e.in_flight(), "the flow is running");
        e.start_flow(vec![r], 100.0, Tag::new(T, 3, 0));
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
        let victim = e.start_flow(vec![r], 1_000.0, Tag::new(T, 1, 0));
        e.start_flow(vec![r], 100.0, Tag::new(T, 2, 0));
        assert!(e.cancel_activity(victim));
        assert!(!e.cancel_activity(victim), "a cancelled activity is gone");
        // Survivor now gets the whole link: 100 work at 100/s = 1s.
        let (t, w) = e.next_wakeup().unwrap();
        assert_eq!(w.tag().a, 2);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cancelled_batch_member_still_joins() {
        let (mut e, r) = engine1();
        let b = e.start_batch(
            vec![ChainSpec::new().on(r, 100.0), ChainSpec::new().on(r, 10_000.0)],
            Tag::new(T, 9, 0),
        );
        // Cancel the slow member: batch must complete when the fast one does.
        // Activities are numbered in spawn order: 0 and 1.
        assert!(e.cancel_activity(ActivityId(1)));
        let (t, w) = e.next_wakeup().expect("the batch joins");
        assert_eq!(w, Wakeup::Batch { id: b, tag: Tag::new(T, 9, 0) });
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!(e.next_wakeup().is_none(), "no member wakes the client");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut e, r) = engine1();
            for i in 0..20u32 {
                e.start_flow(vec![r], 50.0 + f64::from(i) * 13.0, Tag::new(T, i, 0));
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
            // Garbage for the snapshot to drop: the delay of a chain
            // cancelled while it waits.
            let dead = e.start_chain(
                ChainSpec::new().delay(SimDuration::from_secs(3)).on(r, 10.0),
                Tag::new(T, 101, 0),
            );
            e.cancel_activity(dead);
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
        // Both engines arm the same timers and chains; only `dirty` keeps
        // its garbage (the delay entry of a chain cancelled while it waits,
        // and the fluid wakes of superseded epochs) until the snapshot, while
        // `clean` drops it first. The two describe one state and must encode
        // to the same bytes.
        let build = || {
            let (mut e, r) = engine1();
            for i in 0..10u64 {
                e.set_timer_in(SimDuration::from_secs(100 + i), Tag::new(T, i as u32, 0));
            }
            let waiting = e.start_chain(
                ChainSpec::new().delay(SimDuration::from_secs(5)).on(r, 10.0),
                Tag::new(T, 77, 0),
            );
            e.cancel_activity(waiting);
            // Each flow start supersedes the previous completion estimate.
            for i in 0..3u32 {
                e.start_flow(vec![r], 1_000.0, Tag::new(T, 200 + i, 0));
                e.set_timer_in(SimDuration::ZERO, Tag::new(T, 300 + i, 0));
                e.next_wakeup().expect("the zero timer");
            }
            e
        };
        let mut clean = build();
        let mut dirty = build();
        let heap_len = |e: &Engine| e.heap.len();
        assert_eq!(heap_len(&dirty), 10 + 1 + 3, "timers, one dead delay, three epochs");
        clean.canonicalize();
        assert_eq!(heap_len(&clean), 10 + 1, "timers and the current epoch's wake");
        let enc = |e: &mut Engine| {
            let mut enc = Encoder::new();
            e.encode_state(&mut enc);
            enc.finish()
        };
        assert_eq!(enc(&mut clean), enc(&mut dirty), "garbage must not leak into bytes");
    }

    #[test]
    fn cancelling_a_chain_in_its_delay_leaves_no_trace() {
        // Two engines run the same flows and timers; one also starts a chain
        // and cancels it while its delay is armed. Every later wakeup, the
        // clock and the fluid clock must be as if it had never existed.
        let run = |with_dead_chain: bool| {
            let (mut e, r) = engine1();
            e.start_flow(vec![r], 300.0, Tag::new(T, 1, 0));
            e.set_timer_in(SimDuration::from_secs(4), Tag::new(T, 2, 0));
            if with_dead_chain {
                let a = e.start_chain(
                    ChainSpec::new().delay(SimDuration::from_secs(1)).on(r, 100.0),
                    Tag::new(T, 3, 0),
                );
                assert!(e.cancel_activity(a));
            }
            let mut seen = Vec::new();
            while let Some((t, w)) = e.next_wakeup() {
                seen.push((t, w, e.fluid().now()));
            }
            (seen, e.now(), e.fluid().now())
        };
        let plain = run(false);
        assert_eq!(plain.0.len(), 2, "the flow and the timer");
        assert_eq!(run(true), plain);
    }

    #[test]
    fn run_to_quiescence_counts() {
        let (mut e, r) = engine1();
        for i in 0..5 {
            e.start_flow(vec![r], 10.0, Tag::new(T, i, 0));
        }
        assert_eq!(e.run_to_quiescence(), 5);
        assert_eq!(e.wakeups_delivered(), 5);
    }

    /// Starts 64 `delay(1 s).flow(r, 100)` chains in one batch, as a
    /// reduce starts its shuffle fetches.
    fn fetch_wave(e: &mut Engine, r: ResourceId) {
        let chain = ChainSpec::new().delay(SimDuration::from_secs(1)).on(r, 100.0);
        e.start_batch(vec![chain; 64], Tag::new(T, 99, 0));
    }

    #[test]
    fn delays_ending_together_cost_one_solve() {
        let (mut e, r) = engine1();
        fetch_wave(&mut e, r);
        let (t, _) = e.next_wakeup().expect("the wave completes");
        // 64 flows at 100/64 each finish 64 s after their delay.
        assert_eq!(t.as_secs_f64().round(), 65.0);
        let s = e.kernel_stats();
        assert_eq!((s.reallocations, s.flows_touched), (1, 64), "one solve of all 64 at 1 s");
    }

    #[test]
    fn wakeups_after_a_delay_wave_see_it_solved() {
        let (mut e, r) = engine1();
        fetch_wave(&mut e, r);
        // Both end at 1 s, after the wave's delays: a delay that completes
        // its chain, and a user timer.
        let last =
            e.start_chain(ChainSpec::new().delay(SimDuration::from_secs(1)), Tag::new(T, 100, 0));
        e.set_timer_in(SimDuration::from_secs(1), Tag::new(T, 101, 0));
        let at_1s = SimTime::ZERO + SimDuration::from_secs(1);
        let (t, w) = e.next_wakeup().expect("the delay-only chain");
        assert_eq!((t, w), (at_1s, Wakeup::Activity { id: last, tag: Tag::new(T, 100, 0) }));
        assert_eq!(e.fluid().used(r), 100.0, "the chain's wakeup sees all 64 flows");
        let (t, w) = e.next_wakeup().expect("the user timer");
        assert_eq!((t, w.tag()), (at_1s, Tag::new(T, 101, 0)));
        assert_eq!(e.fluid().used(r), 100.0, "the timer's wakeup sees all 64 flows");
        assert_eq!(e.kernel_stats().reallocations, 1);
    }
}
