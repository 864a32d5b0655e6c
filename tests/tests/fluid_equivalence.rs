//! Property test: the incremental, lazily clocked fluid kernel against the
//! former global progressive-filling pass with an eager clock.
//!
//! The `oracle` module below is a faithful transcription of the
//! pre-incremental `FluidNet` (global re-solve on every reallocation, every
//! flow and resource advanced at every time step, full scans in
//! `earliest_completion` and `take_finished`). Each case drives an
//! identical random churn script — flow add/remove, capacity changes, time
//! advances, completion harvests — through both implementations and checks:
//!
//! - every rate and every per-resource `used` is `f64::to_bits`-identical.
//!   The solver is the same arithmetic over the same flows in the same
//!   order; only the clock differs, and rates never read the clock.
//! - every remaining-work value is within [`REL_TOL`] of its flow's total
//!   work, and every `cumulative` within [`REL_TOL`] of itself. The lazy
//!   clock drains a flow with one subtraction per rate change where the
//!   oracle subtracts at every step, and integrates a resource's `used`
//!   where the oracle sums each flow's share, so the two round differently.
//! - the same flows finish at every harvest, and every projected completion
//!   instant is within 1 ns of the oracle's.
//!
//! `Oracle` is the repository's one reference solver; the at-scale tests
//! hold the kernel to it in whole bursts and pin the engine's batching.

use proptest::{check, Config, Gen};
use simcore::prelude::*;

/// Verbatim port of the pre-incremental solver (identical arithmetic and
/// iteration order), with resources as plain indices.
mod oracle {
    use simcore::time::{SimDuration, SimTime};

    const RATE_CAP: f64 = 1e18;
    const DONE_EPS: f64 = 1e-6;

    struct OFlow {
        demands: Vec<(usize, f64)>,
        total: f64,
        remaining: f64,
        rate: f64,
    }

    pub struct Oracle {
        capacity: Vec<f64>,
        pub used: Vec<f64>,
        pub cumulative: Vec<f64>,
        slots: Vec<Option<OFlow>>,
        free: Vec<u32>,
        active: usize,
        pub last_update: SimTime,
    }

    impl Oracle {
        pub fn new(caps: &[f64]) -> Self {
            Oracle {
                capacity: caps.to_vec(),
                used: vec![0.0; caps.len()],
                cumulative: vec![0.0; caps.len()],
                slots: Vec::new(),
                free: Vec::new(),
                active: 0,
                last_update: SimTime::ZERO,
            }
        }

        pub fn set_capacity(&mut self, r: usize, capacity: f64) {
            self.capacity[r] = capacity;
        }

        /// Returns the slot index (mirrors the kernel's LIFO free list, so
        /// slot assignment — and with it reallocation iteration order —
        /// matches the real net exactly).
        pub fn add_flow(&mut self, demands: Vec<(usize, f64)>, work: f64) -> usize {
            let state = OFlow { demands, total: work, remaining: work, rate: 0.0 };
            let slot = match self.free.pop() {
                Some(s) => {
                    self.slots[s as usize] = Some(state);
                    s as usize
                }
                None => {
                    self.slots.push(Some(state));
                    self.slots.len() - 1
                }
            };
            self.active += 1;
            slot
        }

        pub fn remove_flow(&mut self, slot: usize) -> f64 {
            let state = self.slots[slot].take().expect("live oracle flow");
            self.free.push(slot as u32);
            self.active -= 1;
            state.remaining
        }

        pub fn rate(&self, slot: usize) -> f64 {
            self.slots[slot].as_ref().map_or(0.0, |f| f.rate)
        }

        pub fn remaining(&self, slot: usize) -> Option<f64> {
            self.slots[slot].as_ref().map(|f| f.remaining)
        }

        pub fn total(&self, slot: usize) -> f64 {
            self.slots[slot].as_ref().map_or(0.0, |f| f.total)
        }

        pub fn advance_to(&mut self, now: SimTime) {
            assert!(now >= self.last_update);
            if now == self.last_update {
                return;
            }
            let dt = (now - self.last_update).as_secs_f64();
            for slot in &mut self.slots {
                if let Some(f) = slot.as_mut() {
                    if f.rate > 0.0 {
                        f.remaining = (f.remaining - f.rate * dt).max(0.0);
                        for &(r, w) in &f.demands {
                            self.cumulative[r] += f.rate * w * dt;
                        }
                    }
                }
            }
            self.last_update = now;
        }

        pub fn reallocate(&mut self) {
            for u in &mut self.used {
                *u = 0.0;
            }
            if self.active == 0 {
                return;
            }
            let mut residual: Vec<f64> = self.capacity.clone();
            let mut weight: Vec<f64> = vec![0.0; self.capacity.len()];
            let mut count: Vec<u32> = vec![0; self.capacity.len()];
            let mut unfrozen: Vec<u32> = Vec::with_capacity(self.active);
            for (i, slot) in self.slots.iter().enumerate() {
                if let Some(f) = slot {
                    unfrozen.push(i as u32);
                    for &(r, w) in &f.demands {
                        weight[r] += w;
                        count[r] += 1;
                    }
                }
            }
            while !unfrozen.is_empty() {
                let mut share = f64::INFINITY;
                for r in 0..residual.len() {
                    if count[r] > 0 && weight[r] > 0.0 {
                        let s = residual[r] / weight[r];
                        if s < share {
                            share = s;
                        }
                    }
                }
                let share = share.clamp(0.0, RATE_CAP);
                let tol = share * 1e-12 + 1e-30;
                let mut saturated = vec![false; self.capacity.len()];
                let mut any_saturated = false;
                if share < RATE_CAP {
                    for (r, sat) in saturated.iter_mut().enumerate() {
                        if count[r] > 0 && weight[r] > 0.0 && residual[r] / weight[r] <= share + tol
                        {
                            *sat = true;
                            any_saturated = true;
                        }
                    }
                }
                let mut still: Vec<u32> = Vec::new();
                for &slot_idx in &unfrozen {
                    let f = self.slots[slot_idx as usize].as_mut().expect("live");
                    let frozen_now = !any_saturated || f.demands.iter().any(|&(r, _)| saturated[r]);
                    if frozen_now {
                        f.rate = share;
                        for &(r, w) in &f.demands {
                            residual[r] = (residual[r] - share * w).max(0.0);
                            weight[r] -= w;
                            count[r] -= 1;
                            if count[r] == 0 {
                                weight[r] = 0.0;
                            }
                            self.used[r] += share * w;
                        }
                    } else {
                        still.push(slot_idx);
                    }
                }
                assert!(still.len() < unfrozen.len(), "oracle filling stalled");
                unfrozen = still;
            }
        }

        pub fn earliest_completion(&self) -> Option<SimTime> {
            let mut best: Option<f64> = None;
            for f in self.slots.iter().flatten() {
                if f.remaining <= DONE_EPS {
                    return Some(self.last_update);
                }
                if f.rate > 0.0 {
                    let t = f.remaining / f.rate;
                    best = Some(best.map_or(t, |b: f64| b.min(t)));
                }
            }
            best.map(|secs| {
                let d = SimDuration::from_secs_f64(secs).saturating_add(SimDuration::from_nanos(1));
                self.last_update + d
            })
        }

        /// Finished slots, ascending (the kernel scans in the same order).
        pub fn take_finished(&mut self) -> Vec<usize> {
            let mut done = Vec::new();
            for i in 0..self.slots.len() {
                let finished = match &self.slots[i] {
                    Some(f) => f.remaining <= DONE_EPS.max(f.total * 1e-12),
                    None => false,
                };
                if finished {
                    self.slots[i] = None;
                    self.free.push(i as u32);
                    self.active -= 1;
                    done.push(i);
                }
            }
            done
        }
    }
}

/// Discrete capacity pool: plenty of *exact* cross-component ties (which
/// must still re-solve identically), none of the measure-zero
/// almost-but-not-quite ties within the solver's 1e-12 saturation tolerance
/// that real workloads cannot produce either.
const CAPS: [f64; 6] = [10.0, 25.0, 50.0, 100.0, 400.0, f64::INFINITY];

/// How far the lazy clock's remaining work (as a fraction of the flow's
/// total work) and cumulative service (as a fraction of itself) may round
/// away from the eager oracle's.
const REL_TOL: f64 = 1e-12;

/// `a` and `b` agree to [`REL_TOL`] of `scale`.
fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= REL_TOL * scale
}

/// The remaining work `net` and `ora` report for one flow — read while it
/// is live, or returned when it is cancelled — agree to [`REL_TOL`] of its
/// total work.
fn assert_remaining_close(a: f64, b: f64, total: f64, what: &str) {
    assert!(close(a, b, total), "{what}: {a} vs {b} of {total}");
}

fn assert_state_matches(
    net: &mut FluidNet,
    ora: &oracle::Oracle,
    live: &[(simcore::ids::FlowId, usize)],
    n_res: usize,
) {
    for &(id, os) in live {
        assert_eq!(
            net.flow_rate(id).to_bits(),
            ora.rate(os).to_bits(),
            "rate mismatch on slot {os}: {} vs {}",
            net.flow_rate(id),
            ora.rate(os)
        );
        let (a, b) = (net.flow_remaining(id).expect("live"), ora.remaining(os).expect("live"));
        assert_remaining_close(a, b, ora.total(os), &format!("remaining on slot {os}"));
    }
    for r in 0..n_res {
        let rid = ResourceId::from_index(r);
        assert_eq!(net.used(rid).to_bits(), ora.used[r].to_bits(), "used mismatch on r{r}");
        let (a, b) = (net.cumulative(rid), ora.cumulative[r]);
        assert!(close(a, b, b), "cumulative on r{r}: {a} vs {b}");
    }
    assert_eq!(net.now(), ora.last_update);
    match (net.earliest_completion(), ora.earliest_completion()) {
        (Some(a), Some(b)) => assert!(
            a.as_nanos().abs_diff(b.as_nanos()) <= 1,
            "completion instant {a} vs {b} is more than 1 ns apart"
        ),
        (a, b) => assert_eq!(a, b, "completion instant"),
    }
}

#[test]
fn fluid_incremental_equivalence() {
    check("fluid_incremental_equivalence", Config { cases: 24, seed: 0xF1D0 }, |g| {
        let n_res = g.usize_in(1, 6);
        let caps: Vec<f64> = (0..n_res).map(|_| *g.choose(&CAPS)).collect();
        let mut net = FluidNet::new();
        for (i, &c) in caps.iter().enumerate() {
            net.add_resource(format!("r{i}"), ResourceKind::Other, c);
        }
        let mut ora = oracle::Oracle::new(&caps);
        // Live flows as (kernel handle, oracle slot). Slot indices coincide
        // by construction (mirrored LIFO free lists), which the add path
        // below asserts via the handle's Display form.
        let mut live: Vec<(simcore::ids::FlowId, usize)> = Vec::new();

        let steps = g.usize_in(20, 60);
        for _ in 0..steps {
            match g.usize_in(0, 9) {
                // Add a flow (multi-resource, a resource listed once or
                // twice, occasionally empty work so the near-done path is
                // exercised). The oracle gets each listed row at weight 1:
                // one row at weight 2 subtracts `share * 2` where the
                // kernel subtracts `share` twice, which rounds differently.
                0..=3 => {
                    let nd = g.usize_in(1, n_res.min(3));
                    let mut picked: Vec<usize> = Vec::new();
                    while picked.len() < nd {
                        let r = g.usize_in(0, n_res - 1);
                        if !picked.contains(&r) {
                            picked.push(r);
                        }
                    }
                    let listed: Vec<usize> =
                        picked.iter().flat_map(|&r| vec![r; g.usize_in(1, 2)]).collect();
                    let work = if g.bool(0.05) { 0.0 } else { g.f64_in(1.0, 500.0) };
                    let id = net.add_flow(unit_demands(&listed), work);
                    let demands = listed.iter().map(|&r| (r, 1.0)).collect();
                    let os = ora.add_flow(demands, work);
                    assert_eq!(format!("{id}").split('.').next(), Some(&*format!("f{os}")));
                    live.push((id, os));
                }
                // Remove a random live flow.
                4..=5 if !live.is_empty() => {
                    let k = g.usize_in(0, live.len() - 1);
                    let (id, os) = live.swap_remove(k);
                    let total = ora.total(os);
                    let a = net.remove_flow(id).expect("live handle");
                    let b = ora.remove_flow(os);
                    assert_remaining_close(a, b, total, "remaining at cancel");
                }
                // Change a capacity (occasionally to zero: stalled flows).
                6 => {
                    let r = g.usize_in(0, n_res - 1);
                    let c = if g.bool(0.1) { 0.0 } else { *g.choose(&CAPS) };
                    net.set_capacity(ResourceId::from_index(r), c);
                    ora.set_capacity(r, c);
                }
                // Advance time — to the projected completion instant, or a
                // random intermediate point — and harvest finishers.
                _ => {
                    let target = match ora.earliest_completion() {
                        Some(t) if g.bool(0.7) => t,
                        _ => ora.last_update + SimDuration::from_nanos(g.u64_in(1, 4_000_000_000)),
                    };
                    net.advance_to(target);
                    ora.advance_to(target);
                    let fin_new = net.take_finished();
                    let fin_old = ora.take_finished();
                    assert_eq!(fin_new.len(), fin_old.len(), "finished count");
                    live.retain(|&(id, os)| {
                        let gone = fin_old.contains(&os);
                        assert_eq!(!net.is_live(id), gone, "finish disagreement on slot {os}");
                        !gone
                    });
                }
            }
            net.reallocate();
            ora.reallocate();
            assert_state_matches(&mut net, &ora, &live, n_res);
        }
    });
}

/// Flow-arena free-list ABA regression through the public handle API: a
/// handle kept past its flow's removal must stay dead after the slot is
/// recycled, and must not bleed state into (or observe state of) the
/// reborn flow.
#[test]
fn flow_arena_recycling_rejects_stale_handles() {
    let mut net = FluidNet::new();
    let r = net.add_resource("link", ResourceKind::Net, 100.0);
    let stale = net.add_flow(vec![r], 1_000.0);
    net.reallocate();
    assert_eq!(net.remove_flow(stale), Some(1_000.0));
    // The LIFO free list recycles the same slot for the next flow.
    let reborn = net.add_flow(vec![r], 70.0);
    net.reallocate();
    assert!(!net.is_live(stale), "stale handle stays dead across recycling");
    assert!(net.is_live(reborn));
    assert_eq!(net.remove_flow(stale), None, "stale removal is a no-op");
    assert_eq!(net.flow_rate(stale), 0.0);
    assert!(net.is_live(reborn), "stale operations must not touch the reborn flow");
    assert_eq!(net.flow_rate(reborn), 100.0);
    // The reborn flow's lifecycle is unperturbed: it completes at its own
    // work/rate, not the stale flow's.
    let t = net.earliest_completion().expect("completion scheduled");
    net.advance_to(t);
    let fin = net.take_finished();
    assert_eq!(fin.len(), 1);
    assert_eq!(fin[0].id, reborn);
}

/// Synthetic datacenter for the at-scale tests, as resource indices into
/// `caps`: host CPUs (32e9; host `h`'s is `h`), then NICs (1.25e9), vCPUs
/// (4e9, 8 a host), the switch (10e9) and one never-binding 1e12 aggregator
/// per 256 VMs that joins a rack's wave tasks into one component.
struct Topo {
    caps: Vec<f64>,
    nic: usize,
    vcpu: usize,
    switch: usize,
}

impl Topo {
    fn new(vms: usize) -> Topo {
        let (hosts, racks) = (vms.div_ceil(8), vms.div_ceil(256));
        let banks =
            [vec![32e9; hosts], vec![1.25e9; hosts], vec![4e9; vms], vec![10e9], vec![1e12; racks]];
        Topo { caps: banks.concat(), nic: hosts, vcpu: 2 * hosts, switch: 2 * hosts + vms }
    }

    fn compute(&self, vm: usize) -> Vec<usize> {
        vec![self.vcpu + vm, vm / 8]
    }

    fn wave_task(&self, vm: usize) -> Vec<usize> {
        vec![self.vcpu + vm, vm / 8, self.switch + 1 + vm / 256]
    }

    fn transfer(&self, src: usize, dst: usize) -> Vec<usize> {
        let mut d = vec![self.switch, self.nic + src / 8, self.nic + dst / 8];
        d.dedup(); // a same-host transfer crosses its NIC once
        d
    }
}

/// `iterative_waves` task sizes: equal within a wave, distinct across waves.
const WAVE_WORK: [f64; 4] = [4e9, 6e9, 3e9, 8e9];

fn unit_demands(res: &[usize]) -> Vec<ResourceId> {
    res.iter().map(|&r| ResourceId::from_index(r)).collect()
}

/// `FluidNet` and `Oracle` driven in lockstep, one `step` per burst.
struct Lockstep {
    net: FluidNet,
    ora: oracle::Oracle,
    live: Vec<(FlowId, usize)>,
}

impl Lockstep {
    fn new(caps: &[f64]) -> Lockstep {
        let mut net = FluidNet::new();
        for (i, &c) in caps.iter().enumerate() {
            net.add_resource(format!("r{i}"), ResourceKind::Other, c);
        }
        Lockstep { net, ora: oracle::Oracle::new(caps), live: Vec::new() }
    }

    fn add(&mut self, res: Vec<usize>, work: f64) {
        let id = self.net.add_flow(unit_demands(&res), work);
        self.live.push((id, self.ora.add_flow(res.into_iter().map(|r| (r, 1.0)).collect(), work)));
    }

    /// Ends a burst (one `reallocate()` for all its mutations, then the
    /// full oracle contract) and harvests the next completion instant.
    fn step(&mut self) -> usize {
        self.net.reallocate();
        self.ora.reallocate();
        assert_state_matches(&mut self.net, &self.ora, &self.live, self.ora.used.len());
        let t = self.ora.earliest_completion().expect("a flow is progressing");
        self.net.advance_to(t);
        self.ora.advance_to(t);
        let done = self.ora.take_finished();
        assert_eq!(self.net.take_finished().len(), done.len(), "finished count");
        self.live.retain(|&(_, os)| !done.contains(&os));
        done.len()
    }
}

/// `fluid_incremental_equivalence` re-solves after each single mutation on
/// at most six resources; here whole bursts land between re-solves.
#[test]
fn bursts_at_scale_match_the_oracle() {
    // iterative_waves, four racks: a wave's 1024 finishes + 1024 respawns.
    let topo = Topo::new(1024);
    let mut ls = Lockstep::new(&topo.caps);
    for work in WAVE_WORK {
        (0..1024).for_each(|vm| ls.add(topo.wave_task(vm), work));
        assert_eq!(ls.step(), 1024, "an equal-work wave drains at one instant");
    }

    // shuffle_storm, 256 VMs: two compute flows per VM, then bursts of 16
    // seeded respawns (one in six a transfer, merging into the switch's
    // component), cancels and NIC/vCPU degrades. Every capacity is first
    // derated by its own seeded factor: a global pass applies its 1e-12
    // saturation tolerance across components, so two that reach one share by
    // different arithmetic (a busy host CPU is exactly its 8 vCPUs, an ulp off
    // once a vCPU splits in thirds) get smeared together by `Oracle` alone.
    let mut topo = Topo::new(256);
    let mut g = Gen::from_seed(2012);
    topo.caps.iter_mut().for_each(|c| *c *= g.f64_in(0.5, 1.0));
    let mut ls = Lockstep::new(&topo.caps);
    (0..512).for_each(|i| ls.add(topo.compute(i / 2), g.f64_in(1e9, 8e9)));
    for _ in 0..48 {
        for _ in 0..16 {
            let vm = g.usize_in(0, 255);
            match g.usize_in(0, 9) {
                0..=4 => ls.add(topo.compute(vm), g.f64_in(1e9, 8e9)),
                5 => ls.add(topo.transfer(vm, g.usize_in(0, 255)), g.f64_in(1e8, 1e9)),
                6..=7 => {
                    let (id, os) = ls.live.swap_remove(g.usize_in(0, ls.live.len() - 1));
                    let total = ls.ora.total(os);
                    let a = ls.net.remove_flow(id).expect("live handle");
                    assert_remaining_close(a, ls.ora.remove_flow(os), total, "remaining at cancel");
                }
                _ => {
                    let r = *g.choose(&[topo.nic + vm / 8, topo.vcpu + vm]);
                    let cap = topo.caps[r] * g.choose(&[0.25, 0.5, 1.0]);
                    ls.net.set_capacity(ResourceId::from_index(r), cap);
                    ls.ora.set_capacity(r, cap);
                }
            }
        }
        ls.step();
    }
}

/// Same-timestamp batching, pinned exactly: each 1024-VM wave through
/// `Engine` ends at one instant and costs one reallocation, not one per task.
/// `flows_settled` is one settle per task started (its rate leaves 0) and
/// one per task finished, nothing per time step.
#[test]
fn batching_counts_on_iterative_waves() {
    let topo = Topo::new(1024);
    let mut e = Engine::new();
    for (i, &c) in topo.caps.iter().enumerate() {
        e.add_resource(format!("r{i}"), ResourceKind::Other, c);
    }
    let spawn = |e: &mut Engine, vm: u32, wave: u64| {
        let task = unit_demands(&topo.wave_task(vm as usize));
        e.start_flow(task, WAVE_WORK[wave as usize], Tag::new(1, vm, wave));
    };
    (0..1024).for_each(|vm| spawn(&mut e, vm, 0));
    let mut seen = Vec::new();
    for _ in 0..3072 {
        let (t, w) = e.next_wakeup().expect("a wave task completes");
        seen.push((t, w.tag().b));
        spawn(&mut e, w.tag().a, w.tag().b + 1);
    }
    seen.dedup();
    assert_eq!(seen.iter().map(|s| s.1).collect::<Vec<_>>(), [0, 1, 2], "a wave split up");
    let s = e.kernel_stats();
    assert_eq!(
        (
            s.wakeups,
            s.reallocations,
            s.flows_touched,
            s.flows_settled,
            s.batch_applied,
            s.comp_size_max
        ),
        (3072, 3, 3072, 6144, 5120, 256)
    );
}
