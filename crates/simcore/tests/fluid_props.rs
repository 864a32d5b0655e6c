//! Randomized-but-deterministic tests of the fluid max-min allocator and
//! the engine: the invariants of the old proptest suite, driven by seeded
//! loops (the offline build has no proptest).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcore::prelude::*;

/// Random capacity in a sane positive range.
fn random_cap(rng: &mut StdRng) -> f64 {
    rng.gen_range(1.0..1e6)
}

/// A flow demanding 1..=3 distinct resources.
fn random_flow(rng: &mut StdRng, n_resources: usize) -> (Vec<usize>, f64) {
    let k = rng.gen_range(1..=3usize.min(n_resources));
    let mut resources: Vec<usize> = Vec::new();
    while resources.len() < k {
        let r = rng.gen_range(0..n_resources);
        if !resources.contains(&r) {
            resources.push(r);
        }
    }
    resources.sort_unstable();
    (resources, rng.gen_range(1.0..1e5))
}

/// After reallocation: no finite resource is over capacity, all rates are
/// non-negative, and every flow is bottlenecked somewhere (one of its
/// resources is saturated) — the defining property of max-min.
#[test]
fn maxmin_feasible_and_bottlenecked() {
    let mut rng = StdRng::seed_from_u64(0xF1D0);
    for case in 0..65 {
        // Case 0 is the shape of the shrunk failure the retired
        // `.proptest-regressions` seed file recorded (one flow sharing two
        // resources, each with a flow of its own), at unit demand.
        let (caps, flows) = if case == 0 {
            (vec![1.0; 5], vec![(vec![0], 1.0), (vec![0, 4], 1.0), (vec![4], 1.0)])
        } else {
            let n_res = rng.gen_range(1..6usize);
            let caps: Vec<f64> = (0..n_res).map(|_| random_cap(&mut rng)).collect();
            let n_flows = rng.gen_range(1..12usize);
            (caps, (0..n_flows).map(|_| random_flow(&mut rng, n_res)).collect())
        };
        let mut net = FluidNet::new();
        let rids: Vec<ResourceId> =
            caps.iter().map(|&c| net.add_resource("r", ResourceKind::Other, c)).collect();
        let mut fids = Vec::new();
        for (resources, work) in flows {
            let demands: Vec<ResourceId> = resources.iter().map(|&r| rids[r]).collect();
            fids.push((net.add_flow(demands.clone(), work), demands));
        }
        net.reallocate();

        // Feasibility: used <= capacity (with slack for fp error).
        for &r in &rids {
            let cap = net.capacity(r);
            assert!(
                net.used(r) <= cap * (1.0 + 1e-9) + 1e-9,
                "resource {} over capacity: {} > {}",
                r,
                net.used(r),
                cap
            );
        }

        // Rates non-negative; every flow bottlenecked on some resource.
        for (fid, demands) in &fids {
            let rate = net.flow_rate(*fid);
            assert!(rate >= 0.0);
            let bottlenecked =
                demands.iter().any(|&r| net.used(r) >= net.capacity(r) * (1.0 - 1e-6));
            assert!(bottlenecked, "flow {fid} (rate {rate}) has no saturated resource");
        }
    }
}

/// Work conservation on a single resource: total allocated rate equals
/// capacity whenever any flow is active.
#[test]
fn single_resource_work_conserving() {
    let mut rng = StdRng::seed_from_u64(0xC0175);
    for _case in 0..64 {
        let cap = random_cap(&mut rng);
        let mut net = FluidNet::new();
        let r = net.add_resource("r", ResourceKind::Other, cap);
        for _ in 0..rng.gen_range(1..10usize) {
            net.add_flow(vec![r], rng.gen_range(1.0..1e4));
        }
        net.reallocate();
        assert!((net.used(r) - cap).abs() <= cap * 1e-9);
        assert!((net.utilization(r) - 1.0).abs() <= 1e-9);
    }
}

/// Engine completions arrive in non-decreasing time order and every
/// started flow completes exactly once.
#[test]
fn engine_completes_everything_in_order() {
    let mut rng = StdRng::seed_from_u64(0xE2E2);
    for _case in 0..48 {
        let n = rng.gen_range(1..20usize);
        let mut e = Engine::new();
        let r = e.add_resource("r", ResourceKind::Other, random_cap(&mut rng));
        for i in 0..n {
            e.start_flow(vec![r], rng.gen_range(1.0..1e4), Tag::new(1, i as u32, 0));
        }
        let mut seen = vec![false; n];
        let mut last = SimTime::ZERO;
        while let Some((t, w)) = e.next_wakeup() {
            assert!(t >= last, "wakeup time went backwards");
            last = t;
            let i = w.tag().a as usize;
            assert!(!seen[i], "double completion for flow {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all flows completed");
    }
}

/// On one shared resource, larger flows never finish before smaller ones
/// (equal shares => completion order follows work order).
#[test]
fn completion_order_follows_work() {
    let mut rng = StdRng::seed_from_u64(0x0BDE2);
    for _case in 0..48 {
        let n = rng.gen_range(2..10usize);
        let mut works: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..1e4)).collect();
        works.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        works.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
        if works.len() < 2 {
            continue;
        }

        let mut e = Engine::new();
        let r = e.add_resource("r", ResourceKind::Other, 100.0);
        // Start in reversed order to decouple from insert order.
        for (i, &w) in works.iter().enumerate().rev() {
            e.start_flow(vec![r], w, Tag::new(1, i as u32, 0));
        }
        let mut order = Vec::new();
        while let Some((_, w)) = e.next_wakeup() {
            order.push(w.tag().a as usize);
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "completions out of work order");
    }
}
