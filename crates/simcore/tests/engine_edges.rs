//! Edge-case tests of the engine: capacity changes mid-flight, same-instant
//! ordering, cancellations on every step kind, and degenerate batches.

use simcore::owners::USER;
use simcore::prelude::*;

fn engine() -> (Engine, ResourceId) {
    let mut e = Engine::new();
    let r = e.add_resource("r", ResourceKind::Net, 100.0);
    (e, r)
}

#[test]
fn capacity_change_mid_flow_reprices_completion() {
    let (mut e, r) = engine();
    e.start_flow(vec![r], 200.0, Tag::new(USER, 1, 0));
    // Halve the capacity at t=0 (before any progress): 200/50 = 4 s.
    e.set_capacity(r, 50.0);
    let (t, _) = e.next_wakeup().expect("completes");
    assert!((t.as_secs_f64() - 4.0).abs() < 1e-6, "got {t}");
}

#[test]
fn same_instant_events_fire_in_submission_order() {
    let (mut e, _r) = engine();
    for i in 0..5u32 {
        e.set_timer_at(SimTime::from_secs(1), Tag::new(USER, i, 0));
    }
    let mut order = Vec::new();
    while let Some((t, w)) = e.next_wakeup() {
        assert_eq!(t, SimTime::from_secs(1));
        order.push(w.tag().a);
    }
    assert_eq!(order, vec![0, 1, 2, 3, 4], "stable FIFO at equal timestamps");
}

#[test]
fn cancel_activity_during_delay_step() {
    let (mut e, r) = engine();
    let a = e.start_chain(
        ChainSpec::new().delay(SimDuration::from_secs(5)).on(r, 100.0),
        Tag::new(USER, 1, 0),
    );
    assert!(e.cancel_activity(a));
    assert!(!e.in_flight(), "the cancelled chain holds nothing open");
    assert!(e.next_wakeup().is_none(), "nothing left scheduled");
    assert_eq!(e.now(), SimTime::ZERO, "the skipped delay does not move the clock");
}

#[test]
fn cancel_is_idempotent() {
    let (mut e, r) = engine();
    let a = e.start_flow(vec![r], 100.0, Tag::new(USER, 1, 0));
    assert!(e.cancel_activity(a));
    assert!(!e.cancel_activity(a), "second cancel reports failure");
}

#[test]
fn batch_of_empty_chains_completes_at_now() {
    let (mut e, _r) = engine();
    let b = e.start_batch(vec![ChainSpec::new(), ChainSpec::new()], Tag::new(USER, 9, 0));
    assert_eq!(
        e.next_wakeup(),
        Some((SimTime::ZERO, Wakeup::Batch { id: b, tag: Tag::new(USER, 9, 0) }))
    );
    assert!(e.next_wakeup().is_none(), "the members wake nobody");
}

#[test]
fn interleaved_batches_join_independently() {
    let (mut e, r) = engine();
    let b1 = e.start_batch(vec![ChainSpec::new().on(r, 100.0)], Tag::new(USER, 101, 0));
    let b2 = e.start_batch(vec![ChainSpec::new().on(r, 300.0)], Tag::new(USER, 102, 0));
    let mut batches = Vec::new();
    while let Some((t, w)) = e.next_wakeup() {
        let Wakeup::Batch { id, tag } = w else { panic!("a member woke the client: {w:?}") };
        batches.push((id, tag.a, t.as_secs_f64()));
    }
    assert_eq!(batches.len(), 2);
    assert_eq!(batches[0].0, b1);
    assert_eq!(batches[1].0, b2);
    assert!(batches[0].2 < batches[1].2);
}

#[test]
fn wakeups_drain_in_time_order_across_kinds() {
    let (mut e, r) = engine();
    e.set_timer_in(SimDuration::from_millis(1500), Tag::new(USER, 10, 0));
    e.start_flow(vec![r], 100.0, Tag::new(USER, 20, 0)); // 1 s
    e.set_timer_in(SimDuration::from_millis(500), Tag::new(USER, 30, 0));
    let mut seen = Vec::new();
    while let Some((_, w)) = e.next_wakeup() {
        seen.push(w.tag().a);
    }
    assert_eq!(seen, vec![30, 20, 10]);
}

#[test]
fn zero_capacity_then_restore_resumes_flow() {
    let (mut e, r) = engine();
    e.start_flow(vec![r], 100.0, Tag::new(USER, 1, 0));
    e.set_capacity(r, 0.0); // stall
                            // Nothing can complete; restore capacity via a timer-driven edit.
    e.set_timer_in(SimDuration::from_secs(2), Tag::new(USER, 99, 0));
    let (t, w) = e.next_wakeup().expect("timer fires");
    assert_eq!(w.tag().a, 99);
    e.set_capacity(r, 100.0);
    let (t2, w2) = e.next_wakeup().expect("flow resumes");
    assert_eq!(w2.tag().a, 1);
    // Stalled for 2 s, then 1 s of work.
    assert!((t2.as_secs_f64() - (t.as_secs_f64() + 1.0)).abs() < 1e-6);
}

#[test]
fn many_flows_on_many_resources_complete_exactly_once() {
    let mut e = Engine::new();
    let rs: Vec<ResourceId> = (0..8)
        .map(|i| e.add_resource(format!("r{i}"), ResourceKind::Other, 50.0 + f64::from(i)))
        .collect();
    let n = 200u32;
    for i in 0..n {
        let a = rs[(i % 8) as usize];
        let b = rs[((i * 3 + 1) % 8) as usize];
        let demands = if a == b { vec![a] } else { vec![a, b] };
        e.start_flow(demands, 10.0 + f64::from(i), Tag::new(USER, i, 0));
    }
    let mut seen = vec![0u32; n as usize];
    while let Some((_, w)) = e.next_wakeup() {
        seen[w.tag().a as usize] += 1;
    }
    assert!(seen.iter().all(|&c| c == 1), "every flow exactly once");
}
