//! Properties of the copy-free record path (DESIGN.md §20): the sort
//! key's prefix against `K`'s own order, the merge of sealed map-output
//! runs and the combiner over one against `group_by_key`, the exact bits
//! of the values both lend, one partitioner call per key per map,
//! snapshots of the same records in either order restoring to one run,
//! and a snapshot taken while the runs are all there is of a job's data.
//! (Sealing under a table too small for its keys, and a map's seal into
//! several partitions against a seal per partition, need constructors
//! tests outside the crate cannot reach: unit tests of `mapreduce::run`.)

mod common;

use common::{fig2_job, launch_fig2, MB};
use mapreduce::prelude::*;
use mapreduce::run::{combine_run, for_each_group, Run, SortKey};
use proptest::{check, Config, Gen};
use simcore::persist::{Decoder, Encoder, Persist};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use vhadoop::prelude::{FaultPlan, PlatformEvent, RootSeed, VHadoop, VmId};
use workloads::tpcxhs::{hsgen_job, HsPlan};

fn random_bytes(g: &mut Gen, len: usize) -> Vec<u8> {
    // A small alphabet with 0 in it: ties and embedded zero bytes are common.
    (0..len).map(|_| *g.choose(&[0u8, 0, 1, b'a', b'b', 0xFF])).collect()
}

/// `bytes` as a `Text` key: every byte is cut to ASCII, so still ordered
/// byte by byte, zeros included.
fn text_key(bytes: Vec<u8>) -> K {
    K::from(bytes.into_iter().map(|b| (b & 0x7F) as char).collect::<String>().as_str())
}

fn random_key(g: &mut Gen) -> K {
    if g.bool(0.25) {
        return K::Int(*g.choose(&[i64::MIN, -256, -255, -2, -1, 0, 1, 2, 255, 256, i64::MAX]));
    }
    let len = *g.choose(&[0usize, 1, 7, 8, 9, 14, 15, 16, 17, 24]);
    let bytes = random_bytes(g, len);
    if g.bool(0.5) {
        K::Bytes(bytes)
    } else {
        text_key(bytes)
    }
}

/// Two keys of one variant sharing exactly `shared` leading bytes (when
/// both go on), with tails of independent length.
fn sibling_keys(g: &mut Gen, shared: usize) -> (K, K) {
    let stem = random_bytes(g, shared);
    let tail = |g: &mut Gen, first: u8| {
        let mut t = stem.clone();
        if g.bool(0.8) {
            t.push(first);
            let extra = g.usize_in(0, 3);
            t.extend(random_bytes(g, extra));
        }
        t
    };
    let (a, b) = (tail(g, 2), tail(g, 3));
    if g.bool(0.5) {
        (K::Bytes(a), K::Bytes(b))
    } else {
        (text_key(a), text_key(b))
    }
}

fn assert_prefix_agrees(a: &K, b: &K) {
    let (ea, eb) = (SortKey::new(a, 0), SortKey::new(b, 0));
    match ea.prefix_cmp(&eb) {
        Ordering::Less => assert!(a < b, "{a:?} sorts before {b:?} by prefix only"),
        Ordering::Greater => assert!(a > b, "{a:?} sorts after {b:?} by prefix only"),
        Ordering::Equal => {
            assert_eq!(ea.is_exact(), eb.is_exact());
            if ea.is_exact() {
                assert_eq!(a, b, "equal exact prefixes must mean equal keys");
            }
        }
    }
    assert_eq!(eb.prefix_cmp(&ea), ea.prefix_cmp(&eb).reverse());
}

#[test]
fn key_prefix_order_never_contradicts_key_order() {
    check("prefix-order", Config::with_cases(400), |g| {
        let (a, b) = (random_key(g), random_key(g));
        assert_prefix_agrees(&a, &b);
        assert_prefix_agrees(&a, &a.clone());
        for shared in [7, 8, 15, 16] {
            let (a, b) = sibling_keys(g, shared);
            assert_prefix_agrees(&a, &b);
        }
    });
    // The arrival index breaks ties between equal keys.
    let k = K::from("same");
    assert!(SortKey::new(&k, 0) < SortKey::new(&k, 1));
    assert!(SortKey::new(&K::Int(-1), 9) < SortKey::new(&K::Int(0), 0));
    assert!(SortKey::new(&K::Int(i64::MAX), 0) < SortKey::new(&K::from(""), 0));
}

/// Partitions drawn from a small key pool of all three variants (so
/// groups span partitions and tie across them), with long keys that share
/// 15 and more leading bytes in it, and an empty partition somewhere among
/// the others; every value is unique, so per-key value order is checked
/// too.
fn random_partitions(g: &mut Gen, value: fn(&mut Gen, i64) -> V) -> Vec<Vec<Record>> {
    let mut pool: Vec<K> = (0..g.usize_in(1, 12)).map(|_| random_key(g)).collect();
    for shared in [15, 16, 20] {
        let (a, b) = sibling_keys(g, shared);
        pool.extend([a, b]);
    }
    let mut next = 0i64;
    let mut parts: Vec<Vec<Record>> = (0..g.usize_in(0, 6))
        .map(|_| {
            (0..g.usize_in(0, 40))
                .map(|_| {
                    next += 1;
                    (g.choose(&pool).clone(), value(g, next))
                })
                .collect()
        })
        .collect();
    let at = g.usize_in(0, parts.len());
    parts.insert(at, Vec::new());
    parts
}

/// The `n`-th value as one of every kind a column can hold, scalar or
/// heap-backed, so runs degrade to the mixed column at random points.
fn any_value(g: &mut Gen, n: i64) -> V {
    match g.usize_in(0, 5) {
        0 => V::Int(n),
        1 => V::Float(n as f64),
        2 => V::Text(n.to_string()),
        3 => V::Vector(vec![n as f64; 2]),
        4 => V::Tuple(vec![V::Int(n), V::Null]),
        _ => V::Bytes(n.to_le_bytes().into()),
    }
}

/// Each partition sealed into a run, as a map spills it.
fn to_runs(parts: &[Vec<Record>]) -> Vec<Run> {
    parts.iter().map(|part| part.iter().cloned().collect()).collect()
}

/// `records` as a sealed run holds them: grouped by key, in key order.
fn grouped(records: Vec<Record>) -> Vec<Record> {
    let groups = group_by_key(records).into_iter();
    groups.flat_map(|(k, vs)| vs.into_iter().map(move |v| (k.clone(), v))).collect()
}

fn streamed(runs: &mut [Run]) -> Vec<(K, Vec<V>)> {
    let mut lent: Vec<&mut Run> = runs.iter_mut().collect();
    let mut groups = Vec::new();
    for_each_group(&mut lent, |k, vals| groups.push((k.clone(), vals.to_vec())));
    groups
}

#[test]
fn streamed_groups_equal_group_by_key_of_the_concatenation() {
    // Distinct scalars, one scalar throughout (a column of a value and a
    // count), one scalar until another arrives, and every kind at random.
    let values: [fn(&mut Gen, i64) -> V; 5] = [
        |_, n| V::Int(n),
        |_, n| V::Float(n as f64),
        |_, _| V::Int(1),
        |g, n| if g.bool(0.95) { V::Float(0.0) } else { V::Float(-(n as f64)) },
        any_value,
    ];
    check("streamed-groups", Config::with_cases(200), |g| {
        let value = *g.choose(&values);
        let parts = random_partitions(g, value);
        let expected = group_by_key(parts.concat());
        // The runs are sealed before the merge, as maps spill them.
        let mut runs = to_runs(&parts);
        for (run, part) in runs.iter().zip(&parts) {
            assert_eq!(run.to_records(), grouped(part.clone()));
        }
        let before = runs.clone();

        assert_eq!(streamed(&mut runs), expected);
        assert_eq!(runs, before, "the merge must leave the lent runs as they were");
        // A reduce lost to a tracker failure re-runs from the same runs.
        assert_eq!(streamed(&mut runs), expected);
        assert_eq!(runs, before);
    });
}

/// Keys of 16 bytes or more that share their first 15 have equal sort
/// prefixes, so the merge must compare the rest of the bytes: the one path
/// of the merge that neither the HS keys (10 bytes) nor the corpus words
/// (under 16) reach.
#[test]
fn long_keys_sharing_their_prefix_merge_across_runs() {
    check("long-keys", Config::with_cases(200), |g| {
        let stem = random_bytes(g, 15);
        let mut pool: Vec<K> = Vec::new();
        for _ in 0..g.usize_in(2, 8) {
            let extra = g.usize_in(1, 5);
            let bytes = [stem.clone(), random_bytes(g, extra)].concat();
            pool.push(if g.bool(0.5) { K::Bytes(bytes) } else { text_key(bytes) });
        }
        let mut next = 0i64;
        let mut parts: Vec<Vec<Record>> = Vec::new();
        for _ in 0..g.usize_in(3, 6) {
            // An empty run before every full one.
            parts.push(Vec::new());
            let len = g.usize_in(1, 30);
            parts.push(
                (0..len)
                    .map(|_| {
                        next += 1;
                        (g.choose(&pool).clone(), V::Int(next))
                    })
                    .collect(),
            );
        }
        let expected = group_by_key(parts.concat());
        let mut runs = to_runs(&parts);
        assert_eq!(streamed(&mut runs), expected);
        assert_eq!(streamed(&mut runs), expected, "the reduce-loss re-run");
    });
}

/// Snapshots hold a run as the records it stands for, in key order; one
/// that holds them in emission order, as a run that was never sorted
/// writes them, must decode to the same sealed run. That is why sorting
/// runs kept the snapshot version.
#[test]
fn a_run_decodes_alike_from_emission_order_and_key_order() {
    let encode = |records: &Vec<Record>| {
        let mut e = Encoder::new();
        records.encode(&mut e);
        e.finish()
    };
    check("run-decode-order", Config::with_cases(200), |g| {
        let value = *g.choose(&[|_: &mut Gen, n| V::Int(n), |_: &mut Gen, _| V::Int(1), any_value]);
        let records = random_partitions(g, value).concat();
        let emitted = Run::decode(&mut Decoder::new(&encode(&records)));
        let sorted = Run::decode(&mut Decoder::new(&encode(&grouped(records.clone()))));
        assert_eq!(emitted, sorted);
        assert_eq!(emitted, records.into_iter().collect::<Run>());
    });
}

#[test]
fn a_column_that_meets_another_kind_keeps_every_value_in_order() {
    check("column-degrade", Config::with_cases(100), |g| {
        let ints = g.usize_in(0, 20);
        let mut records: Vec<Record> =
            (0..ints).map(|i| (random_key(g), V::Int(i as i64))).collect();
        records.push((random_key(g), V::from("text")));
        for i in 0..g.usize_in(0, 20) {
            records.push((random_key(g), any_value(g, i as i64)));
        }
        let run: Run = records.iter().cloned().collect();
        assert_eq!(run.to_records(), grouped(records.clone()));
        assert_eq!(run.bytes(), records_size(&records));
        assert_eq!(streamed(&mut [run]), group_by_key(records));
    });
}

/// Sums integer values per key; combines the groups `accepts` says.
struct SumApp {
    accepts: Option<fn(&K) -> bool>,
}

impl MapReduceApp for SumApp {
    fn name(&self) -> &str {
        "sum"
    }
    fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        out(k.clone(), v.clone());
    }
    fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
        out(k.clone(), V::Int(vs.iter().map(V::as_int).sum()));
    }
    fn combine(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) -> bool {
        let accepted = self.accepts.is_some_and(|f| f(k));
        if accepted {
            out(k.clone(), V::Int(vs.iter().map(V::as_int).sum()));
        }
        accepted
    }
}

/// An app that leaves `combine` at the trait's default.
struct NoCombinerApp;

impl MapReduceApp for NoCombinerApp {
    fn name(&self) -> &str {
        "plain"
    }
    fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        out(k.clone(), v.clone());
    }
    fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
        out(k.clone(), vs[0].clone());
    }
}

/// The combiner over `group_by_key`: each group combined or put back
/// verbatim, in key order.
fn reference_combiner(app: &dyn MapReduceApp, records: Vec<Record>) -> Vec<Record> {
    let mut out: Vec<Record> = Vec::new();
    for (k, vals) in group_by_key(records) {
        if !app.combine(&k, &vals, &mut |ek, ev| out.push((ek, ev))) {
            out.extend(vals.into_iter().map(|v| (k.clone(), v)));
        }
    }
    out
}

#[test]
fn in_place_combiner_equals_the_grouping_one() {
    let every_other: fn(&K) -> bool = |k| k.stable_hash() % 2 == 0;
    let apps: [(&str, Box<dyn MapReduceApp>); 4] = [
        ("always", Box::new(SumApp { accepts: Some(|_| true) })),
        ("never", Box::new(SumApp { accepts: None })),
        ("alternating", Box::new(SumApp { accepts: Some(every_other) })),
        ("no combiner", Box::new(NoCombinerApp)),
    ];
    check("combiner", Config::with_cases(200), |g| {
        let ones = g.bool(0.3);
        let partition =
            random_partitions(g, if ones { |_, _| V::Int(1) } else { |_, n| V::Int(n) }).concat();
        let run: Run = partition.iter().cloned().collect();
        for (name, app) in &apps {
            let combined = combine_run(app.as_ref(), run.clone());
            let expected = reference_combiner(app.as_ref(), partition.clone());
            assert_eq!(combined.to_records(), expected, "{name}");
            assert_eq!(combined.bytes(), records_size(&expected), "{name}");
            if matches!(*name, "never" | "no combiner") {
                assert_eq!(combined, run, "{name}: the sealed run must come back");
            }
        }
    });
}

/// `groups` as the encoding of their records, which tells `-0.0` from
/// `0.0` and one `NaN` payload from another.
fn bits(groups: &[(K, Vec<V>)]) -> Vec<u8> {
    let records: Vec<Record> =
        groups.iter().flat_map(|(k, vs)| vs.iter().map(move |v| (k.clone(), v.clone()))).collect();
    let mut e = Encoder::new();
    records.encode(&mut e);
    e.finish()
}

/// Runs of `(key, value, copies)` records.
fn runs_of(parts: &[Vec<(&str, V, usize)>]) -> Vec<Vec<Record>> {
    let record = |(k, v, n): &(&str, V, usize)| vec![(K::from(*k), v.clone()); *n];
    parts.iter().map(|part| part.iter().flat_map(record).collect()).collect()
}

/// Values reach `reduce` with their exact bits however they are lent: a
/// group whose runs all hold one scalar is a prefix of the merge's copies
/// of it — reused while the scalar stays, refilled when it changes or a
/// group outgrows them — and any other group is lent value by value.
#[test]
fn lent_values_keep_their_exact_bits() {
    let nan = |payload: u64| V::Float(f64::from_bits(f64::NAN.to_bits() | payload));
    let (zero, minus_zero) = (V::Float(0.0), V::Float(-0.0));
    let cases = [
        // `0.0` next to `-0.0` in one group, and each in groups of its own.
        vec![
            vec![("a", zero.clone(), 2), ("b", zero.clone(), 3)],
            vec![("a", minus_zero.clone(), 3), ("c", minus_zero.clone(), 1)],
        ],
        // Two NaN payloads, likewise.
        vec![vec![("a", nan(1), 2), ("b", nan(1), 1)], vec![("a", nan(2), 1), ("c", nan(2), 3)]],
        // `Same(Int(1))` next to `Same(Int(2))`; a group of 2s after 1s.
        vec![
            vec![("a", V::Int(1), 1), ("b", V::Int(1), 4)],
            vec![("a", V::Int(2), 2), ("c", V::Int(2), 1)],
        ],
        // `Same(Int(1))` next to an `Int` column.
        vec![
            vec![("a", V::Int(1), 3), ("d", V::Int(1), 1)],
            vec![("a", V::Int(5), 1), ("a", V::Int(6), 1), ("d", V::Int(7), 1)],
        ],
        // One scalar across runs, in groups that shrink and grow.
        vec![
            vec![("a", V::Int(1), 4), ("b", V::Int(1), 1), ("c", V::Int(1), 2)],
            vec![("b", V::Int(1), 2), ("c", V::Int(1), 5)],
        ],
    ];
    for parts in &cases {
        let parts = runs_of(parts);
        let expected = bits(&group_by_key(parts.concat()));
        let mut runs = to_runs(&parts);
        assert_eq!(bits(&streamed(&mut runs)), expected, "{parts:?}");
        assert_eq!(bits(&streamed(&mut runs)), expected, "merged again");
    }
}

/// Records what `combine` is shown, and declines every group.
#[derive(Default)]
struct WatchApp {
    seen: std::cell::RefCell<Vec<(K, Vec<V>)>>,
}

impl MapReduceApp for WatchApp {
    fn name(&self) -> &str {
        "watch"
    }
    fn map(&self, _: &K, _: &V, _: &mut dyn FnMut(K, V)) {}
    fn reduce(&self, _: &K, _: &[V], _: &mut dyn FnMut(K, V)) {}
    fn combine(&self, k: &K, vs: &[V], _: &mut dyn FnMut(K, V)) -> bool {
        self.seen.borrow_mut().push((k.clone(), vs.to_vec()));
        false
    }
}

#[test]
fn a_combiner_over_a_one_scalar_run_sees_its_exact_values() {
    let nan = V::Float(f64::from_bits(f64::NAN.to_bits() | 3));
    for scalar in [V::Float(-0.0), nan, V::Int(1), V::Null] {
        let parts = runs_of(&[vec![("a", scalar.clone(), 3), ("b", scalar.clone(), 1)]]);
        let app = WatchApp::default();
        let run = to_runs(&parts).pop().expect("one run");
        assert_eq!(combine_run(&app, run.clone()), run, "a declined run comes back");
        assert_eq!(bits(&app.seen.into_inner()), bits(&group_by_key(parts.concat())));
    }
}

/// Counts the calls of the hash partitioner it stands for.
struct CountingPartitioner(Arc<AtomicUsize>);

impl Partitioner for CountingPartitioner {
    fn partition(&self, key: &K, n: u32) -> u32 {
        self.0.fetch_add(1, AtomicOrdering::Relaxed);
        HashPartitioner.partition(key, n)
    }
}

/// Counts each key's records, partitioned by a [`CountingPartitioner`].
struct CountKeysApp(Arc<AtomicUsize>);

impl MapReduceApp for CountKeysApp {
    fn name(&self) -> &str {
        "count-keys"
    }
    fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        out(k.clone(), v.clone());
    }
    fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
        out(k.clone(), V::Int(vs.len() as i64));
    }
    fn partitioner(&self) -> Box<dyn Partitioner> {
        Box::new(CountingPartitioner(Arc::clone(&self.0)))
    }
}

/// A map asks the partitioner once per distinct key it emitted, however
/// many records carry the key, and a job with one reduce never asks it.
#[test]
fn the_partitioner_is_asked_once_per_key_per_map() {
    const MAPS: usize = 8;
    // Map `m` emits 300 records over `20 + m` keys, texts and integers.
    let split = |m: usize| -> Vec<Record> {
        (0..300)
            .map(|i| {
                let j = i % (20 + m);
                let k = if j.is_multiple_of(2) {
                    K::from(format!("key-{j}").as_str())
                } else {
                    K::Int(j as i64)
                };
                (k, V::Int(1))
            })
            .collect()
    };
    let distinct: usize = (0..MAPS).map(|m| 20 + m).sum();
    for reduces in [1, 2, 4, 7] {
        let calls = Arc::new(AtomicUsize::new(0));
        let mut p = launch_fig2(MAPS as u64 * MB, 5, FaultPlan::new());
        p.register_input("/keys", MAPS as u64 * MB - 1, VmId(1));
        let input = GeneratorInput::new(MAPS, MB, split);
        let config = JobConfig::default().with_combiner(false).with_reduces(reduces);
        let spec = JobSpec::new("count-keys", "/keys", "/keys-out").with_config(config);
        let result = p.run_job(spec, Box::new(CountKeysApp(Arc::clone(&calls))), Box::new(input));
        assert_eq!(result.counters.map_output_records, 300 * MAPS as u64);
        let expected = if reduces == 1 { 0 } else { distinct };
        assert_eq!(calls.load(AtomicOrdering::Relaxed), expected, "{reduces} reduces");
        let mut outputs = result.outputs;
        outputs.sort_by(|a, b| a.0.cmp(&b.0));
        let records: Vec<Record> = (0..MAPS).flat_map(split).collect();
        let counts: Vec<Record> =
            group_by_key(records).into_iter().map(|(k, vs)| (k, V::Int(vs.len() as i64))).collect();
        assert_eq!(outputs, counts, "{reduces} reduces");
    }
}

/// Steps `p` until its job is done; the job's outputs.
fn finish(mut p: VHadoop) -> Vec<Record> {
    loop {
        let (_, events) = p.step().expect("the job finishes before the queue drains");
        for event in events {
            if let PlatformEvent::Job(JobEvent::JobDone(result)) = event {
                return result.outputs;
            }
        }
    }
}

/// Between the end of the map phase and the first finished reduce, a
/// no-combiner job's records exist only as map-output runs. A snapshot
/// taken there must carry them: the restored platform finishes with the
/// uninterrupted run's outputs, and encodes to the very bytes it was
/// restored from.
#[test]
fn a_snapshot_of_live_runs_restores_and_finishes_alike() {
    const INPUT: u64 = 4 * MB;
    let launch = || {
        let mut p = launch_fig2(INPUT, 31, FaultPlan::new());
        let (spec, app, input) = fig2_job(&mut p, INPUT, 31);
        p.rt.submit(spec, app, input);
        p
    };
    let plain = finish(launch());
    assert!(!plain.is_empty());

    let mut p = launch();
    let snap = loop {
        let (_, events) = p.step().expect("the map phase ends");
        let any = |f: fn(&JobEvent) -> bool| {
            events.iter().any(|e| matches!(e, PlatformEvent::Job(j) if f(j)))
        };
        assert!(!any(|j| matches!(j, JobEvent::ReduceDone(..))), "a reduce finished first");
        if any(|j| matches!(j, JobEvent::MapPhaseDone(_))) {
            break p.snapshot();
        }
    };
    assert_eq!(VHadoop::restore(&snap).snapshot().bytes, snap.bytes);
    assert_eq!(finish(VHadoop::restore(&snap)), plain);
    assert_eq!(finish(p), plain, "taking the snapshot must not disturb the parent");
}

/// A map-only job's outputs sit in the tasks' own slots, not among the
/// runs; snapshots taken all along it restore to themselves and finish
/// with the same records.
#[test]
fn a_snapshot_mid_map_only_job_restores_and_finishes_alike() {
    let plan = HsPlan::new(400_000, 1, RootSeed(9)).with_block_size(50_000);
    let mut p = launch_fig2(MB, 9, FaultPlan::new());
    let (spec, app, input) = hsgen_job(&plan);
    p.rt.submit(spec, app, input);
    let mut snaps = Vec::new();
    let plain = loop {
        snaps.push(p.snapshot());
        let (_, events) = p.step().expect("the job finishes before the queue drains");
        let done = events.into_iter().find_map(|e| match e {
            PlatformEvent::Job(JobEvent::JobDone(result)) => Some(result.outputs),
            _ => None,
        });
        if let Some(outputs) = done {
            break outputs;
        }
    };
    assert_eq!(plain.len() as u64, plan.total_records());
    for snap in &snaps {
        assert_eq!(VHadoop::restore(snap).snapshot().bytes, snap.bytes);
    }
    assert_eq!(finish(VHadoop::restore(&snaps[snaps.len() / 2])), plain);
}
