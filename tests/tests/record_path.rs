//! Properties of the copy-free record path (DESIGN.md §20): the sort
//! index's key prefix against `K`'s own order, the index-sorted streaming
//! merge and the in-place combiner against `group_by_key`.

use mapreduce::app::{for_each_group, SortKey};
use mapreduce::prelude::*;
use proptest::{check, Config, Gen};
use std::cmp::Ordering;

fn random_bytes(g: &mut Gen, len: usize) -> Vec<u8> {
    // A small alphabet with 0 in it: ties and embedded zero bytes are common.
    (0..len).map(|_| *g.choose(&[0u8, 0, 1, b'a', b'b', 0xFF])).collect()
}

/// `bytes` as a `Text` key: every byte is cut to ASCII, so still ordered
/// byte by byte, zeros included.
fn text_key(bytes: Vec<u8>) -> K {
    K::Text(bytes.into_iter().map(|b| (b & 0x7F) as char).collect())
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

/// Partitions drawn from a small key pool (so groups span partitions),
/// with long keys that share 15 and more leading bytes in it; every value
/// is unique, so per-key value order is checked too.
fn random_partitions(g: &mut Gen) -> Vec<Vec<Record>> {
    let mut pool: Vec<K> = (0..g.usize_in(1, 12)).map(|_| random_key(g)).collect();
    for shared in [15, 16, 20] {
        let (a, b) = sibling_keys(g, shared);
        pool.extend([a, b]);
    }
    let mut next = 0i64;
    (0..g.usize_in(0, 6))
        .map(|_| {
            (0..g.usize_in(0, 40))
                .map(|_| {
                    next += 1;
                    (g.choose(&pool).clone(), V::Int(next))
                })
                .collect()
        })
        .collect()
}

#[test]
fn streamed_groups_equal_group_by_key_of_the_concatenation() {
    check("streamed-groups", Config::with_cases(200), |g| {
        let mut parts = random_partitions(g);
        let before = parts.clone();
        let expected = group_by_key(parts.concat());

        let mut lent: Vec<&mut Record> = parts.iter_mut().flatten().collect();
        let mut streamed: Vec<(K, Vec<V>)> = Vec::new();
        for_each_group(&mut lent, |k, vals| streamed.push((k.clone(), vals.to_vec())));

        assert_eq!(streamed, expected);
        assert_eq!(parts, before, "the merge must leave the lent partitions as they were");
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

/// The combiner as it was before the in-place one: group, combine or put
/// back verbatim, and fall back to the untouched partition if no group
/// was combined.
fn reference_combiner(app: &dyn MapReduceApp, records: Vec<Record>) -> Vec<Record> {
    let mut out: Vec<Record> = Vec::new();
    let mut any = false;
    for (k, vals) in group_by_key(records.clone()) {
        if app.combine(&k, &vals, &mut |ek, ev| out.push((ek, ev))) {
            any = true;
        } else {
            out.extend(vals.into_iter().map(|v| (k.clone(), v)));
        }
    }
    if any {
        out
    } else {
        records
    }
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
        let partition = random_partitions(g).concat();
        for (name, app) in &apps {
            let combined = run_combiner(app.as_ref(), partition.clone());
            assert_eq!(combined, reference_combiner(app.as_ref(), partition.clone()), "{name}");
            if matches!(*name, "never" | "no combiner") {
                assert_eq!(combined, partition, "{name}: emission order must survive");
            }
        }
    });
}
