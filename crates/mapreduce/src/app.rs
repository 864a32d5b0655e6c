//! The user-code interface: map/combine/reduce functions, cost profiles,
//! and partitioners.

use crate::types::{Record, K, V};
use serde::{Deserialize, Serialize};

/// CPU cost model of an application, in guest cycles. The engine measures
/// real byte/record counts from the executed data and multiplies by these
/// coefficients to size the compute flows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostProfile {
    /// Map-side cycles per input byte.
    pub map_cpu_per_byte: f64,
    /// Map-side cycles per input record (function-call + object overhead).
    pub map_cpu_per_record: f64,
    /// Reduce-side cycles per shuffled byte.
    pub reduce_cpu_per_byte: f64,
    /// Reduce-side cycles per intermediate record.
    pub reduce_cpu_per_record: f64,
    /// Merge-sort cycles per byte per log2(segment) during the sort phase.
    pub sort_cpu_per_byte: f64,
}

impl Default for CostProfile {
    fn default() -> Self {
        // Calibrated to 2012-era Hadoop on Java: tens of cycles per byte,
        // thousands per record (deserialization, object churn).
        CostProfile {
            map_cpu_per_byte: 40.0,
            map_cpu_per_record: 4_000.0,
            reduce_cpu_per_byte: 30.0,
            reduce_cpu_per_record: 3_000.0,
            sort_cpu_per_byte: 12.0,
        }
    }
}

/// Decides which reduce partition a key belongs to.
pub trait Partitioner: Send + Sync {
    /// Partition index in `0..n` for `key`.
    fn partition(&self, key: &K, n: u32) -> u32;
}

/// Hadoop's default: `hash(key) mod n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&self, key: &K, n: u32) -> u32 {
        (key.stable_hash() % u64::from(n.max(1))) as u32
    }
}

/// Range partitioner over byte keys (TeraSort's total-order partitioner):
/// splits the key space into `n` equal lexicographic ranges by the first
/// two bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangePartitioner;

impl Partitioner for RangePartitioner {
    fn partition(&self, key: &K, n: u32) -> u32 {
        let n = n.max(1);
        let prefix: u32 = match key {
            K::Bytes(b) => {
                let b0 = b.first().copied().unwrap_or(0) as u32;
                let b1 = b.get(1).copied().unwrap_or(0) as u32;
                (b0 << 8) | b1
            }
            K::Int(i) => (*i as u64 % 65536) as u32,
            K::Text(s) => {
                let b = s.as_bytes();
                let b0 = b.first().copied().unwrap_or(0) as u32;
                let b1 = b.get(1).copied().unwrap_or(0) as u32;
                (b0 << 8) | b1
            }
        };
        ((u64::from(prefix) * u64::from(n)) / 65536) as u32
    }
}

/// A MapReduce application. Implementations run for real inside the
/// simulation: `map` over every input record, `reduce` over every grouped
/// key, with output sizes measured from the records actually emitted.
pub trait MapReduceApp {
    /// Human-readable job name.
    fn name(&self) -> &str;

    /// Map one input record, emitting intermediate records through `out`.
    fn map(&self, key: &K, value: &V, out: &mut dyn FnMut(K, V));

    /// Reduce all values of one key, emitting output records through `out`.
    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V));

    /// Optional map-side combiner over one key group of a map-output
    /// partition. Returning `true` replaces the group with what was
    /// emitted; returning `false` (the default, without emitting) passes
    /// the group through unchanged.
    fn combine(&self, _key: &K, _values: &[V], _out: &mut dyn FnMut(K, V)) -> bool {
        false
    }

    /// The partitioner to shuffle with.
    fn partitioner(&self) -> Box<dyn Partitioner> {
        Box::new(HashPartitioner)
    }

    /// CPU cost coefficients.
    fn cost(&self) -> CostProfile {
        CostProfile::default()
    }
}

/// One entry of the sort index the shuffle merge and the combiner order
/// records by: a fixed-width, order-preserving prefix of a key plus the
/// record's arrival index. The prefix is the variant tag, then for
/// [`K::Int`] the sign-flipped value, for [`K::Text`]/[`K::Bytes`] the
/// first 15 key bytes big-endian and zero-padded followed by one length
/// byte clamped at 16. Prefix order never contradicts [`K`]'s `Ord`
/// (a shorter key is a prefix of any longer key it ties with on padded
/// bytes, and sorts first both ways); only two keys of 16 bytes or more
/// that share their first 15 are left undecided (DESIGN.md §20).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SortKey {
    tag: u8,
    hi: u64,
    lo: u64,
    idx: u32,
}

impl SortKey {
    /// Entry for `key`, the `idx`-th record to arrive.
    ///
    /// # Panics
    /// If `idx` does not fit 32 bits.
    pub fn new(key: &K, idx: usize) -> Self {
        let idx = u32::try_from(idx).expect("more than 2^32 records in one sort");
        let (tag, bytes) = match key {
            K::Int(i) => return SortKey { tag: 0, hi: (*i as u64) ^ (1 << 63), lo: 0, idx },
            K::Text(s) => (1, s.as_bytes()),
            K::Bytes(b) => (2, b.as_slice()),
        };
        let mut buf = [0u8; 16];
        let n = bytes.len().min(15);
        buf[..n].copy_from_slice(&bytes[..n]);
        buf[15] = bytes.len().min(16) as u8;
        let word = |half: &[u8]| u64::from_be_bytes(half.try_into().expect("eight bytes"));
        SortKey { tag, hi: word(&buf[..8]), lo: word(&buf[8..]), idx }
    }

    /// The record's arrival index.
    pub fn index(&self) -> usize {
        self.idx as usize
    }

    /// Whether the prefix holds the whole key, so that equal prefixes mean
    /// equal keys.
    pub fn is_exact(&self) -> bool {
        self.lo & 0xFF < 16
    }

    /// Order of the two keys as far as their prefixes decide it. `Equal`
    /// between inexact entries is undecided: compare the keys.
    pub fn prefix_cmp(&self, other: &SortKey) -> std::cmp::Ordering {
        (self.tag, self.hi, self.lo).cmp(&(other.tag, other.hi, other.lo))
    }

    fn same_key<'a>(&self, other: &SortKey, key: &impl Fn(usize) -> &'a K) -> bool {
        self.prefix_cmp(other).is_eq()
            && (self.is_exact() || key(self.index()) == key(other.index()))
    }
}

/// The arrival indices `0..n` sorted by key, ties in arrival order (what a
/// stable sort of the records would give); `key(i)` lends the `i`-th key.
/// One integer sort over the prefixes; keys are only dereferenced to
/// finish runs the prefix leaves undecided.
fn sort_index<'a>(n: usize, key: &impl Fn(usize) -> &'a K) -> Vec<SortKey> {
    let mut order: Vec<SortKey> = (0..n).map(|i| SortKey::new(key(i), i)).collect();
    order.sort_unstable();
    for run in order.chunk_by_mut(|a, b| a.prefix_cmp(b).is_eq()) {
        if run.len() > 1 && !run[0].is_exact() {
            // Already in arrival order, which a stable sort keeps.
            run.sort_by(|a, b| key(a.index()).cmp(key(b.index())));
        }
    }
    order
}

/// End of the key group of `order` that starts at `start`.
fn group_end<'a>(order: &[SortKey], start: usize, key: &impl Fn(usize) -> &'a K) -> usize {
    let first = &order[start];
    start + order[start..].iter().take_while(|e| first.same_key(e, key)).count()
}

/// Streams the key groups of `records` — taken as one concatenated run in
/// arrival order — to `f` in key order, each group's values in arrival
/// order: what [`group_by_key`] yields, without moving or copying a
/// record. Values are lent through one reused buffer and are back in
/// place when `f` returns. This is the reduce-side merge.
pub fn for_each_group(records: &mut [&mut Record], mut f: impl FnMut(&K, &[V])) {
    let order = sort_index(records.len(), &|i| &records[i].0);
    let mut values: Vec<V> = Vec::new();
    let mut start = 0;
    while start < order.len() {
        let end = group_end(&order, start, &|i| &records[i].0);
        let group = &order[start..end];
        values.extend(group.iter().map(|e| std::mem::replace(&mut records[e.index()].1, V::Null)));
        f(&records[group[0].index()].0, &values);
        for (e, v) in group.iter().zip(values.drain(..)) {
            records[e.index()].1 = v;
        }
        start = end;
    }
}

/// Runs `app`'s combiner over one map-output partition, group by group in
/// key order; used by the map-side spill path. A group the app declines
/// passes through verbatim (anything it emitted before declining is
/// dropped). If the app declines every group — it has no combiner — the
/// partition comes back untouched, in emission order.
pub fn run_combiner(app: &dyn MapReduceApp, mut records: Vec<Record>) -> Vec<Record> {
    let order = sort_index(records.len(), &|i| &records[i].0);
    let mut out: Vec<Record> = Vec::new();
    let mut values: Vec<V> = Vec::new();
    let mut any = false;
    let mut start = 0;
    while start < order.len() {
        let end = group_end(&order, start, &|i| &records[i].0);
        let group = &order[start..end];
        values.extend(group.iter().map(|e| std::mem::replace(&mut records[e.index()].1, V::Null)));
        let mark = out.len();
        let mut emit = |ek: K, ev: V| out.push((ek, ev));
        if app.combine(&records[group[0].index()].0, &values, &mut emit) {
            if !any {
                // Every earlier group was declined and is still in
                // `records`; it goes in front of this first output.
                any = true;
                let combined = out.split_off(mark);
                out.extend(order[..start].iter().map(|e| take_record(&mut records[e.index()])));
                out.extend(combined);
            }
            values.clear();
        } else {
            out.truncate(mark);
            for (e, v) in group.iter().zip(values.drain(..)) {
                records[e.index()].1 = v;
                if any {
                    out.push(take_record(&mut records[e.index()]));
                }
            }
        }
        start = end;
    }
    if any {
        out
    } else {
        records
    }
}

/// Moves a record out of its slot, leaving a placeholder.
fn take_record(slot: &mut Record) -> Record {
    std::mem::replace(slot, (K::Int(0), V::Null))
}

/// Groups records by key, sorted by key (the sort/merge the reduce side
/// sees). Values keep their arrival order within a key. The reference
/// [`for_each_group`] and [`run_combiner`] are tested against.
pub fn group_by_key(mut records: Vec<Record>) -> Vec<(K, Vec<V>)> {
    records.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in records {
        match out.last_mut() {
            Some((lk, vals)) if *lk == k => vals.push(v),
            _ => out.push((k, vec![v])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountApp;
    impl MapReduceApp for CountApp {
        fn name(&self) -> &str {
            "count"
        }
        fn map(&self, _k: &K, value: &V, out: &mut dyn FnMut(K, V)) {
            for w in value.as_text().split_whitespace() {
                out(K::from(w), V::Int(1));
            }
        }
        fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
            out(key.clone(), V::Int(values.iter().map(V::as_int).sum()));
        }
        fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
            out(key.clone(), V::Int(values.iter().map(V::as_int).sum()));
            true
        }
    }

    #[test]
    fn group_by_key_sorts_and_groups() {
        let recs =
            vec![(K::from("b"), V::Int(1)), (K::from("a"), V::Int(2)), (K::from("b"), V::Int(3))];
        let grouped = group_by_key(recs);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0, K::from("a"));
        assert_eq!(grouped[1].1, vec![V::Int(1), V::Int(3)]);
    }

    #[test]
    fn combiner_shrinks_output() {
        let recs =
            vec![(K::from("x"), V::Int(1)), (K::from("x"), V::Int(1)), (K::from("y"), V::Int(1))];
        let combined = run_combiner(&CountApp, recs);
        assert_eq!(combined.len(), 2);
        let x = combined.iter().find(|(k, _)| *k == K::from("x")).unwrap();
        assert_eq!(x.1, V::Int(2));
    }

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = HashPartitioner;
        for i in 0..100i64 {
            let k = K::Int(i);
            let a = p.partition(&k, 7);
            assert_eq!(a, p.partition(&k, 7));
            assert!(a < 7);
        }
    }

    #[test]
    fn range_partitioner_is_monotone() {
        let p = RangePartitioner;
        let k1 = K::Bytes(vec![0, 0, 0]);
        let k2 = K::Bytes(vec![128, 0, 0]);
        let k3 = K::Bytes(vec![255, 255, 0]);
        let (a, b, c) = (p.partition(&k1, 4), p.partition(&k2, 4), p.partition(&k3, 4));
        assert!(a <= b && b <= c);
        assert_eq!(a, 0);
        assert_eq!(c, 3);
    }

    #[test]
    fn partition_zero_n_is_safe() {
        assert_eq!(HashPartitioner.partition(&K::Int(1), 0), 0);
        assert_eq!(RangePartitioner.partition(&K::Int(1), 0), 0);
    }
}
