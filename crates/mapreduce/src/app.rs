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
// trait: apps pick one via `MapReduceApp::partitioner` (terasort, TPCx-HS: `RangePartitioner`)
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
// trait: the user code — `workloads` and `mlkit` apps, test apps, platbench's probes
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

/// Groups records by key, sorted by key (the sort/merge the reduce side
/// sees). Values keep their arrival order within a key. The reference
/// [`crate::run::for_each_group`] and [`crate::run::combine_run`] are
/// tested against.
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
        fn map(&self, _k: &K, _v: &V, _out: &mut dyn FnMut(K, V)) {}
        fn reduce(&self, _k: &K, _vs: &[V], _out: &mut dyn FnMut(K, V)) {}
        fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
            out(key.clone(), V::Int(values.iter().map(V::as_int).sum()));
            true
        }
    }

    #[test]
    fn combiner_shrinks_output() {
        let run: crate::run::Run =
            [(K::from("x"), V::Int(1)), (K::from("y"), V::Int(1)), (K::from("x"), V::Int(1))]
                .into_iter()
                .collect();
        let combined = crate::run::combine_run(&CountApp, run);
        assert_eq!(combined.to_records(), [(K::from("x"), V::Int(2)), (K::from("y"), V::Int(1))]);
        assert_eq!(combined.bytes(), 2 * (5 + 8));
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
