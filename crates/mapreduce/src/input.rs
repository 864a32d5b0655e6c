//! Input formats: how a job's splits materialize into records.
//!
//! A split corresponds 1:1 to an HDFS block of the job's input file (or to
//! a synthetic generator shard for input-less jobs like TeraGen). A map
//! task borrows its split for the execute phase only: generated splits
//! are produced then and dropped right after, so large inputs never live
//! in memory whole; held splits are lent, never copied.

use crate::types::{records_size, Record};
use std::sync::Arc;

/// Supplies the records of each input split.
// trait: platbench's `ProbedInput` and the speculation tests' `ReadSplitOnly`
pub trait InputFormat: Send {
    /// Number of splits. Must equal the block count of the HDFS input file
    /// when the job has one.
    fn split_count(&self) -> usize;

    /// Materializes the records of split `idx`.
    ///
    /// # Panics
    /// Implementations may panic on out-of-range `idx`.
    fn read_split(&self, idx: usize) -> Vec<Record>;

    /// Lends the records of split `idx` to `f`. This is the engine's only
    /// way in: a format that holds its records overrides it to lend them
    /// without a copy; the default materializes the split for the call.
    fn with_split(&self, idx: usize, f: &mut dyn FnMut(&[Record])) {
        f(&self.read_split(idx));
    }

    /// Logical byte size of split `idx` (drives the HDFS read flow when
    /// the job has no real input file registered).
    fn split_bytes(&self, idx: usize) -> u64 {
        let mut bytes = 0;
        self.with_split(idx, &mut |records| bytes = records_size(records));
        bytes
    }
}

/// Fully materialized input: a vector of splits, shared by every clone —
/// an iterative driver builds it once and hands a clone to each job.
#[derive(Debug, Clone)]
pub struct VecInput {
    /// Each split with its byte size.
    splits: Arc<Vec<(Vec<Record>, u64)>>,
}

impl VecInput {
    /// Wraps pre-built splits.
    pub fn new(splits: Vec<Vec<Record>>) -> Self {
        assert!(!splits.is_empty(), "input needs at least one split");
        let sized = splits.into_iter().map(|s| {
            let bytes = records_size(&s);
            (s, bytes)
        });
        VecInput { splits: Arc::new(sized.collect()) }
    }

    /// Splits `records` into `n` round-robin shards.
    pub fn sharded(records: Vec<Record>, n: usize) -> Self {
        assert!(n > 0, "need at least one shard");
        let mut splits: Vec<Vec<Record>> = (0..n).map(|_| Vec::new()).collect();
        for (i, r) in records.into_iter().enumerate() {
            splits[i % n].push(r);
        }
        VecInput::new(splits)
    }
}

impl InputFormat for VecInput {
    fn split_count(&self) -> usize {
        self.splits.len()
    }

    fn read_split(&self, idx: usize) -> Vec<Record> {
        self.splits[idx].0.clone()
    }

    fn with_split(&self, idx: usize, f: &mut dyn FnMut(&[Record])) {
        f(&self.splits[idx].0);
    }

    fn split_bytes(&self, idx: usize) -> u64 {
        self.splits[idx].1
    }
}

/// Lazily generated input: a closure invoked per split. The closure must
/// be deterministic in `idx` (map retries and speculative copies re-read).
pub struct GeneratorInput<F: Fn(usize) -> Vec<Record> + Send> {
    n: usize,
    bytes_per_split: u64,
    gen: F,
}

impl<F: Fn(usize) -> Vec<Record> + Send> GeneratorInput<F> {
    /// `n` splits of approximately `bytes_per_split` each, produced by `gen`.
    pub fn new(n: usize, bytes_per_split: u64, gen: F) -> Self {
        assert!(n > 0, "need at least one split");
        GeneratorInput { n, bytes_per_split, gen }
    }
}

impl<F: Fn(usize) -> Vec<Record> + Send> InputFormat for GeneratorInput<F> {
    fn split_count(&self) -> usize {
        self.n
    }

    fn read_split(&self, idx: usize) -> Vec<Record> {
        assert!(idx < self.n, "split {idx} out of range ({} splits)", self.n);
        (self.gen)(idx)
    }

    fn split_bytes(&self, _idx: usize) -> u64 {
        self.bytes_per_split
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{K, V};

    #[test]
    fn vec_input_round_trips() {
        let input = VecInput::new(vec![vec![(K::Int(1), V::Null)], vec![(K::Int(2), V::Null)]]);
        assert_eq!(input.split_count(), 2);
        assert_eq!(input.read_split(1)[0].0, K::Int(2));
        assert_eq!(input.split_bytes(0), 9);
        // A clone shares the splits, and lending hands out the very records.
        let lent = |input: &VecInput| {
            let mut at = std::ptr::null();
            input.with_split(1, &mut |records| at = records.as_ptr());
            at
        };
        assert!(!lent(&input).is_null());
        assert_eq!(lent(&input), lent(&input.clone()));
    }

    #[test]
    fn sharded_distributes_round_robin() {
        let records: Vec<Record> = (0..10).map(|i| (K::Int(i), V::Null)).collect();
        let input = VecInput::sharded(records, 3);
        assert_eq!(input.split_count(), 3);
        let sizes: Vec<usize> = (0..3).map(|i| input.read_split(i).len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn generator_is_deterministic() {
        let input = GeneratorInput::new(4, 1000, |idx| vec![(K::Int(idx as i64), V::Null)]);
        assert_eq!(input.read_split(2), input.read_split(2));
        assert_eq!(input.split_bytes(0), 1000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn generator_bounds_checked() {
        let input = GeneratorInput::new(1, 10, |_| vec![]);
        let _ = input.read_split(1);
    }
}
