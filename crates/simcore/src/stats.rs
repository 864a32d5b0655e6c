//! Small statistics helpers shared by the monitor and the bench harness.

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for < 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Summary of a finished sample set, including percentiles.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes `xs` (empty input produces an all-zero summary).
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                p50: 0.0,
                p95: 0.0,
                max: 0.0,
            };
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let mut acc = OnlineStats::new();
        for &x in xs {
            acc.push(x);
        }
        Summary {
            n: xs.len(),
            mean: acc.mean(),
            stddev: acc.stddev(),
            min: sorted[0],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Fixed-bucket histogram of small integer sizes (one bucket per value up
/// to [`SizeHist::EXACT`], a single overflow bucket above that which
/// remembers only the maximum). Used by the fluid kernel to record the
/// flow count of every connected component it re-solves, so the cost of
/// an incremental re-solve (p99 / max component size) is observable.
///
/// Deterministic: state is a pure function of the pushed samples, so the
/// histogram participates in snapshot round-trips.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SizeHist {
    /// `counts[s]` = number of samples of size `s` (lazily grown, capped
    /// at `EXACT` entries).
    pub(crate) counts: Vec<u64>,
    /// Samples with size >= `EXACT`.
    pub(crate) overflow: u64,
    /// Total samples.
    pub(crate) n: u64,
    /// Largest sample seen.
    pub(crate) max: u64,
}

crate::persist_struct!(SizeHist { counts, overflow, n, max });

impl SizeHist {
    /// Sizes below this are counted exactly; at or above, only the count
    /// and the running maximum are kept.
    pub const EXACT: u64 = 1024;

    /// Empty histogram.
    pub fn new() -> Self {
        SizeHist::default()
    }

    /// Records one sample.
    pub fn push(&mut self, size: u64) {
        self.n += 1;
        self.max = self.max.max(size);
        if size < Self::EXACT {
            let idx = size as usize;
            if self.counts.len() <= idx {
                self.counts.resize(idx + 1, 0);
            }
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The sample at rank `round((n − 1) · p)`; `p` in [0, 1]. Samples in the
    /// overflow bucket resolve to the maximum. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = rank(self.n as usize, p) as u64;
        let mut seen = 0u64;
        for (size, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return size as u64;
            }
        }
        self.max
    }
}

/// The percentile rule of the workspace: of `n > 0` sorted samples, the
/// `p`-th percentile (`p` in [0, 1], clamped) is the one at zero-based
/// rank `round((n − 1) · p)`.
fn rank(n: usize, p: f64) -> usize {
    (p.clamp(0.0, 1.0) * (n - 1) as f64).round() as usize
}

/// The sample at rank `round((n − 1) · p)` of a pre-sorted slice; `p` in
/// [0, 1].
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    sorted[rank(sorted.len(), p)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_matches_batch() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut acc = OnlineStats::new();
        for &x in &xs {
            acc.push(x);
        }
        assert_eq!(acc.count(), 5);
        assert!((acc.mean() - 4.0).abs() < 1e-12);
        assert_eq!(acc.min(), Some(1.0));
        assert_eq!(acc.max(), Some(10.0));
        // Population variance: mean 4, squared devs 9+4+1+0+36 = 50, /5 = 10.
        assert!((acc.variance() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let acc = OnlineStats::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
        assert_eq!(acc.min(), None);
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
    }

    #[test]
    fn summary_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.0).abs() <= 1.0);
        assert!((s.p95 - 95.0).abs() <= 1.0);
    }

    #[test]
    fn size_hist_percentiles_and_overflow() {
        let mut h = SizeHist::new();
        for s in 1..=100u64 {
            h.push(s);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 100);
        assert!(h.percentile(0.5).abs_diff(50) <= 1);
        assert!(h.percentile(0.99).abs_diff(99) <= 1);
        assert_eq!(h.percentile(1.0), 100);
        // Overflow samples resolve to the max.
        h.push(SizeHist::EXACT + 7);
        assert_eq!(h.max(), SizeHist::EXACT + 7);
        assert_eq!(h.percentile(1.0), SizeHist::EXACT + 7);
        // Empty histogram is all zeros.
        let e = SizeHist::new();
        assert_eq!(e.percentile(0.5), 0);
        assert_eq!(e.max(), 0);
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::of(&[7.5]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.p50, 7.5);
        assert_eq!(s.stddev, 0.0);
    }
}
