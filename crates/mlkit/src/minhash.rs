//! MinHash clustering — "probabilistic dimension reduction of high
//! dimensional data ... hash each item using multiple independent hash
//! functions such that the probability of collision of similar items is
//! higher" (Mahout `MinHashDriver`).
//!
//! Vectors are discretized into feature sets; `num_hashes` universal hash
//! functions produce a signature whose banded groups become shuffle keys.
//! Items that share a band signature land in the same reducer group —
//! a candidate cluster. A single MapReduce pass.

use crate::mlrt::{MlRunStats, MlRuntime};
use mapreduce::prelude::*;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simcore::rng::RootSeed;
use std::collections::BTreeSet;

/// A large Mersenne prime for universal hashing.
const P: u64 = (1 << 61) - 1;

/// MinHash parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinHashParams {
    /// Total hash functions.
    pub num_hashes: usize,
    /// Rows per band (hashes grouped per shuffle key).
    pub rows_per_band: usize,
    /// Minimum group size to report as a cluster.
    pub min_cluster_size: usize,
    /// Bin width for discretizing vector coordinates into set elements.
    pub bin_width: f64,
}

impl Default for MinHashParams {
    fn default() -> Self {
        MinHashParams { num_hashes: 20, rows_per_band: 2, min_cluster_size: 2, bin_width: 1.0 }
    }
}

/// The family of seeded universal hash functions `h(x) = (a·x + b) mod p`.
#[derive(Debug, Clone)]
pub struct HashFamily {
    coeffs: Vec<(u64, u64)>,
}

impl HashFamily {
    /// `n` functions derived from `seed`.
    pub fn new(n: usize, seed: RootSeed) -> Self {
        let mut rng = seed.stream("minhash-family");
        let coeffs = (0..n).map(|_| (rng.gen_range(1..P), rng.gen_range(0..P))).collect();
        HashFamily { coeffs }
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True when the family is empty.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// MinHash signature of a feature set.
    pub fn signature(&self, set: &BTreeSet<u64>) -> Vec<u64> {
        self.coeffs
            .iter()
            .map(|&(a, b)| {
                set.iter()
                    .map(|&x| {
                        ((u128::from(a) * u128::from(x) + u128::from(b)) % u128::from(P)) as u64
                    })
                    .min()
                    .unwrap_or(u64::MAX)
            })
            .collect()
    }
}

/// Discretizes a vector into a feature set: element `d · 2⁲⁰ + bin(x_d)`.
pub fn vector_to_set(v: &[f64], bin_width: f64) -> BTreeSet<u64> {
    v.iter()
        .enumerate()
        .map(|(d, &x)| {
            let bin = (x / bin_width).floor() as i64;
            ((d as u64) << 20) ^ (bin as u64 & 0xF_FFFF)
        })
        .collect()
}

/// In-memory reference: banded LSH grouping. Returns clusters as sorted
/// id lists (size ≥ `min_cluster_size`), deduplicated.
pub fn reference(points: &[Vec<f64>], params: MinHashParams, seed: RootSeed) -> Vec<Vec<usize>> {
    let family = HashFamily::new(params.num_hashes, seed);
    let bands = params.num_hashes / params.rows_per_band;
    let mut groups: std::collections::HashMap<(usize, Vec<u64>), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, p) in points.iter().enumerate() {
        let set = vector_to_set(p, params.bin_width);
        let sig = family.signature(&set);
        for band in 0..bands {
            let lo = band * params.rows_per_band;
            let key = sig[lo..lo + params.rows_per_band].to_vec();
            groups.entry((band, key)).or_default().push(i);
        }
    }
    let mut clusters: Vec<Vec<usize>> = groups
        .into_values()
        .filter(|g| g.len() >= params.min_cluster_size)
        .map(|mut g| {
            g.sort_unstable();
            g
        })
        .collect();
    clusters.sort();
    clusters.dedup();
    clusters
}

/// The MinHash MapReduce pass.
#[derive(Debug, Clone)]
pub struct MinHashPass {
    /// Parameters.
    pub params: MinHashParams,
    /// Seed for the hash family.
    pub seed: RootSeed,
}

impl MapReduceApp for MinHashPass {
    fn name(&self) -> &str {
        "minhash"
    }

    fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        let family = HashFamily::new(self.params.num_hashes, self.seed);
        let set = vector_to_set(v.as_vector(), self.params.bin_width);
        let sig = family.signature(&set);
        let bands = self.params.num_hashes / self.params.rows_per_band;
        for band in 0..bands {
            let lo = band * self.params.rows_per_band;
            let mut key = Vec::with_capacity(8 + self.params.rows_per_band * 8);
            key.extend_from_slice(&(band as u64).to_be_bytes());
            for h in &sig[lo..lo + self.params.rows_per_band] {
                key.extend_from_slice(&h.to_be_bytes());
            }
            out(K::Bytes(key), V::Int(k.as_int()));
        }
    }

    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
        if values.len() >= self.params.min_cluster_size {
            let mut ids: Vec<i64> = values.iter().map(V::as_int).collect();
            ids.sort_unstable();
            out(key.clone(), V::Tuple(ids.into_iter().map(V::Int).collect()));
        }
    }
}

/// Runs MinHash clustering as one MapReduce pass; returns clusters as
/// sorted id lists plus run statistics.
pub fn run_mr(
    ml: &mut MlRuntime,
    params: MinHashParams,
    seed: RootSeed,
) -> (Vec<Vec<usize>>, MlRunStats) {
    let result = ml.run_pass(
        "minhash",
        Box::new(MinHashPass { params, seed }),
        JobConfig::default().with_reduces(1).with_combiner(false),
    );
    let mut clusters: Vec<Vec<usize>> = result
        .outputs
        .iter()
        .map(|(_, v)| v.as_tuple().iter().map(|id| id.as_int() as usize).collect())
        .collect();
    clusters.sort();
    clusters.dedup();
    let stats = MlRunStats {
        iterations: 1,
        elapsed_s: result.elapsed_secs(),
        per_pass_s: vec![result.elapsed_secs()],
    };
    (clusters, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Jaccard similarity of two non-empty sets, the reference the
    /// collision rate is checked against.
    fn jaccard(a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> f64 {
        a.intersection(b).count() as f64 / a.union(b).count() as f64
    }

    #[test]
    fn signature_collision_rate_approximates_jaccard() {
        // Two sets with known overlap; P(minhash collision) = Jaccard.
        let a: BTreeSet<u64> = (0..60).collect();
        let b: BTreeSet<u64> = (30..90).collect(); // Jaccard = 30/90 = 1/3
        let family = HashFamily::new(600, RootSeed(21));
        let sa = family.signature(&a);
        let sb = family.signature(&b);
        let hits = sa.iter().zip(&sb).filter(|(x, y)| x == y).count() as f64;
        let rate = hits / family.len() as f64;
        let j = jaccard(&a, &b);
        assert!((rate - j).abs() < 0.08, "collision rate {rate:.3} ≈ Jaccard {j:.3}");
    }

    #[test]
    fn identical_points_always_cluster() {
        let pts = vec![vec![1.0, 2.0], vec![1.0, 2.0], vec![50.0, 50.0]];
        let clusters = reference(&pts, MinHashParams::default(), RootSeed(22));
        assert!(
            clusters.iter().any(|c| c.contains(&0) && c.contains(&1)),
            "identical points share every band"
        );
        assert!(
            !clusters.iter().any(|c| c.contains(&0) && c.contains(&2)),
            "distant points never collide on all rows"
        );
    }

    #[test]
    fn mr_matches_reference() {
        use vcluster::spec::{ClusterSpec, Placement};
        let pts = crate::datasets::gaussian_mixture(RootSeed(23), 1).points;
        let spec =
            ClusterSpec::builder().hosts(2).vms(4).placement(Placement::SingleDomain).build();
        let mut ml = crate::mlrt::MlRuntime::new(spec, pts.clone(), RootSeed(23));
        let params = MinHashParams::default();
        let (mr_clusters, stats) = run_mr(&mut ml, params, RootSeed(24));
        let ref_clusters = reference(&pts, params, RootSeed(24));
        assert_eq!(mr_clusters, ref_clusters);
        assert_eq!(stats.iterations, 1);
        assert!(!mr_clusters.is_empty(), "the tight Gaussian must produce collisions");
    }

    #[test]
    fn bin_width_controls_sensitivity() {
        let pts = [vec![0.0, 0.0], vec![0.4, 0.4], vec![9.0, 9.0]];
        // Coarse bins: the two nearby points share all features.
        let coarse = vector_to_set(&pts[0], 1.0);
        let coarse2 = vector_to_set(&pts[1], 1.0);
        assert_eq!(jaccard(&coarse, &coarse2), 1.0);
        // Fine bins separate them.
        let fine = vector_to_set(&pts[0], 0.1);
        let fine2 = vector_to_set(&pts[1], 0.1);
        assert!(jaccard(&fine, &fine2) < 0.5);
    }
}
