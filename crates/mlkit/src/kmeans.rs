//! k-means clustering — reference implementation and Mahout-style
//! MapReduce formulation.
//!
//! MR shape (Mahout `KMeansDriver`): the mapper assigns each point to its
//! nearest current center and emits `(center, (Σx, n))` partials, the
//! combiner pre-aggregates, the reducer averages into new centers; the
//! driver re-broadcasts centers and iterates until movement falls below
//! the convergence delta.

use crate::mlrt::{iterate_centers, sum_weighted_tuples, Clustering, MlRunStats, MlRuntime};
use crate::vector::{nearest, scale, Distance};
use mapreduce::prelude::*;
use rand::Rng;
use simcore::rng::RootSeed;

/// k-means parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansParams {
    /// Number of clusters.
    pub k: usize,
    /// Iteration cap.
    pub max_iters: u32,
    /// Stop when every center moves less than this (Euclidean).
    pub convergence: f64,
    /// Distance measure.
    pub distance: Distance,
}

impl Default for KMeansParams {
    fn default() -> Self {
        KMeansParams { k: 6, max_iters: 10, convergence: 0.5, distance: Distance::Euclidean }
    }
}

/// k-means++ seeding: the first center uniform, each next center sampled
/// with probability proportional to its squared distance from the nearest
/// chosen center (Arthur & Vassilvitskii, 2007).
pub fn init_centers<P: AsRef<[f64]>>(
    points: impl AsRef<[P]>,
    k: usize,
    seed: RootSeed,
) -> Vec<Vec<f64>> {
    let points = points.as_ref();
    assert!(k > 0 && k <= points.len(), "k must be in 1..=n");
    let mut rng = seed.stream("kmeans-init");
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    centers.push(points[rng.gen_range(0..points.len())].as_ref().to_vec());
    let mut d2: Vec<f64> = points
        .iter()
        .map(|p| Distance::SquaredEuclidean.between(p.as_ref(), &centers[0]))
        .collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a center; pick uniformly.
            rng.gen_range(0..points.len())
        } else {
            let mut u: f64 = rng.gen_range(0.0..total);
            let mut pick = points.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                u -= w;
                if u <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centers.push(points[next].as_ref().to_vec());
        let last = centers.last().expect("just pushed");
        for (i, p) in points.iter().enumerate() {
            let d = Distance::SquaredEuclidean.between(p.as_ref(), last);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centers
}

/// One in-memory k-means iteration; returns new centers (empty clusters
/// keep their old center) and the largest center movement.
pub fn lloyd_step(
    points: &[Vec<f64>],
    centers: &[Vec<f64>],
    distance: Distance,
) -> (Vec<Vec<f64>>, f64) {
    let dims = centers[0].len();
    let mut sums = vec![vec![0.0; dims]; centers.len()];
    let mut counts = vec![0usize; centers.len()];
    for p in points {
        let (c, _) = nearest(p, centers, distance);
        crate::vector::add_assign(&mut sums[c], p);
        counts[c] += 1;
    }
    let mut moved: f64 = 0.0;
    let new_centers: Vec<Vec<f64>> = sums
        .into_iter()
        .zip(&counts)
        .zip(centers)
        .map(|((mut s, &n), old)| {
            if n == 0 {
                old.clone()
            } else {
                scale(&mut s, 1.0 / n as f64);
                moved = moved.max(Distance::Euclidean.between(&s, old));
                s
            }
        })
        .collect();
    (new_centers, moved)
}

/// In-memory reference: full Lloyd iterations. Returns the model and the
/// iteration count.
pub fn reference(points: &[Vec<f64>], params: KMeansParams, seed: RootSeed) -> (Clustering, u32) {
    let mut centers = init_centers(points, params.k, seed);
    let mut iters = 0;
    for _ in 0..params.max_iters {
        iters += 1;
        let (next, moved) = lloyd_step(points, &centers, params.distance);
        centers = next;
        if moved < params.convergence {
            break;
        }
    }
    let assignments = points.iter().map(|p| nearest(p, &centers, params.distance).0).collect();
    (Clustering { centers, assignments }, iters)
}

/// One k-means MapReduce pass (the app broadcast to every mapper).
#[derive(Debug, Clone)]
pub struct KMeansPass {
    /// Current centers.
    pub centers: Vec<Vec<f64>>,
    /// Distance measure.
    pub distance: Distance,
}

impl MapReduceApp for KMeansPass {
    fn name(&self) -> &str {
        "kmeans"
    }

    fn map(&self, _k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        let p = v.as_vector();
        let (c, _) = nearest(p, &self.centers, self.distance);
        out(K::Int(c as i64), V::Tuple(vec![V::Vector(p.to_vec()), V::Float(1.0)]));
    }

    fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
        let (sum, w) = sum_weighted_tuples(values);
        out(key.clone(), V::Tuple(vec![V::Vector(sum), V::Float(w)]));
        true
    }

    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
        let (mut sum, w) = sum_weighted_tuples(values);
        scale(&mut sum, 1.0 / w);
        out(key.clone(), V::Vector(sum));
    }
}

/// Runs k-means as a MapReduce job sequence on `ml`, with a final
/// assignment pass. Returns the model and run statistics.
pub fn run_mr(
    ml: &mut MlRuntime,
    params: KMeansParams,
    seed: RootSeed,
) -> (Clustering, MlRunStats) {
    let centers = init_centers(ml.points(), params.k, seed);
    let distance = params.distance;
    iterate_centers(ml, "kmeans", centers, params.max_iters, params.convergence, distance, |c| {
        Box::new(KMeansPass { centers: c.to_vec(), distance })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gaussian_mixture;
    use vcluster::spec::{ClusterSpec, Placement};

    fn three_blobs() -> Vec<Vec<f64>> {
        // Tight, well-separated blobs for unambiguous convergence.
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 10.0), (-10.0, 8.0)] {
            for i in 0..20 {
                let dx = (i % 5) as f64 * 0.1;
                let dy = (i / 5) as f64 * 0.1;
                pts.push(vec![cx + dx, cy + dy]);
            }
        }
        pts
    }

    #[test]
    fn reference_finds_blobs() {
        let pts = three_blobs();
        let params =
            KMeansParams { k: 3, max_iters: 20, convergence: 1e-3, distance: Distance::Euclidean };
        let (model, iters) = reference(&pts, params, RootSeed(5));
        assert!(iters <= 20);
        assert_eq!(model.k(), 3);
        // Every blob maps to a single cluster.
        for blob in 0..3 {
            let first = model.assignments[blob * 20];
            assert!(
                model.assignments[blob * 20..(blob + 1) * 20].iter().all(|&a| a == first),
                "blob {blob} split across clusters"
            );
        }
    }

    #[test]
    fn cost_never_increases() {
        let pts = gaussian_mixture(RootSeed(6), 1).points;
        let params = KMeansParams::default();
        let mut centers = init_centers(&pts, params.k, RootSeed(6));
        let wcss = |cs: &[Vec<f64>]| -> f64 {
            pts.iter().map(|p| nearest(p, cs, Distance::Euclidean).1.powi(2)).sum()
        };
        let mut prev = wcss(&centers);
        for _ in 0..8 {
            let (next, _) = lloyd_step(&pts, &centers, Distance::Euclidean);
            centers = next;
            let cur = wcss(&centers);
            assert!(cur <= prev + 1e-9, "k-means cost increased: {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn mr_matches_reference() {
        let pts = three_blobs();
        let spec =
            ClusterSpec::builder().hosts(2).vms(4).placement(Placement::SingleDomain).build();
        let mut ml = MlRuntime::new(spec, pts.clone(), RootSeed(7));
        let params =
            KMeansParams { k: 3, max_iters: 20, convergence: 1e-3, distance: Distance::Euclidean };
        let (mr_model, stats) = run_mr(&mut ml, params, RootSeed(5));
        let (ref_model, _) = reference(&pts, params, RootSeed(5));
        // Same seed, same init → identical centers (up to fp noise).
        for (a, b) in mr_model.centers.iter().zip(&ref_model.centers) {
            assert!(Distance::Euclidean.between(a, b) < 1e-9, "MR and reference diverged");
        }
        assert!(stats.elapsed_s > 0.0);
        assert_eq!(stats.per_pass_s.len(), stats.iterations as usize);
    }
}
