//! Fuzzy k-means — soft-membership extension of k-means (Mahout
//! `FuzzyKMeansDriver`).
//!
//! Each point belongs to every cluster with membership
//! `u_ic = 1 / Σ_j (d_ic / d_jc)^(2/(m−1))`; the mapper emits
//! `(cluster, (u^m · x, u^m))` for every cluster, the reducer computes the
//! weighted centroids.

use crate::kmeans::init_centers;
use crate::mlrt::{iterate_centers, sum_weighted_tuples, Clustering, MlRunStats, MlRuntime};
use crate::vector::{scale, Distance};
use mapreduce::prelude::*;
use simcore::rng::RootSeed;

/// Fuzzy k-means parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzyKMeansParams {
    /// Number of clusters.
    pub k: usize,
    /// Fuzziness exponent `m` (> 1; Mahout default 2).
    pub m: f64,
    /// Iteration cap.
    pub max_iters: u32,
    /// Stop when every center moves less than this.
    pub convergence: f64,
    /// Distance measure.
    pub distance: Distance,
}

impl Default for FuzzyKMeansParams {
    fn default() -> Self {
        FuzzyKMeansParams {
            k: 6,
            m: 2.0,
            max_iters: 10,
            convergence: 0.5,
            distance: Distance::Euclidean,
        }
    }
}

/// Memberships of one point to every center. Exact-hit points get full
/// membership in their center.
pub fn memberships(point: &[f64], centers: &[Vec<f64>], m: f64, distance: Distance) -> Vec<f64> {
    let dists: Vec<f64> = centers.iter().map(|c| distance.between(point, c)).collect();
    if let Some(hit) = dists.iter().position(|&d| d < 1e-12) {
        let mut u = vec![0.0; centers.len()];
        u[hit] = 1.0;
        return u;
    }
    let exp = 2.0 / (m - 1.0);
    let u: Vec<f64> = dists
        .iter()
        .map(|&dc| 1.0 / dists.iter().map(|&dj| (dc / dj).powf(exp)).sum::<f64>())
        .collect();
    u
}

/// One in-memory fuzzy update; returns new centers and max movement.
pub fn fuzzy_step(
    points: &[Vec<f64>],
    centers: &[Vec<f64>],
    m: f64,
    distance: Distance,
) -> (Vec<Vec<f64>>, f64) {
    let dims = centers[0].len();
    let mut sums = vec![vec![0.0; dims]; centers.len()];
    let mut weights = vec![0.0; centers.len()];
    for p in points {
        let u = memberships(p, centers, m, distance);
        for (c, &uc) in u.iter().enumerate() {
            let w = uc.powf(m);
            for (s, &x) in sums[c].iter_mut().zip(p) {
                *s += w * x;
            }
            weights[c] += w;
        }
    }
    let mut moved: f64 = 0.0;
    let new_centers: Vec<Vec<f64>> = sums
        .into_iter()
        .zip(&weights)
        .zip(centers)
        .map(|((mut s, &w), old)| {
            if w <= 0.0 {
                old.clone()
            } else {
                scale(&mut s, 1.0 / w);
                moved = moved.max(Distance::Euclidean.between(&s, old));
                s
            }
        })
        .collect();
    (new_centers, moved)
}

/// In-memory reference run.
pub fn reference(
    points: &[Vec<f64>],
    params: FuzzyKMeansParams,
    seed: RootSeed,
) -> (Clustering, u32) {
    let mut centers = init_centers(points, params.k, seed);
    let mut iters = 0;
    for _ in 0..params.max_iters {
        iters += 1;
        let (next, moved) = fuzzy_step(points, &centers, params.m, params.distance);
        centers = next;
        if moved < params.convergence {
            break;
        }
    }
    let assignments = points
        .iter()
        .map(|p| {
            let u = memberships(p, &centers, params.m, params.distance);
            u.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
                .map(|(i, _)| i)
                .expect("k > 0")
        })
        .collect();
    (Clustering { centers, assignments }, iters)
}

/// One fuzzy k-means MapReduce pass.
#[derive(Debug, Clone)]
pub struct FuzzyPass {
    /// Current centers.
    pub centers: Vec<Vec<f64>>,
    /// Fuzziness exponent.
    pub m: f64,
    /// Distance measure.
    pub distance: Distance,
}

impl MapReduceApp for FuzzyPass {
    fn name(&self) -> &str {
        "fuzzy-kmeans"
    }

    fn map(&self, _k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        let p = v.as_vector();
        let u = memberships(p, &self.centers, self.m, self.distance);
        for (c, &uc) in u.iter().enumerate() {
            let w = uc.powf(self.m);
            let wx: Vec<f64> = p.iter().map(|&x| w * x).collect();
            out(K::Int(c as i64), V::Tuple(vec![V::Vector(wx), V::Float(w)]));
        }
    }

    fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
        let (sum, w) = sum_weighted_tuples(values);
        out(key.clone(), V::Tuple(vec![V::Vector(sum), V::Float(w)]));
        true
    }

    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
        let (mut sum, w) = sum_weighted_tuples(values);
        if w > 0.0 {
            scale(&mut sum, 1.0 / w);
        }
        out(key.clone(), V::Vector(sum));
    }
}

/// Runs fuzzy k-means as a MapReduce job sequence with a final hard
/// assignment pass.
pub fn run_mr(
    ml: &mut MlRuntime,
    params: FuzzyKMeansParams,
    seed: RootSeed,
) -> (Clustering, MlRunStats) {
    let centers = init_centers(ml.points(), params.k, seed);
    let (m, distance) = (params.m, params.distance);
    iterate_centers(ml, "fuzzy", centers, params.max_iters, params.convergence, distance, |c| {
        Box::new(FuzzyPass { centers: c.to_vec(), m, distance })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 10.0)] {
            for i in 0..15 {
                pts.push(vec![cx + (i % 4) as f64 * 0.2, cy + (i / 4) as f64 * 0.2]);
            }
        }
        pts
    }

    #[test]
    fn memberships_sum_to_one() {
        let centers = vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![0.0, 5.0]];
        let u = memberships(&[1.0, 1.0], &centers, 2.0, Distance::Euclidean);
        assert!((u.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Closest center gets the highest membership.
        assert!(u[0] > u[1] && u[0] > u[2]);
    }

    #[test]
    fn exact_center_hit_is_crisp() {
        let centers = vec![vec![1.0, 1.0], vec![5.0, 5.0]];
        let u = memberships(&[1.0, 1.0], &centers, 2.0, Distance::Euclidean);
        assert_eq!(u, vec![1.0, 0.0]);
    }

    #[test]
    fn reference_separates_blobs() {
        let pts = two_blobs();
        let params =
            FuzzyKMeansParams { k: 2, max_iters: 25, convergence: 1e-3, ..Default::default() };
        let (model, _) = reference(&pts, params, RootSeed(8));
        let first_half = &model.assignments[..15];
        let second_half = &model.assignments[15..];
        assert!(first_half.iter().all(|&a| a == first_half[0]));
        assert!(second_half.iter().all(|&a| a == second_half[0]));
        assert_ne!(first_half[0], second_half[0]);
    }

    #[test]
    fn mr_matches_reference() {
        use vcluster::spec::{ClusterSpec, Placement};
        let pts = two_blobs();
        let spec =
            ClusterSpec::builder().hosts(2).vms(4).placement(Placement::SingleDomain).build();
        let mut ml = crate::mlrt::MlRuntime::new(spec, pts.clone(), RootSeed(9));
        let params =
            FuzzyKMeansParams { k: 2, max_iters: 25, convergence: 1e-3, ..Default::default() };
        let (mr_model, stats) = run_mr(&mut ml, params, RootSeed(8));
        let (ref_model, _) = reference(&pts, params, RootSeed(8));
        for (a, b) in mr_model.centers.iter().zip(&ref_model.centers) {
            assert!(
                Distance::Euclidean.between(a, b) < 1e-6,
                "MR and reference diverged: {a:?} vs {b:?}"
            );
        }
        assert!(stats.iterations >= 2);
    }
}
