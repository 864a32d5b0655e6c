//! Mean-shift canopy clustering — "produces arbitrarily-shaped clusters
//! without a priori knowledge of the number of clusters" (Mahout
//! `MeanShiftCanopyDriver`).
//!
//! Canopies (initially seeded from the data) iteratively shift toward the
//! mean of the points inside their `T1` window; the driver merges canopies
//! that come within `T2` of each other and stops when every canopy moves
//! less than the convergence delta. Each shift is one MapReduce pass: the
//! mapper emits `(canopy, (Σx, n))` for every canopy whose window covers
//! the point; the reducer averages.

use crate::canopy::{build_canopies, CanopyParams};
use crate::mlrt::{sum_weighted_tuples, Clustering, MlRunStats, MlRuntime};
use crate::vector::{scale, weighted_mean, Distance};
use mapreduce::prelude::*;

/// Mean-shift parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanShiftParams {
    /// Window radius (points within `t1` of a canopy pull it).
    pub t1: f64,
    /// Merge radius (canopies within `t2` fuse).
    pub t2: f64,
    /// Stop when every canopy moves less than this.
    pub convergence: f64,
    /// Iteration cap.
    pub max_iters: u32,
    /// Distance measure.
    pub distance: Distance,
}

impl MeanShiftParams {
    /// Parameters suited to the Synthetic Control Chart set.
    pub fn control_chart() -> Self {
        MeanShiftParams {
            t1: 70.0,
            t2: 40.0,
            convergence: 1.0,
            max_iters: 10,
            distance: Distance::Euclidean,
        }
    }

    /// Parameters suited to the DisplayClustering 2-D samples.
    pub fn display() -> Self {
        MeanShiftParams {
            t1: 2.0,
            t2: 1.0,
            convergence: 0.05,
            max_iters: 10,
            distance: Distance::Euclidean,
        }
    }

    fn canopy(&self) -> CanopyParams {
        CanopyParams { t1: self.t1, t2: self.t2, distance: self.distance }
    }
}

/// Merges canopies closer than `t2` (mass-weighted), preserving order of
/// first appearance.
pub fn merge_canopies(
    canopies: Vec<(Vec<f64>, f64)>,
    params: MeanShiftParams,
) -> Vec<(Vec<f64>, f64)> {
    let mut merged: Vec<(Vec<f64>, f64)> = Vec::new();
    for (c, m) in canopies {
        match merged.iter_mut().find(|(mc, _)| params.distance.between(mc, &c) < params.t2) {
            Some((mc, mm)) => {
                let new_center = weighted_mean([(mc.as_slice(), *mm), (c.as_slice(), m)]);
                *mc = new_center;
                *mm += m;
            }
            None => merged.push((c, m)),
        }
    }
    merged
}

/// One in-memory shift step: every canopy moves to the mean of the points
/// inside its window; returns `(shifted canopies, max movement)`.
pub fn shift_step(
    points: &[Vec<f64>],
    canopies: &[(Vec<f64>, f64)],
    params: MeanShiftParams,
) -> (Vec<(Vec<f64>, f64)>, f64) {
    let dims = canopies[0].0.len();
    let mut sums = vec![vec![0.0; dims]; canopies.len()];
    let mut counts = vec![0.0f64; canopies.len()];
    for p in points {
        for (i, (c, _)) in canopies.iter().enumerate() {
            if params.distance.between(p, c) < params.t1 {
                crate::vector::add_assign(&mut sums[i], p);
                counts[i] += 1.0;
            }
        }
    }
    let mut moved: f64 = 0.0;
    let shifted: Vec<(Vec<f64>, f64)> = canopies
        .iter()
        .enumerate()
        .map(|(i, (old, mass))| {
            if counts[i] == 0.0 {
                (old.clone(), *mass)
            } else {
                let mut s = sums[i].clone();
                scale(&mut s, 1.0 / counts[i]);
                moved = moved.max(Distance::Euclidean.between(&s, old));
                (s, counts[i])
            }
        })
        .collect();
    (shifted, moved)
}

/// In-memory reference run.
pub fn reference(points: &[Vec<f64>], params: MeanShiftParams) -> (Clustering, u32) {
    let mut canopies = build_canopies(points, params.canopy());
    let mut iters = 0;
    for _ in 0..params.max_iters {
        iters += 1;
        let (shifted, moved) = shift_step(points, &canopies, params);
        canopies = merge_canopies(shifted, params);
        if moved < params.convergence {
            break;
        }
    }
    let centers: Vec<Vec<f64>> = canopies.into_iter().map(|(c, _)| c).collect();
    let assignments =
        points.iter().map(|p| crate::vector::nearest(p, &centers, params.distance).0).collect();
    (Clustering { centers, assignments }, iters)
}

/// One mean-shift MapReduce pass.
#[derive(Debug, Clone)]
pub struct MeanShiftPass {
    /// Current canopies (center, mass).
    pub canopies: Vec<(Vec<f64>, f64)>,
    /// Algorithm parameters.
    pub params: MeanShiftParams,
}

impl MapReduceApp for MeanShiftPass {
    fn name(&self) -> &str {
        "meanshift"
    }

    fn map(&self, _k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        let p = v.as_vector();
        for (i, (c, _)) in self.canopies.iter().enumerate() {
            if self.params.distance.between(p, c) < self.params.t1 {
                out(K::Int(i as i64), V::Tuple(vec![V::Vector(p.to_vec()), V::Float(1.0)]));
            }
        }
    }

    fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
        let (sum, w) = sum_weighted_tuples(values);
        out(key.clone(), V::Tuple(vec![V::Vector(sum), V::Float(w)]));
        true
    }

    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
        let (mut sum, w) = sum_weighted_tuples(values);
        scale(&mut sum, 1.0 / w);
        out(key.clone(), V::Tuple(vec![V::Vector(sum), V::Float(w)]));
    }
}

/// Runs mean shift as a MapReduce job sequence with driver-side merging.
pub fn run_mr(ml: &mut MlRuntime, params: MeanShiftParams) -> (Clustering, MlRunStats) {
    let mut canopies = build_canopies(&ml.points(), params.canopy());
    let mut per_pass = Vec::new();
    let mut iters = 0;
    for _ in 0..params.max_iters {
        iters += 1;
        let app = MeanShiftPass { canopies: canopies.clone(), params };
        let result = ml.run_pass("meanshift", Box::new(app), JobConfig::default().with_reduces(1));
        per_pass.push(result.elapsed_secs());
        let mut moved: f64 = 0.0;
        let mut shifted = canopies.clone();
        for (k, v) in &result.outputs {
            let i = k.as_int() as usize;
            let t = v.as_tuple();
            let nc = t[0].as_vector().to_vec();
            moved = moved.max(Distance::Euclidean.between(&nc, &canopies[i].0));
            shifted[i] = (nc, t[1].as_float());
        }
        canopies = merge_canopies(shifted, params);
        if moved < params.convergence {
            break;
        }
    }
    let centers: Vec<Vec<f64>> = canopies.into_iter().map(|(c, _)| c).collect();
    let assignments = ml.assign(&centers, params.distance);
    let elapsed_s = per_pass.iter().sum();
    (
        Clustering { centers, assignments },
        MlRunStats { iterations: iters, elapsed_s, per_pass_s: per_pass },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gaussian_mixture;
    use simcore::rng::RootSeed;

    #[test]
    fn canopies_shift_toward_density() {
        // One blob at (5,5); a canopy starting at its edge shifts inward.
        let pts: Vec<Vec<f64>> =
            (0..50).map(|i| vec![5.0 + (i % 7) as f64 * 0.1, 5.0 + (i / 7) as f64 * 0.1]).collect();
        let params = MeanShiftParams::display();
        let canopies = vec![(vec![4.0, 4.0], 1.0)];
        let (shifted, moved) = shift_step(&pts, &canopies, params);
        assert!(moved > 0.3, "canopy pulled toward the blob");
        let d_before = Distance::Euclidean.between(&[4.0, 4.0], &[5.3, 5.3]);
        let d_after = Distance::Euclidean.between(&shifted[0].0, &[5.3, 5.3]);
        assert!(d_after < d_before);
    }

    #[test]
    fn merging_reduces_canopy_count() {
        let params = MeanShiftParams::display();
        let canopies = vec![
            (vec![0.0, 0.0], 2.0),
            (vec![0.3, 0.0], 1.0), // within t2 of the first
            (vec![9.0, 9.0], 1.0),
        ];
        let merged = merge_canopies(canopies, params);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].1, 3.0, "masses combine");
        assert!(merged[0].0[0] > 0.0 && merged[0].0[0] < 0.3, "weighted center");
    }

    #[test]
    fn reference_converges_on_mixture() {
        let pts = gaussian_mixture(RootSeed(4), 1).points;
        let (model, iters) = reference(&pts, MeanShiftParams::display());
        assert!(iters <= 10);
        assert!(model.k() >= 2, "found structure, k = {}", model.k());
        assert!(model.k() <= 40, "not degenerate, k = {}", model.k());
    }

    #[test]
    fn mr_follows_reference_trajectory() {
        use vcluster::spec::{ClusterSpec, Placement};
        let pts = gaussian_mixture(RootSeed(5), 1).points;
        let spec =
            ClusterSpec::builder().hosts(2).vms(4).placement(Placement::SingleDomain).build();
        let mut ml = crate::mlrt::MlRuntime::new(spec, pts.clone(), RootSeed(5));
        let (mr_model, stats) = run_mr(&mut ml, MeanShiftParams::display());
        let (ref_model, _) = reference(&pts, MeanShiftParams::display());
        assert_eq!(mr_model.k(), ref_model.k(), "same number of converged canopies");
        assert!(stats.iterations >= 2);
    }
}
