//! Canopy clustering — "a very simple, fast and accurate method for
//! grouping objects", often the initial step before k-means (Mahout
//! `CanopyDriver`).
//!
//! Two thresholds `T1 > T2`: walking the points, a point farther than `T2`
//! from every existing canopy founds a new one. The MR form is Mahout's:
//! each mapper builds canopies over its split and emits the local centers;
//! a single reducer runs the same algorithm over all mapper centers to
//! produce the global canopies.

use crate::mlrt::{Clustering, MlRunStats, MlRuntime};
use crate::vector::{weighted_mean, Distance};
use mapreduce::prelude::*;

/// Canopy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanopyParams {
    /// Loose threshold (membership radius); must exceed `t2`.
    pub t1: f64,
    /// Tight threshold (new-canopy radius).
    pub t2: f64,
    /// Distance measure.
    pub distance: Distance,
}

impl CanopyParams {
    /// Parameters suited to the Synthetic Control Chart set.
    pub fn control_chart() -> Self {
        CanopyParams { t1: 80.0, t2: 55.0, distance: Distance::Euclidean }
    }

    /// Parameters suited to the DisplayClustering 2-D samples.
    pub fn display() -> Self {
        CanopyParams { t1: 3.0, t2: 1.5, distance: Distance::Euclidean }
    }
}

/// Builds canopies over `points`: returns `(center, member_count)` pairs.
/// The center is the running mean of the points that founded/strongly
/// joined the canopy (within `t2`).
pub fn build_canopies<P: AsRef<[f64]>>(points: &[P], params: CanopyParams) -> Vec<(Vec<f64>, f64)> {
    assert!(params.t1 > params.t2, "T1 must exceed T2");
    let mut canopies: Vec<(Vec<f64>, f64)> = Vec::new();
    for p in points {
        let p = p.as_ref();
        let mut strongly_bound = false;
        for (center, mass) in canopies.iter_mut() {
            let d = params.distance.between(p, center);
            if d < params.t2 {
                // Strongly bound: absorb into the canopy's running mean.
                let new_mass = *mass + 1.0;
                for (c, &x) in center.iter_mut().zip(p) {
                    *c += (x - *c) / new_mass;
                }
                *mass = new_mass;
                strongly_bound = true;
                break;
            }
        }
        if !strongly_bound {
            canopies.push((p.to_vec(), 1.0));
        }
    }
    canopies
}

/// In-memory reference: canopies plus nearest-canopy assignments.
pub fn reference(points: &[Vec<f64>], params: CanopyParams) -> Clustering {
    let canopies = build_canopies(points, params);
    let centers: Vec<Vec<f64>> = canopies.into_iter().map(|(c, _)| c).collect();
    let assignments =
        points.iter().map(|p| crate::vector::nearest(p, &centers, params.distance).0).collect();
    Clustering { centers, assignments }
}

/// The canopy MapReduce pass.
#[derive(Debug, Clone)]
pub struct CanopyPass {
    /// Algorithm parameters.
    pub params: CanopyParams,
}

impl MapReduceApp for CanopyPass {
    fn name(&self) -> &str {
        "canopy"
    }

    /// Mahout's canopy mapper is stateful over its whole split; our map
    /// interface is per-record, so the mapper emits each point keyed to a
    /// single group and the combiner (which sees the whole split's
    /// partition) builds the local canopies. This matches Mahout's
    /// map-side canopy generation in both communication volume and result.
    fn map(&self, _k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        out(K::from("centroid"), V::Tuple(vec![V::Vector(v.as_vector().to_vec()), V::Float(1.0)]));
    }

    fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
        let pts: Vec<&[f64]> = values.iter().map(|v| v.as_tuple()[0].as_vector()).collect();
        for (center, mass) in build_canopies(&pts, self.params) {
            out(key.clone(), V::Tuple(vec![V::Vector(center), V::Float(mass)]));
        }
        true
    }

    fn reduce(&self, _key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
        // Cluster the mapper-local canopy centers, weighting by mass.
        let weighted: Vec<(Vec<f64>, f64)> = values
            .iter()
            .map(|v| {
                let t = v.as_tuple();
                (t[0].as_vector().to_vec(), t[1].as_float())
            })
            .collect();
        let centers_only: Vec<Vec<f64>> = weighted.iter().map(|(c, _)| c.clone()).collect();
        let global = build_canopies(&centers_only, self.params);
        // Refine each global canopy center as the mass-weighted mean of
        // the local canopies it captured.
        for (i, (gc, _)) in global.iter().enumerate() {
            let members: Vec<(&[f64], f64)> = weighted
                .iter()
                .filter(|(c, _)| self.params.distance.between(c, gc) < self.params.t1)
                .map(|(c, m)| (c.as_slice(), *m))
                .collect();
            let center = if members.is_empty() { gc.clone() } else { weighted_mean(members) };
            out(K::Int(i as i64), V::Vector(center));
        }
    }
}

/// Runs canopy as one MapReduce pass plus an assignment pass.
pub fn run_mr(ml: &mut MlRuntime, params: CanopyParams) -> (Clustering, MlRunStats) {
    let result = ml.run_pass(
        "canopy",
        Box::new(CanopyPass { params }),
        JobConfig::default().with_reduces(1),
    );
    let centers: Vec<Vec<f64>> =
        result.outputs.iter().map(|(_, v)| v.as_vector().to_vec()).collect();
    let assignments = ml.assign(&centers, params.distance);
    let stats = MlRunStats {
        iterations: 1,
        elapsed_s: result.elapsed_secs(),
        per_pass_s: vec![result.elapsed_secs()],
    };
    (Clustering { centers, assignments }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gaussian_mixture;
    use simcore::rng::RootSeed;

    #[test]
    fn separated_blobs_get_separate_canopies() {
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (20.0, 20.0), (-20.0, 20.0)] {
            for i in 0..10 {
                pts.push(vec![cx + (i as f64) * 0.05, cy]);
            }
        }
        let params = CanopyParams { t1: 6.0, t2: 3.0, distance: Distance::Euclidean };
        let model = reference(&pts, params);
        assert_eq!(model.k(), 3, "three separated blobs, three canopies");
    }

    #[test]
    fn t2_controls_canopy_count() {
        let pts = gaussian_mixture(RootSeed(1), 1).points;
        let tight =
            build_canopies(&pts, CanopyParams { t1: 1.0, t2: 0.3, distance: Distance::Euclidean });
        let loose =
            build_canopies(&pts, CanopyParams { t1: 6.0, t2: 3.0, distance: Distance::Euclidean });
        assert!(tight.len() > loose.len(), "tighter T2 makes more canopies");
    }

    #[test]
    fn masses_sum_to_point_count() {
        let pts = gaussian_mixture(RootSeed(2), 1).points;
        let canopies = build_canopies(&pts, CanopyParams::display());
        let total: f64 = canopies.iter().map(|(_, m)| m).sum();
        assert_eq!(total as usize, pts.len());
    }

    #[test]
    #[should_panic(expected = "T1 must exceed T2")]
    fn rejects_inverted_thresholds() {
        build_canopies(
            &[vec![0.0]],
            CanopyParams { t1: 1.0, t2: 2.0, distance: Distance::Euclidean },
        );
    }

    #[test]
    fn mr_form_finds_similar_structure() {
        use vcluster::spec::{ClusterSpec, Placement};
        let pts = gaussian_mixture(RootSeed(3), 1).points;
        let spec =
            ClusterSpec::builder().hosts(2).vms(6).placement(Placement::SingleDomain).build();
        let mut ml = crate::mlrt::MlRuntime::new(spec, pts.clone(), RootSeed(3));
        let (model, stats) = run_mr(&mut ml, CanopyParams::display());
        assert!(model.k() >= 2, "at least the wide/tight structure found");
        assert!(model.k() < 100, "not degenerate (canopy per point), got {}", model.k());
        assert_eq!(model.assignments.len(), pts.len());
        assert_eq!(stats.iterations, 1);
    }
}
