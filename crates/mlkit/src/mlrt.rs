//! Runs iterative ML algorithms as MapReduce job sequences — the Machine
//! Learning Algorithm Library side of the vHadoop platform.
//!
//! [`MlRuntime`] registers the point set as an HDFS file split into one
//! block per worker (so every TaskTracker gets a map task, Mahout's
//! recommended layout) and re-runs a job per iteration, exactly like
//! Mahout's iterative drivers re-scan the input each pass. The runtime
//! holds the data set once: each input record owns its point, and
//! [`MlRuntime::points`] borrows from the records.

use crate::vector::{nearest, Distance};
use mapreduce::prelude::*;
use simcore::rng::RootSeed;
use vcluster::spec::ClusterSpec;
use vhdfs::hdfs::HdfsConfig;

/// A clustering model: centers plus (optionally) per-point assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster centers.
    pub centers: Vec<Vec<f64>>,
    /// Cluster index per input point (empty until an assignment pass runs).
    pub assignments: Vec<usize>,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centers.len()
    }
}

/// Timing of an MR algorithm run (the paper's Fig. 6/7 metric).
#[derive(Debug, Clone, PartialEq)]
pub struct MlRunStats {
    /// MapReduce passes executed.
    pub iterations: u32,
    /// Total wall time over all passes, seconds.
    pub elapsed_s: f64,
    /// Per-pass wall times, seconds.
    pub per_pass_s: Vec<f64>,
}

/// The ML-on-MapReduce runtime: a simulated cluster with the point set
/// loaded into HDFS.
#[derive(Debug)]
pub struct MlRuntime {
    /// The underlying MapReduce runtime.
    pub rt: MrRuntime,
    /// The point records `(K::Int(i), V::Vector(point i))` in contiguous
    /// chunks, one per HDFS block: the only copy of the data set, built
    /// once and shared by the input of every pass.
    input: VecInput,
    path: String,
    passes: u32,
}

/// Serialized size of one point record (mirrors `types::records_size`).
fn point_bytes(dims: usize) -> u64 {
    8 + (dims as u64 * 8 + 4)
}

/// Smallest useful input split: Hadoop will not split below this, so a
/// tiny data set gets few maps no matter how many workers exist — the
/// mechanism behind Fig. 7's flat curves vs. Fig. 6's growth.
pub const MIN_SPLIT_BYTES: u64 = 16 * 1024;

impl MlRuntime {
    /// Boots a cluster and loads `points` as `/ml/data`, split into one
    /// HDFS block per datanode — but never below [`MIN_SPLIT_BYTES`] per
    /// split, so small data sets keep few maps.
    pub fn new(cluster_spec: ClusterSpec, points: Vec<Vec<f64>>, seed: RootSeed) -> Self {
        assert!(!points.is_empty(), "empty dataset");
        let dims = points[0].len();
        if let Some(bad) = points.iter().position(|p| p.len() != dims) {
            panic!("ragged: point {bad} has {} dims, point 0 has {dims}", points[bad].len());
        }
        let datanodes = (cluster_spec.vms - 1).max(1) as usize;
        let total_bytes = point_bytes(dims) * points.len() as u64;
        let size_cap = total_bytes.div_ceil(MIN_SPLIT_BYTES) as usize;
        let splits = datanodes.min(points.len()).min(size_cap.max(1));
        let block_size = total_bytes.div_ceil(splits as u64).max(1);
        let hdfs_cfg = HdfsConfig { block_size, replication: 3 };
        let mut rt = MrRuntime::new(cluster_spec, hdfs_cfg, seed);
        rt.register_input("/ml/data", total_bytes, VmId(1));
        let blocks = rt.hdfs.stat("/ml/data").expect("registered").blocks.len();

        // Contiguous chunks, one per HDFS block; each point moves into
        // its record.
        let per = points.len().div_ceil(blocks);
        let mut rows = points.into_iter().enumerate();
        let chunks: Vec<Vec<Record>> = (0..blocks)
            .map(|_| {
                rows.by_ref().take(per).map(|(i, p)| (K::Int(i as i64), V::Vector(p))).collect()
            })
            .collect();
        let input = VecInput::new(chunks);
        MlRuntime { rt, input, path: "/ml/data".to_string(), passes: 0 }
    }

    /// The loaded points in input order, borrowed from the input records.
    pub fn points(&self) -> Vec<&[f64]> {
        self.input.records().map(|(_, v)| v.as_vector()).collect()
    }

    /// Number of map splits per pass.
    pub fn splits(&self) -> usize {
        self.input.split_count()
    }

    /// Runs one MapReduce pass of `app` over the point set.
    pub fn run_pass(
        &mut self,
        name: &str,
        app: Box<dyn MapReduceApp>,
        config: JobConfig,
    ) -> JobResult {
        self.passes += 1;
        let out = format!("/ml/out/{name}-{:04}", self.passes);
        let spec = JobSpec::new(name, &self.path, out).with_config(config);
        self.rt.run_job(spec, app, Box::new(self.input.clone()))
    }

    /// Runs the generic nearest-center assignment pass, returning the
    /// cluster index per point.
    pub fn assign(&mut self, centers: &[Vec<f64>], distance: Distance) -> Vec<usize> {
        let app = AssignApp { centers: centers.to_vec(), distance };
        let result = self.run_pass(
            "assign",
            Box::new(app),
            JobConfig::default().with_reduces(1).with_combiner(false),
        );
        let mut assignments = vec![0usize; self.input.records().count()];
        for (k, v) in &result.outputs {
            assignments[k.as_int() as usize] = v.as_int() as usize;
        }
        assignments
    }

    /// Total passes run so far.
    pub fn passes(&self) -> u32 {
        self.passes
    }
}

/// The centers loop k-means and fuzzy k-means share: one `pass` job per
/// iteration (built from the current centers, each reduce output keyed by
/// center index), until no center moves by `convergence` or `max_iters`
/// passes ran; then a final nearest-center assignment pass.
pub(crate) fn iterate_centers(
    ml: &mut MlRuntime,
    name: &str,
    mut centers: Vec<Vec<f64>>,
    max_iters: u32,
    convergence: f64,
    distance: Distance,
    pass: impl Fn(&[Vec<f64>]) -> Box<dyn MapReduceApp>,
) -> (Clustering, MlRunStats) {
    let mut per_pass = Vec::new();
    let mut iters = 0;
    for _ in 0..max_iters {
        iters += 1;
        let result = ml.run_pass(name, pass(&centers), JobConfig::default().with_reduces(1));
        per_pass.push(result.elapsed_secs());
        let mut next = centers.clone();
        let mut moved: f64 = 0.0;
        for (k, v) in &result.outputs {
            let c = k.as_int() as usize;
            let nc = v.as_vector().to_vec();
            moved = moved.max(Distance::Euclidean.between(&nc, &centers[c]));
            next[c] = nc;
        }
        centers = next;
        if moved < convergence {
            break;
        }
    }
    let assignments = ml.assign(&centers, distance);
    let elapsed_s = per_pass.iter().sum();
    (
        Clustering { centers, assignments },
        MlRunStats { iterations: iters, elapsed_s, per_pass_s: per_pass },
    )
}

/// Generic cluster-assignment job: `point → (point_id, nearest center)`.
#[derive(Debug, Clone)]
pub struct AssignApp {
    /// Model centers.
    pub centers: Vec<Vec<f64>>,
    /// Distance measure.
    pub distance: Distance,
}

impl MapReduceApp for AssignApp {
    fn name(&self) -> &str {
        "assign"
    }
    fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        let (c, _) = nearest(v.as_vector(), &self.centers, self.distance);
        out(k.clone(), V::Int(c as i64));
    }
    fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
        out(k.clone(), vs[0].clone());
    }
}

/// Sums `(Σx, Σw)` tuples — the shared combiner/reducer shape of the
/// centroid-style algorithms (k-means, fuzzy k-means, mean shift).
pub fn sum_weighted_tuples(values: &[V]) -> (Vec<f64>, f64) {
    let mut sum: Option<Vec<f64>> = None;
    let mut weight = 0.0;
    for v in values {
        let t = v.as_tuple();
        let x = t[0].as_vector();
        weight += t[1].as_float();
        match &mut sum {
            Some(s) => crate::vector::add_assign(s, x),
            None => sum = Some(x.to_vec()),
        }
    }
    (sum.expect("at least one value"), weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gaussian_mixture;
    use vcluster::spec::Placement;

    fn cluster(vms: u32) -> ClusterSpec {
        ClusterSpec::builder().hosts(2).vms(vms).placement(Placement::CrossDomain).build()
    }

    #[test]
    fn splits_scale_with_datanodes_for_big_data() {
        // A data set well above the minimum split size splits per worker.
        let d = crate::datasets::control_chart(RootSeed(1), 100, 60);
        let ml4 = MlRuntime::new(cluster(4), d.points.clone(), RootSeed(1));
        let ml8 = MlRuntime::new(cluster(8), d.points.clone(), RootSeed(1));
        assert!(ml4.splits() <= 3);
        assert!(ml8.splits() > ml4.splits());
    }

    #[test]
    fn tiny_datasets_keep_few_splits() {
        // The 28 KB DisplayClustering set stays at 1–2 splits regardless
        // of cluster size (Fig. 7's flatness mechanism).
        let d = gaussian_mixture(RootSeed(1), 1);
        let ml8 = MlRuntime::new(cluster(8), d.points, RootSeed(1));
        assert!(ml8.splits() <= 2, "got {} splits", ml8.splits());
    }

    #[test]
    fn points_are_the_callers_buffers() {
        // The shapes of the split tests above: each record owns the very
        // buffer it was given, in input order, and the splits stay put.
        let shapes = [
            (crate::datasets::control_chart(RootSeed(1), 100, 60).points, 4, 3),
            (crate::datasets::control_chart(RootSeed(1), 100, 60).points, 8, 7),
            (gaussian_mixture(RootSeed(1), 1).points, 8, 2),
        ];
        for (points, vms, splits) in shapes {
            let ptrs: Vec<*const f64> = points.iter().map(|p| p.as_ptr()).collect();
            let ml = MlRuntime::new(cluster(vms), points, RootSeed(1));
            let lent: Vec<*const f64> = ml.points().iter().map(|p| p.as_ptr()).collect();
            assert_eq!(lent, ptrs);
            assert_eq!(ml.splits(), splits);
        }
    }

    #[test]
    #[should_panic(expected = "ragged: point 2 has 1 dims, point 0 has 2")]
    fn rejects_ragged_points() {
        let points = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![2.0], vec![3.0, 3.0, 3.0]];
        MlRuntime::new(cluster(4), points, RootSeed(1));
    }

    #[test]
    fn assign_pass_labels_every_point() {
        let d = gaussian_mixture(RootSeed(2), 1);
        let n = d.points.len();
        let mut ml = MlRuntime::new(cluster(4), d.points, RootSeed(2));
        let centers = vec![vec![1.0, 1.0], vec![0.0, 2.0]];
        let a = ml.assign(&centers, Distance::Euclidean);
        assert_eq!(a.len(), n);
        assert!(a.contains(&0) && a.contains(&1));
    }

    #[test]
    fn sum_weighted_tuples_sums() {
        let vs = vec![
            V::Tuple(vec![V::Vector(vec![1.0, 2.0]), V::Float(1.0)]),
            V::Tuple(vec![V::Vector(vec![3.0, 4.0]), V::Float(2.0)]),
        ];
        let (sum, w) = sum_weighted_tuples(&vs);
        assert_eq!(sum, vec![4.0, 6.0]);
        assert_eq!(w, 3.0);
    }
}
