//! The clustering suite: a uniform driver over all six algorithms for the
//! scale sweeps of the paper's Figs. 6 and 7.

use crate::mlrt::{Clustering, MlRunStats, MlRuntime};
use crate::{canopy, dirichlet, fuzzy, kmeans, meanshift, minhash};
use simcore::rng::RootSeed;
use vcluster::spec::{ClusterSpec, Placement};

/// The six Mahout clustering algorithms the paper runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Canopy clustering.
    Canopy,
    /// Dirichlet process clustering.
    Dirichlet,
    /// Fuzzy k-means.
    FuzzyKMeans,
    /// k-means.
    KMeans,
    /// Mean-shift canopy clustering.
    MeanShift,
    /// MinHash clustering.
    MinHash,
}

impl Algorithm {
    /// All six, in the paper's listing order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Canopy,
        Algorithm::Dirichlet,
        Algorithm::FuzzyKMeans,
        Algorithm::KMeans,
        Algorithm::MeanShift,
        Algorithm::MinHash,
    ];

    /// The Fig. 6 subset (canopy, dirichlet, meanshift).
    pub const FIG6: [Algorithm; 3] =
        [Algorithm::Canopy, Algorithm::Dirichlet, Algorithm::MeanShift];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Canopy => "canopy",
            Algorithm::Dirichlet => "dirichlet",
            Algorithm::FuzzyKMeans => "fuzzy-kmeans",
            Algorithm::KMeans => "kmeans",
            Algorithm::MeanShift => "meanshift",
            Algorithm::MinHash => "minhash",
        }
    }
}

/// Which of the paper's data sets a run uses (selects tuned parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 600 × 60 Synthetic Control Chart series (Fig. 6).
    ControlChart,
    /// 1 000 × 2 DisplayClustering samples (Fig. 7).
    Display,
}

/// One suite run's outcome.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Algorithm that ran.
    pub algorithm: Algorithm,
    /// VM count of the virtual cluster.
    pub cluster_vms: u32,
    /// Clusters found.
    pub clusters_found: usize,
    /// Run statistics (iterations, total time).
    pub stats: MlRunStats,
    /// The model, when the algorithm produces centers (MinHash does not).
    pub model: Option<Clustering>,
}

/// Builds the paper's virtual cluster at `vms` nodes: VMs spread over two
/// physical hosts (cross-domain round robin, the realistic deployment).
pub fn scaled_cluster(vms: u32) -> ClusterSpec {
    ClusterSpec::builder()
        .hosts(2)
        .vms(vms)
        .placement(if vms > 1 { Placement::CrossDomain } else { Placement::SingleDomain })
        .build()
}

/// Runs `algorithm` over `points` on a fresh `vms`-node virtual cluster.
pub fn run_algorithm(
    algorithm: Algorithm,
    dataset: DatasetKind,
    points: Vec<Vec<f64>>,
    vms: u32,
    seed: RootSeed,
) -> SuiteRun {
    let mut ml = MlRuntime::new(scaled_cluster(vms), points, seed);
    let (model, stats) = match algorithm {
        Algorithm::Canopy => {
            let params = match dataset {
                DatasetKind::ControlChart => canopy::CanopyParams::control_chart(),
                DatasetKind::Display => canopy::CanopyParams::display(),
            };
            let (m, s) = canopy::run_mr(&mut ml, params);
            (Some(m), s)
        }
        Algorithm::Dirichlet => {
            let params = dirichlet::DirichletParams { iterations: 5, ..Default::default() };
            let (_, m, s) = dirichlet::run_mr(&mut ml, params, seed.derive("alg"));
            (Some(m), s)
        }
        Algorithm::FuzzyKMeans => {
            let params = fuzzy::FuzzyKMeansParams {
                k: 6,
                max_iters: 8,
                convergence: match dataset {
                    DatasetKind::ControlChart => 1.0,
                    DatasetKind::Display => 0.05,
                },
                ..Default::default()
            };
            let (m, s) = fuzzy::run_mr(&mut ml, params, seed.derive("alg"));
            (Some(m), s)
        }
        Algorithm::KMeans => {
            let params = kmeans::KMeansParams {
                k: 6,
                max_iters: 8,
                convergence: match dataset {
                    DatasetKind::ControlChart => 1.0,
                    DatasetKind::Display => 0.05,
                },
                ..Default::default()
            };
            let (m, s) = kmeans::run_mr(&mut ml, params, seed.derive("alg"));
            (Some(m), s)
        }
        Algorithm::MeanShift => {
            let params = match dataset {
                DatasetKind::ControlChart => meanshift::MeanShiftParams::control_chart(),
                DatasetKind::Display => meanshift::MeanShiftParams::display(),
            };
            let (m, s) = meanshift::run_mr(&mut ml, params);
            (Some(m), s)
        }
        Algorithm::MinHash => {
            let params = minhash::MinHashParams {
                bin_width: match dataset {
                    DatasetKind::ControlChart => 8.0,
                    DatasetKind::Display => 1.0,
                },
                ..Default::default()
            };
            let (clusters, s) = minhash::run_mr(&mut ml, params, seed.derive("alg"));
            let found = clusters.len();
            return SuiteRun {
                algorithm,
                cluster_vms: vms,
                clusters_found: found,
                stats: s,
                model: None,
            };
        }
    };
    let clusters_found = model.as_ref().map_or(0, Clustering::k);
    SuiteRun { algorithm, cluster_vms: vms, clusters_found, stats, model }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn all_six_run_on_display_data() {
        let d = datasets::gaussian_mixture(RootSeed(30), 1);
        for alg in Algorithm::ALL {
            let run = run_algorithm(alg, DatasetKind::Display, d.points.clone(), 4, RootSeed(30));
            assert!(run.stats.elapsed_s > 0.0, "{} took no time", alg.name());
            assert!(run.clusters_found > 0, "{} found nothing", alg.name());
        }
    }

    #[test]
    fn fig6_algorithms_slow_down_with_scale() {
        // The headline Fig. 6 shape at reduced size: fixed small data set,
        // growing virtual cluster → growing runtime.
        let d = datasets::control_chart(RootSeed(31), 20, 60); // 120 × 60
        let t = |vms: u32| {
            run_algorithm(
                Algorithm::Canopy,
                DatasetKind::ControlChart,
                d.points.clone(),
                vms,
                RootSeed(31),
            )
            .stats
            .elapsed_s
        };
        let (t2, t8) = (t(2), t(8));
        assert!(t8 > t2, "canopy on 8 VMs ({t8:.2}s) slower than on 2 VMs ({t2:.2}s)");
    }
}
