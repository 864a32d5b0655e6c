//! Dirichlet process clustering — "performs Bayesian mixture modeling"
//! (Mahout `DirichletDriver`).
//!
//! Collapsed-ish Gibbs over a finite approximation of the Dirichlet
//! process: `k0` normal model components with mixture weights drawn from a
//! symmetric Dirichlet(α/k0) prior. Each iteration is one MapReduce pass:
//! the mapper *samples* an assignment for every point from the posterior
//! responsibilities (seeded per point × iteration, so re-runs are exact),
//! emitting sufficient statistics `(Σx, Σx², n)`; the reducer re-estimates
//! each component's mean, (diagonal) deviation, and weight. Components
//! that capture no data shrink toward the prior and die off naturally —
//! the DP's "use as many clusters as the data wants" behaviour.

use crate::mlrt::{Clustering, MlRunStats, MlRuntime};
use crate::vector::Distance;
use mapreduce::prelude::*;
use rand::Rng;
use simcore::rng::RootSeed;

/// Dirichlet clustering parameters (Mahout defaults: k0 = 10, α = 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirichletParams {
    /// Components in the finite DP approximation.
    pub k0: usize,
    /// Concentration parameter α.
    pub alpha: f64,
    /// Gibbs iterations (Mahout default 10).
    pub iterations: u32,
    /// Minimum posterior weight for a component to appear in the final
    /// model.
    pub min_weight: f64,
}

impl Default for DirichletParams {
    fn default() -> Self {
        DirichletParams { k0: 10, alpha: 1.0, iterations: 10, min_weight: 0.01 }
    }
}

/// One normal model component.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Mean vector.
    pub mean: Vec<f64>,
    /// Per-dimension standard deviation.
    pub std: Vec<f64>,
    /// Mixture weight (sums to 1 over the model).
    pub weight: f64,
    /// Points captured in the last iteration.
    pub count: u64,
}

/// The mixture model carried between iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct DirichletModel {
    /// Model components.
    pub components: Vec<Component>,
}

impl DirichletModel {
    /// Initializes `k0` components spread over sampled points with unit
    /// deviations and uniform weights.
    pub fn init<P: AsRef<[f64]>>(points: &[P], params: DirichletParams, seed: RootSeed) -> Self {
        let mut rng = seed.stream("dirichlet-init");
        let dims = points[0].as_ref().len();
        let components = (0..params.k0)
            .map(|_| {
                let p = points[rng.gen_range(0..points.len())].as_ref();
                Component {
                    mean: p.to_vec(),
                    std: vec![initial_std(points, dims); dims],
                    weight: 1.0 / params.k0 as f64,
                    count: 0,
                }
            })
            .collect();
        DirichletModel { components }
    }

    /// Log unnormalized posterior responsibility of `c` for `x`.
    fn log_resp(c: &Component, x: &[f64]) -> f64 {
        let mut lp = c.weight.max(1e-12).ln();
        for (i, &xi) in x.iter().enumerate() {
            let s = c.std[i].max(1e-3);
            let z = (xi - c.mean[i]) / s;
            lp += -0.5 * z * z - s.ln();
        }
        lp
    }

    /// Samples a component index for `x` from the posterior.
    pub fn sample_assignment(&self, x: &[f64], rng: &mut impl Rng) -> usize {
        let lps: Vec<f64> = self.components.iter().map(|c| Self::log_resp(c, x)).collect();
        let max = lps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let ps: Vec<f64> = lps.iter().map(|&lp| (lp - max).exp()).collect();
        let total: f64 = ps.iter().sum();
        let mut u: f64 = rng.gen_range(0.0..total);
        for (i, p) in ps.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return i;
            }
        }
        self.components.len() - 1
    }
}

/// Crude global scale estimate for initial deviations.
fn initial_std<P: AsRef<[f64]>>(points: &[P], dims: usize) -> f64 {
    let n = points.len() as f64;
    let mut mean = vec![0.0; dims];
    for p in points {
        crate::vector::add_assign(&mut mean, p.as_ref());
    }
    crate::vector::scale(&mut mean, 1.0 / n);
    let var: f64 =
        points.iter().map(|p| Distance::SquaredEuclidean.between(p.as_ref(), &mean)).sum::<f64>()
            / (n * dims as f64);
    var.sqrt().max(1e-3)
}

/// Per-component sufficient statistics.
#[derive(Debug, Clone, Default)]
struct Suff {
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    n: u64,
}

/// Posterior re-estimation from sufficient statistics.
fn posterior(
    model: &DirichletModel,
    stats: &[Suff],
    params: DirichletParams,
    total: u64,
) -> DirichletModel {
    let k = model.components.len() as f64;
    let denom = total as f64 + params.alpha;
    let components = model
        .components
        .iter()
        .zip(stats)
        .map(|(old, s)| {
            if s.n == 0 {
                // No data: weight decays to the prior mass.
                Component { weight: params.alpha / k / denom, count: 0, ..old.clone() }
            } else {
                let n = s.n as f64;
                let mean: Vec<f64> = s.sum.iter().map(|&x| x / n).collect();
                let std: Vec<f64> = s
                    .sum_sq
                    .iter()
                    .zip(&mean)
                    .map(|(&xx, &m)| ((xx / n - m * m).max(0.0)).sqrt().max(1e-3))
                    .collect();
                Component { mean, std, weight: (n + params.alpha / k) / denom, count: s.n }
            }
        })
        .collect();
    DirichletModel { components }
}

/// In-memory reference run. Returns the model and the significant
/// clustering (components above `min_weight`).
pub fn reference(
    points: &[Vec<f64>],
    params: DirichletParams,
    seed: RootSeed,
) -> (DirichletModel, Clustering) {
    let mut model = DirichletModel::init(points, params, seed);
    let dims = points[0].len();
    for iter in 0..params.iterations {
        let mut stats: Vec<Suff> = (0..params.k0)
            .map(|_| Suff { sum: vec![0.0; dims], sum_sq: vec![0.0; dims], n: 0 })
            .collect();
        for (i, p) in points.iter().enumerate() {
            let mut rng = seed.stream_at("dirichlet-gibbs", (u64::from(iter) << 32) | i as u64);
            let z = model.sample_assignment(p, &mut rng);
            let s = &mut stats[z];
            for (d, &x) in p.iter().enumerate() {
                s.sum[d] += x;
                s.sum_sq[d] += x * x;
            }
            s.n += 1;
        }
        model = posterior(&model, &stats, params, points.len() as u64);
    }
    let clustering = significant_clustering(&model, points, params);
    (model, clustering)
}

/// Extracts components above the weight floor and hard-assigns points.
pub fn significant_clustering<P: AsRef<[f64]>>(
    model: &DirichletModel,
    points: &[P],
    params: DirichletParams,
) -> Clustering {
    let centers: Vec<Vec<f64>> = model
        .components
        .iter()
        .filter(|c| c.weight >= params.min_weight && c.count > 0)
        .map(|c| c.mean.clone())
        .collect();
    let centers = if centers.is_empty() { vec![model.components[0].mean.clone()] } else { centers };
    let assignments = points
        .iter()
        .map(|p| crate::vector::nearest(p.as_ref(), &centers, Distance::Euclidean).0)
        .collect();
    Clustering { centers, assignments }
}

/// One Dirichlet MapReduce pass: sample assignments, emit suff-stats.
#[derive(Debug, Clone)]
pub struct DirichletPass {
    /// Current model (broadcast to all mappers).
    pub model: DirichletModel,
    /// Root seed for reproducible Gibbs sampling.
    pub seed: RootSeed,
    /// Iteration number (decorrelates sampling across passes).
    pub iteration: u32,
}

impl MapReduceApp for DirichletPass {
    fn name(&self) -> &str {
        "dirichlet"
    }

    fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        let x = v.as_vector();
        let i = k.as_int() as u64;
        let mut rng = self.seed.stream_at("dirichlet-gibbs", (u64::from(self.iteration) << 32) | i);
        let z = self.model.sample_assignment(x, &mut rng);
        let sq: Vec<f64> = x.iter().map(|&a| a * a).collect();
        out(K::Int(z as i64), V::Tuple(vec![V::Vector(x.to_vec()), V::Vector(sq), V::Float(1.0)]));
    }

    fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
        out(key.clone(), sum_suff(values));
        true
    }

    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
        out(key.clone(), sum_suff(values));
    }
}

/// Sums `(Σx, Σx², n)` tuples.
fn sum_suff(values: &[V]) -> V {
    let mut sum: Option<Vec<f64>> = None;
    let mut sum_sq: Option<Vec<f64>> = None;
    let mut n = 0.0;
    for v in values {
        let t = v.as_tuple();
        let x = t[0].as_vector();
        let xx = t[1].as_vector();
        n += t[2].as_float();
        match (&mut sum, &mut sum_sq) {
            (Some(s), Some(ss)) => {
                crate::vector::add_assign(s, x);
                crate::vector::add_assign(ss, xx);
            }
            _ => {
                sum = Some(x.to_vec());
                sum_sq = Some(xx.to_vec());
            }
        }
    }
    V::Tuple(vec![
        V::Vector(sum.expect("non-empty")),
        V::Vector(sum_sq.expect("non-empty")),
        V::Float(n),
    ])
}

/// Runs Dirichlet clustering as a MapReduce job sequence.
pub fn run_mr(
    ml: &mut MlRuntime,
    params: DirichletParams,
    seed: RootSeed,
) -> (DirichletModel, Clustering, MlRunStats) {
    let points = ml.points();
    let mut model = DirichletModel::init(&points, params, seed);
    let dims = points[0].len();
    let total = points.len() as u64;
    let mut per_pass = Vec::new();
    for iteration in 0..params.iterations {
        let app = DirichletPass { model: model.clone(), seed, iteration };
        let result = ml.run_pass("dirichlet", Box::new(app), JobConfig::default().with_reduces(1));
        per_pass.push(result.elapsed_secs());
        let mut stats: Vec<Suff> = (0..params.k0)
            .map(|_| Suff { sum: vec![0.0; dims], sum_sq: vec![0.0; dims], n: 0 })
            .collect();
        for (k, v) in &result.outputs {
            let z = k.as_int() as usize;
            let t = v.as_tuple();
            stats[z].sum = t[0].as_vector().to_vec();
            stats[z].sum_sq = t[1].as_vector().to_vec();
            stats[z].n = t[2].as_float() as u64;
        }
        model = posterior(&model, &stats, params, total);
    }
    let clustering = significant_clustering(&model, &ml.points(), params);
    // Timed hard-assignment pass for parity with the other algorithms.
    let assignments = ml.assign(&clustering.centers, Distance::Euclidean);
    let elapsed_s = per_pass.iter().sum();
    let stats = MlRunStats { iterations: params.iterations, elapsed_s, per_pass_s: per_pass };
    (model, Clustering { assignments, ..clustering }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gaussian_mixture;

    #[test]
    fn model_weights_sum_to_one() {
        let pts = gaussian_mixture(RootSeed(10), 1).points;
        let (model, _) = reference(&pts, DirichletParams::default(), RootSeed(10));
        let total: f64 = model.components.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-6, "weights sum to 1, got {total}");
    }

    #[test]
    fn finds_plausible_cluster_count() {
        let pts = gaussian_mixture(RootSeed(11), 1).points;
        let (_, clustering) = reference(&pts, DirichletParams::default(), RootSeed(11));
        // 3 generating components; the DP should settle between 1 and k0.
        assert!(clustering.k() >= 1 && clustering.k() <= 10, "k = {}", clustering.k());
    }

    #[test]
    fn empty_components_decay() {
        let pts = gaussian_mixture(RootSeed(12), 1).points;
        let (model, _) = reference(&pts, DirichletParams::default(), RootSeed(12));
        let dead: Vec<&Component> = model.components.iter().filter(|c| c.count == 0).collect();
        for c in dead {
            assert!(c.weight < 0.01, "dead component kept weight {}", c.weight);
        }
    }

    #[test]
    fn mr_matches_reference_exactly() {
        use vcluster::spec::{ClusterSpec, Placement};
        let pts = gaussian_mixture(RootSeed(13), 1).points;
        let params = DirichletParams { iterations: 4, ..Default::default() };
        let spec =
            ClusterSpec::builder().hosts(2).vms(4).placement(Placement::SingleDomain).build();
        let mut ml = crate::mlrt::MlRuntime::new(spec, pts.clone(), RootSeed(13));
        let (mr_model, _, _) = run_mr(&mut ml, params, RootSeed(14));
        let (ref_model, _) = reference(&pts, params, RootSeed(14));
        // Same seeded Gibbs draws → identical models.
        for (a, b) in mr_model.components.iter().zip(&ref_model.components) {
            assert_eq!(a.count, b.count);
            assert!(Distance::Euclidean.between(&a.mean, &b.mean) < 1e-9, "means diverged");
        }
    }
}
