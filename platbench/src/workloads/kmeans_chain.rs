//! `kmeans_chain` — the paper's part (c): k-means as a chain of MapReduce
//! jobs on the ML runtime, over the control-chart data set scaled up.
//!
//! Chosen because it is thirteen short jobs over `V::Vector` values with a
//! combiner and `VecInput` (which clones every chunk per job and again per
//! `read_split`): about a fifth of host time is numeric user code, the rest
//! per-record and per-job framework overhead. `convergence` is 0 so every
//! pass runs exactly `MAX_ITERS` Lloyd jobs plus the assignment job.

use super::{counter_layers, hdfs_layers, kernel_layers, tracer_layers};
use super::{Layers, Mode, Outcome, Workload, PLATFORM_SEED};
use crate::probe::{ProbedApp, MLKIT};
use crate::span;
use crate::stats::Digest;
use std::time::Instant;
use vhadoop::mlkit::datasets::control_chart;
use vhadoop::mlkit::kmeans::{self, KMeansParams, KMeansPass};
use vhadoop::mlkit::mlrt::{AssignApp, Clustering, MlRuntime};
use vhadoop::mlkit::vector::Distance;
use vhadoop::prelude::*;

const MAX_ITERS: u32 = 12;
const PARAMS: KMeansParams =
    KMeansParams { k: 6, max_iters: MAX_ITERS, convergence: 0.0, distance: Distance::Euclidean };
/// Largest distance allowed between a center and the in-memory reference's.
const CENTER_TOLERANCE: f64 = 1e-6;

pub struct KmeansChain {
    seed: RootSeed,
    points: Vec<Vec<f64>>,
    reference: Clustering,
    gen_s: f64,
}

impl KmeansChain {
    pub fn prepare(seed: RootSeed, quick: bool) -> Self {
        let t = Instant::now();
        // Six classes of 60-point series: the paper's Fig. 6 data set,
        // 600 series there, `6 * per_class` here.
        let per_class = if quick { 1_000 } else { 23_000 };
        let points = control_chart(seed, per_class, 60).points;
        let gen_s = t.elapsed().as_secs_f64();
        let (reference, _) = kmeans::reference(&points, PARAMS, seed);
        KmeansChain { seed, points, reference, gen_s }
    }
}

/// `kmeans::run_mr` with its apps wrapped in probes; the same calls in the
/// same order, so the jobs and their simulated times are the library's.
fn run_mr_probed(ml: &mut MlRuntime, seed: RootSeed, counters: &mut Vec<Counters>) -> Clustering {
    let probed = |inner: Box<dyn MapReduceApp>| Box::new(ProbedApp { inner, spans: MLKIT });
    let mut centers =
        span::within("mlkit.driver", || kmeans::init_centers(ml.points(), PARAMS.k, seed));
    for _ in 0..MAX_ITERS {
        let app = KMeansPass { centers: centers.clone(), distance: PARAMS.distance };
        let result = span::within("mlkit.run_pass", || {
            ml.run_pass("kmeans", probed(Box::new(app)), JobConfig::default().with_reduces(1))
        });
        let _g = span::enter("mlkit.driver");
        for (k, v) in &result.outputs {
            centers[k.as_int() as usize] = v.as_vector().to_vec();
        }
        counters.push(result.counters);
    }
    let app = AssignApp { centers: centers.clone(), distance: PARAMS.distance };
    let result = span::within("mlkit.run_pass", || {
        let config = JobConfig::default().with_reduces(1).with_combiner(false);
        ml.run_pass("assign", probed(Box::new(app)), config)
    });
    let _g = span::enter("mlkit.driver");
    let mut assignments = vec![0usize; ml.points().len()];
    for (k, v) in &result.outputs {
        assignments[k.as_int() as usize] = v.as_int() as usize;
    }
    counters.push(result.counters);
    Clustering { centers, assignments }
}

impl Workload for KmeansChain {
    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn pass(&self, mode: Mode) -> Outcome {
        let t = Instant::now();
        let root = span::enter("platbench.pass");
        let mut ml = span::within("core.launch", || {
            let spec =
                ClusterSpec::builder().hosts(2).vms(16).placement(Placement::CrossDomain).build();
            MlRuntime::new(spec, self.points.clone(), PLATFORM_SEED)
        });
        ml.rt.engine.tracer_mut().set_enabled(mode == Mode::SimTraced);
        let mut layers = Layers::new();
        let model = if mode == Mode::Probed {
            let mut counters = Vec::new();
            let model = run_mr_probed(&mut ml, self.seed, &mut counters);
            counter_layers(&counters, &mut layers);
            model
        } else {
            kmeans::run_mr(&mut ml, PARAMS, self.seed).0
        };
        let sim_makespan_s = ml.rt.now().as_secs_f64();
        drop(root);
        let wall_s = t.elapsed().as_secs_f64();

        let jobs = u64::from(MAX_ITERS) + 1;
        let mut failures = Vec::new();
        if u64::from(ml.passes()) != jobs {
            failures.push(format!("{} jobs ran, expected {jobs}", ml.passes()));
        }
        for (i, (got, want)) in model.centers.iter().zip(&self.reference.centers).enumerate() {
            let d = Distance::Euclidean.between(got, want);
            if d.is_nan() || d > CENTER_TOLERANCE {
                failures.push(format!("center {i} is {d:e} from the in-memory reference"));
            }
        }
        if model.assignments.len() != self.points.len() {
            failures.push(format!(
                "{} of {} points assigned",
                model.assignments.len(),
                self.points.len()
            ));
        }
        let mut digest = Digest::default();
        for c in &model.centers {
            c.iter().for_each(|x| digest.word(x.to_bits()));
        }
        model.assignments.iter().for_each(|&a| digest.word(a as u64));

        kernel_layers(&ml.rt.engine.kernel_stats(), &mut layers);
        hdfs_layers(&ml.rt.hdfs, &mut layers);
        if mode == Mode::SimTraced {
            tracer_layers(&ml.rt.engine, &mut layers);
        }
        Outcome {
            wall_s,
            sim_makespan_s,
            digest,
            attempted: jobs,
            failed: (failures.len() as u64).min(jobs),
            failures,
            layers,
        }
    }
}
