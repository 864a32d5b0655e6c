//! Figure 8 — "screenshots" of the sample points and clustering results
//! for every algorithm: SVG files with the per-iteration cluster overlay
//! (last iteration bold red, earlier ones colored, oldest grey) plus an
//! ASCII rendition on stdout.

use crate::write_artifact;
use mlkit::datasets::gaussian_mixture_1000;
use mlkit::display::{render_ascii, render_svg, IterationTrail};
use mlkit::mlrt::Clustering;
use mlkit::prelude::{
    CanopyParams, Distance, FuzzyKMeansParams, KMeansParams, MeanShiftParams, MinHashParams,
};
use mlkit::vector::nearest;
use simcore::rng::RootSeed;

fn assign(points: &[Vec<f64>], centers: &[Vec<f64>]) -> Vec<usize> {
    points.iter().map(|p| nearest(p, centers, Distance::Euclidean).0).collect()
}

pub fn run(_scale: f64) {
    let seed = RootSeed(2012);
    let data = gaussian_mixture_1000(seed);
    let pts = &data.points;
    let mut written = Vec::new();

    // (a) raw sample data.
    let raw = Clustering { centers: Vec::new(), assignments: Vec::new() };
    written.push(save("sample-data", pts, &raw, &IterationTrail::new()));

    // (b) canopy.
    let canopies = mlkit::canopy::build_canopies(pts, CanopyParams::display());
    let centers: Vec<Vec<f64>> = canopies.into_iter().map(|(c, _)| c).collect();
    let model = Clustering { assignments: assign(pts, &centers), centers };
    let mut trail = IterationTrail::new();
    trail.push(model.centers.clone());
    written.push(save("canopy", pts, &model, &trail));

    // (c) dirichlet.
    let (dmodel, dclust) =
        mlkit::dirichlet::reference(pts, mlkit::dirichlet::DirichletParams::default(), seed);
    let mut trail = IterationTrail::new();
    trail.push(dmodel.components.iter().map(|c| c.mean.clone()).collect());
    written.push(save("dirichlet", pts, &dclust, &trail));

    // (d) fuzzy k-means with iteration trail.
    let params = FuzzyKMeansParams { k: 3, max_iters: 10, convergence: 0.01, ..Default::default() };
    let mut centers = mlkit::kmeans::init_centers(pts, params.k, seed);
    let mut trail = IterationTrail::new();
    trail.push(centers.clone());
    for _ in 0..params.max_iters {
        let (next, moved) = mlkit::fuzzy::fuzzy_step(pts, &centers, params.m, params.distance);
        centers = next;
        trail.push(centers.clone());
        if moved < params.convergence {
            break;
        }
    }
    let model = Clustering { assignments: assign(pts, &centers), centers };
    written.push(save("fuzzy-kmeans", pts, &model, &trail));

    // (e) k-means with iteration trail.
    let params = KMeansParams { k: 3, max_iters: 10, convergence: 0.01, ..Default::default() };
    let mut centers = mlkit::kmeans::init_centers(pts, params.k, seed.derive("km"));
    let mut trail = IterationTrail::new();
    trail.push(centers.clone());
    for _ in 0..params.max_iters {
        let (next, moved) = mlkit::kmeans::lloyd_step(pts, &centers, params.distance);
        centers = next;
        trail.push(centers.clone());
        if moved < params.convergence {
            break;
        }
    }
    let kmodel = Clustering { assignments: assign(pts, &centers), centers };
    written.push(save("kmeans", pts, &kmodel, &trail));

    // (f) mean shift.
    let (msmodel, _) = mlkit::meanshift::reference(pts, MeanShiftParams::display());
    let mut trail = IterationTrail::new();
    trail.push(msmodel.centers.clone());
    written.push(save("meanshift", pts, &msmodel, &trail));

    // (g) minhash: color points by their largest cluster membership.
    let clusters = mlkit::minhash::reference(pts, MinHashParams::default(), seed.derive("mh"));
    let mut assignments = vec![0usize; pts.len()];
    for (ci, cluster) in clusters.iter().enumerate().take(9) {
        for &p in cluster {
            assignments[p] = ci + 1;
        }
    }
    let mhmodel = Clustering { centers: Vec::new(), assignments };
    written.push(save("minhash", pts, &mhmodel, &IterationTrail::new()));

    println!("\nk-means result (terminal rendition):");
    println!("{}", render_ascii(pts, &kmodel, 72, 20));
    println!("wrote:");
    for p in written {
        println!("  {p}");
    }
}

fn save(name: &str, pts: &[Vec<f64>], model: &Clustering, trail: &IterationTrail) -> String {
    let svg = render_svg(name, pts, model, trail, 640, 480);
    write_artifact(&format!("fig8/{name}.svg"), &svg).expect("write SVG").display().to_string()
}
