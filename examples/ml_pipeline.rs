//! Parallel machine learning on the virtual cluster: the paper's Section
//! IV workload. Clusters the Synthetic Control Chart set with all six
//! Mahout-style algorithms and visualizes the DisplayClustering samples.
//!
//! ```sh
//! cargo run -p vhadoop-examples --bin ml_pipeline
//! ```

use mlkit::prelude::*;
use simcore::prelude::RootSeed;

fn main() {
    let seed = RootSeed(2012);

    // --- Synthetic Control Chart: 600 series × 60 points, 6 classes ----
    let chart = control_chart_600(seed);
    println!(
        "control chart data set: {} series × {} points, {} classes",
        chart.len(),
        chart.dims(),
        chart.classes.len()
    );
    println!(
        "\n{:<14} {:>9} {:>7} {:>9} {:>8}",
        "algorithm", "time(s)", "iters", "clusters", "purity"
    );
    for alg in Algorithm::ALL {
        let run = run_algorithm(alg, DatasetKind::ControlChart, chart.points.clone(), 8, seed);
        let purity_s = run
            .model
            .as_ref()
            .map(|m| format!("{:.2}", purity(&chart.labels, &m.assignments)))
            .unwrap_or_else(|| "  - ".into());
        println!(
            "{:<14} {:>9.1} {:>7} {:>9} {:>8}",
            alg.name(),
            run.stats.elapsed_s,
            run.stats.iterations,
            run.clusters_found,
            purity_s
        );
    }

    // --- DisplayClustering: visualize k-means converging ----------------
    let samples = gaussian_mixture_1000(seed);
    let params = KMeansParams { k: 3, max_iters: 10, convergence: 0.01, ..Default::default() };
    let mut trail = IterationTrail::new();
    let mut centers = mlkit::kmeans::init_centers(&samples.points, params.k, seed);
    trail.push(centers.clone());
    for _ in 0..params.max_iters {
        let (next, moved) = mlkit::kmeans::lloyd_step(&samples.points, &centers, params.distance);
        centers = next;
        trail.push(centers.clone());
        if moved < params.convergence {
            break;
        }
    }
    let assignments = samples
        .points
        .iter()
        .map(|p| mlkit::vector::nearest(p, &centers, params.distance).0)
        .collect();
    let model = Clustering { centers, assignments };

    println!("\nk-means on 1000 Gaussian samples ({} iterations):", trail.iterations.len() - 1);
    println!("{}", render_ascii(&samples.points, &model, 72, 22));

    let svg = render_svg(
        "k-means on DisplayClustering samples",
        &samples.points,
        &model,
        &trail,
        640,
        480,
    );
    let path = "target/ml_pipeline_kmeans.svg";
    if std::fs::create_dir_all("target").and_then(|()| std::fs::write(path, &svg)).is_ok() {
        println!("iteration-trail SVG written to {path}");
    }
}
