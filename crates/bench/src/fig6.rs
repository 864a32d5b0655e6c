//! Figure 6 — parallel clustering (Canopy, Dirichlet, MeanShift) on the
//! Synthetic Control Chart set at hadoop virtual cluster scales 2→16
//! (paper: runtime *increases* with cluster size because the data set is
//! fixed and small, so added nodes only add communication). The data set
//! is small, so it runs at paper size at every scale.

use crate::ResultSink;
use mlkit::datasets::control_chart;
use mlkit::suite::{run_algorithm, Algorithm, DatasetKind};
use simcore::rng::RootSeed;

pub fn run(_scale: f64) {
    // Paper data set: 600 series × 60 points.
    let data = control_chart(RootSeed(2012), 100, 60);
    println!("fig6: clustering {} control-chart series at cluster scales 2..16", data.len());

    let mut sink = ResultSink::new("fig6_control_chart", "cluster VMs", "running time s");
    for alg in Algorithm::FIG6 {
        for vms in [2u32, 4, 8, 12, 16] {
            let run = run_algorithm(
                alg,
                DatasetKind::ControlChart,
                data.points.clone(),
                vms,
                RootSeed(61),
            );
            println!(
                "  {:<12} {vms:>2} VMs -> {:>7.1}s ({} clusters, {} passes)",
                alg.name(),
                run.stats.elapsed_s,
                run.clusters_found,
                run.stats.iterations
            );
            sink.push(alg.name(), f64::from(vms), run.stats.elapsed_s);
        }
    }
    sink.finish();

    // Shape: every algorithm is slower at 16 VMs than at 2.
    for alg in Algorithm::FIG6 {
        let pts = sink.series_points(alg.name());
        let (first, last) = (pts.first().expect("pts").1, pts.last().expect("pts").1);
        println!("{}: {first:.1}s @2 VMs -> {last:.1}s @16 VMs", alg.name());
        assert!(
            last > first,
            "{}: fixed data + bigger cluster must cost more ({first:.1}s -> {last:.1}s)",
            alg.name()
        );
    }
}
