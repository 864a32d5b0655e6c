//! Figure 7 — parallel visualizing-sample clustering (all six algorithms)
//! on 1 000 DisplayClustering samples at cluster scales 2→16 (paper: the
//! workload is light, so runtime stays relatively smooth/flat as the
//! cluster grows).

use crate::ResultSink;
use mlkit::datasets::gaussian_mixture_1000;
use mlkit::suite::{run_algorithm, Algorithm, DatasetKind};
use simcore::rng::RootSeed;

pub fn run(_scale: f64) {
    let data = gaussian_mixture_1000(RootSeed(2012));
    println!("fig7: clustering {} 2-D samples at cluster scales 2..16", data.len());

    let mut sink = ResultSink::new("fig7_display_clustering", "cluster VMs", "running time s");
    for alg in Algorithm::ALL {
        for vms in [2u32, 4, 8, 12, 16] {
            let run =
                run_algorithm(alg, DatasetKind::Display, data.points.clone(), vms, RootSeed(71));
            println!(
                "  {:<13} {vms:>2} VMs -> {:>6.1}s ({} clusters)",
                alg.name(),
                run.stats.elapsed_s,
                run.clusters_found
            );
            sink.push(alg.name(), f64::from(vms), run.stats.elapsed_s);
        }
    }
    sink.finish();

    // Shape: light workload stays comparatively smooth — the 2→16 growth
    // of each Fig. 7 series must be well below the Fig. 6 style blow-up.
    for alg in Algorithm::ALL {
        let pts = sink.series_points(alg.name());
        let (first, last) = (pts.first().expect("pts").1, pts.last().expect("pts").1);
        let growth = last / first.max(1e-9);
        println!("{}: growth 2->16 VMs = {growth:.2}x", alg.name());
        assert!(
            growth < 3.0,
            "{}: light workload should scale smoothly, grew {growth:.2}x",
            alg.name()
        );
    }
}
