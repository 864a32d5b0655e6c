//! Figure 3 — MRBench runtime vs. map count (a: reduce=1, maps 1..6) and
//! vs. reduce count (b: map=15, reduces 1..6), normal vs. cross-domain.

use crate::{cluster_2x16, non_decreasing, ResultSink, LAYOUTS};
use simcore::rng::RootSeed;
use workloads::mrbench::run_mrbench;

pub fn run(_scale: f64) {
    // --- Fig. 3a: scale maps, reduce = 1 --------------------------------
    let mut fig3a = ResultSink::new("fig3a_mrbench_maps", "maps", "running time s");
    for (series, placement) in LAYOUTS {
        for maps in 1..=6u32 {
            let rep = run_mrbench(cluster_2x16(placement.clone()).build(), maps, 1, RootSeed(33));
            println!("  3a {series:<13} maps={maps} -> {:>6.2}s", rep.elapsed_s);
            fig3a.push(series, f64::from(maps), rep.elapsed_s);
        }
    }
    fig3a.finish();

    // --- Fig. 3b: scale reduces, map = 15 -------------------------------
    let mut fig3b = ResultSink::new("fig3b_mrbench_reduces", "reduces", "running time s");
    for (series, placement) in LAYOUTS {
        for reduces in 1..=6u32 {
            let rep =
                run_mrbench(cluster_2x16(placement.clone()).build(), 15, reduces, RootSeed(33));
            println!("  3b {series:<13} reduces={reduces} -> {:>6.2}s", rep.elapsed_s);
            fig3b.push(series, f64::from(reduces), rep.elapsed_s);
        }
    }
    fig3b.finish();

    // Shape checks: time grows with concurrency; cross ≥ normal.
    for sink in [&fig3a, &fig3b] {
        let normal = sink.series_points("normal");
        let cross = sink.series_points("cross-domain");
        assert!(non_decreasing(&normal, 0.10), "{}: grows with concurrency", sink.experiment);
        assert!(
            cross.last().expect("pts").1 >= normal.last().expect("pts").1 * 0.95,
            "{}: cross-domain no faster at full concurrency",
            sink.experiment
        );
    }
}
