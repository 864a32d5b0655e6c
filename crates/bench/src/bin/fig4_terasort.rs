//! Figure 4a — TeraSort: data generation time and sort time vs. data
//! size, normal vs. cross-domain (paper: both climb steeply past the
//! machine's comfortable working size). TeraGen, TeraSort and TeraValidate
//! run as the TPCx-HS stages HSGen, HSSort and HSValidate.
//!
//! ```sh
//! cargo run --release -p vhadoop-bench --bin fig4_terasort [--scale 8|--full]
//! ```

use mapreduce::runtime::MrRuntime;
use simcore::rng::RootSeed;
use vcluster::spec::{ClusterSpec, Placement};
use vhadoop_bench::{cli_scale, non_decreasing, ResultSink};
use workloads::tpcxhs::{run_tpcxhs, HsPlan};

fn main() {
    let scale = cli_scale();
    // Paper x-axis: 100 MB – 1 GB.
    let sizes_mb: Vec<u64> =
        [100u64, 200, 400, 600, 800].iter().map(|&s| (s as f64 / scale).max(2.0) as u64).collect();
    println!("fig4a: terasort, 16 VMs, sizes {sizes_mb:?} MB (scale {scale})");

    let mut sink = ResultSink::new("fig4a_terasort", "data MB", "time s");
    for (series, placement) in
        [("normal", Placement::SingleDomain), ("cross-domain", Placement::CrossDomain)]
    {
        for &mb in &sizes_mb {
            let spec = ClusterSpec::builder().hosts(2).vms(16).placement(placement.clone()).build();
            let plan = HsPlan::terasort(mb << 20, 4, RootSeed(44));
            let mut rt = MrRuntime::new(spec, plan.hdfs_config(3), plan.seed);
            let rep = run_tpcxhs(&mut rt, &plan);
            assert!(rep.validate.passed, "TeraValidate must pass: {:?}", rep.validate.violations);
            println!(
                "  {series:<13} {mb:>5} MB -> gen {:>7.1}s, sort {:>7.1}s",
                rep.gen_s, rep.sort_s
            );
            sink.push(&format!("{series}/gen"), mb as f64, rep.gen_s);
            sink.push(&format!("{series}/sort"), mb as f64, rep.sort_s);
        }
    }
    sink.finish();

    // Shapes: both times grow with size; sort > gen; cross ≥ normal.
    for series in ["normal/gen", "normal/sort", "cross-domain/gen", "cross-domain/sort"] {
        assert!(non_decreasing(&sink.series_points(series), 0.05), "{series} grows with size");
    }
    let last = sizes_mb.last().copied().expect("sizes") as f64;
    let at = |s: &str| {
        sink.series_points(s).iter().find(|(x, _)| (*x - last).abs() < 1e-9).expect("measured").1
    };
    assert!(at("normal/sort") > at("normal/gen"), "sorting beats generating in cost");
    assert!(at("cross-domain/sort") >= at("normal/sort") * 0.95, "cross-domain no faster");
}
