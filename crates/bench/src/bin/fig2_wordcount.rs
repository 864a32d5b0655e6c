//! Figure 2 — Wordcount runtime vs. input size, normal vs. cross-domain
//! 16-node hadoop virtual cluster.
//!
//! ```sh
//! cargo run --release -p vhadoop-bench --bin fig2_wordcount [--scale 8|--full]
//! ```

use mapreduce::config::JobConfig;
use simcore::rng::RootSeed;
use vcluster::spec::{ClusterSpec, Placement};
use vhadoop_bench::{cli_scale, non_decreasing, write_artifact, ResultSink};
use vhdfs::hdfs::HdfsConfig;
use workloads::wordcount::{run_wordcount_traced, run_wordcount_with};

fn main() {
    let scale = cli_scale();
    // Paper x-axis: TOEFL text, tens to hundreds of MB.
    let sizes_mb: Vec<u64> = [16u64, 32, 64, 128, 256, 512]
        .iter()
        .map(|&s| (s as f64 / scale).max(1.0) as u64)
        .collect();
    println!("fig2: wordcount, 16 VMs, input sizes {sizes_mb:?} MB (scale {scale})");

    let mut sink = ResultSink::new("fig2_wordcount", "input MB", "running time s");
    for (series, placement) in
        [("normal", Placement::SingleDomain), ("cross-domain", Placement::CrossDomain)]
    {
        for &mb in &sizes_mb {
            let spec = ClusterSpec::builder().hosts(2).vms(16).placement(placement.clone()).build();
            // The paper's wordcount: mappers emit raw (word, 1) pairs and
            // reducers sum — no combiner, so the full intermediate data
            // shuffles between VMs (the traffic cross-domain placement
            // puts onto the physical wire). Blocks sized so the maps
            // spread over all 15 workers.
            let cfg = JobConfig::default().with_combiner(false).with_reduces(4);
            let hdfs = HdfsConfig { block_size: ((mb << 20) / 15).max(1 << 20), replication: 3 };
            let rep = run_wordcount_with(spec, mb << 20, cfg, hdfs, RootSeed(2012));
            println!("  {series:<13} {mb:>5} MB -> {:>8.1}s", rep.elapsed_s);
            sink.push(series, mb as f64, rep.elapsed_s);
        }
    }
    sink.finish();

    // Re-run the smallest normal point with the structured tracer on and
    // archive the Chrome trace (open in chrome://tracing / Perfetto).
    let mb = sizes_mb[0];
    let spec = ClusterSpec::builder().hosts(2).vms(16).placement(Placement::SingleDomain).build();
    let cfg = JobConfig::default().with_combiner(false).with_reduces(4);
    let hdfs = HdfsConfig { block_size: ((mb << 20) / 15).max(1 << 20), replication: 3 };
    let (_, trace) = run_wordcount_traced(spec, mb << 20, cfg, hdfs, RootSeed(2012));
    for cat in ["map", "shuffle", "reduce", "hdfs"] {
        assert!(
            trace.contains(&format!(r#""cat":"{cat}""#)),
            "trace covers the {cat} span category"
        );
    }
    match write_artifact("fig2_wordcount.trace.json", &trace) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write trace: {e}"),
    }

    // Shape checks (the paper's qualitative claims).
    let normal = sink.series_points("normal");
    let cross = sink.series_points("cross-domain");
    assert!(non_decreasing(&normal, 0.05), "runtime grows with input size (normal)");
    assert!(non_decreasing(&cross, 0.05), "runtime grows with input size (cross)");
    let gap_small = cross[0].1 / normal[0].1;
    let gap_large = cross.last().expect("points").1 / normal.last().expect("points").1;
    println!(
        "cross/normal gap: {gap_small:.2}x at {} MB -> {gap_large:.2}x at {} MB",
        normal[0].0,
        normal.last().expect("points").0
    );
    assert!(gap_large >= 1.0, "cross-domain never beats normal at scale");
}
