//! Figure 4b — TestDFSIO read/write throughput, normal vs. cross-domain
//! (paper: read beats write; cross-domain degrades both).

use crate::{cluster_2x16, ResultSink, LAYOUTS};
use simcore::rng::RootSeed;
use workloads::dfsio::run_dfsio;

pub fn run(scale: f64) {
    let file_mb = ((256.0 / scale).max(4.0)) as u64;
    let files = 8u32;
    println!("fig4b: DFSIO, 16 VMs, {files} files x {file_mb} MB (scale {scale})");

    let mut sink = ResultSink::new("fig4b_dfsio", "op (0=write 1=read)", "throughput MB/s");
    for (series, placement) in LAYOUTS {
        let rep = run_dfsio(cluster_2x16(placement).build(), files, file_mb << 20, RootSeed(55));
        println!(
            "  {series:<13} write {:>7.1} MB/s ({:>6.1}s), read {:>7.1} MB/s ({:>6.1}s)",
            rep.write_mb_s, rep.write_time_s, rep.read_mb_s, rep.read_time_s
        );
        sink.push(series, 0.0, rep.write_mb_s);
        sink.push(series, 1.0, rep.read_mb_s);
    }
    sink.finish();

    // Shapes: read > write on both placements; cross write ≤ normal write.
    let normal = sink.series_points("normal");
    let cross = sink.series_points("cross-domain");
    assert!(normal[1].1 > normal[0].1, "normal: read beats write");
    assert!(cross[1].1 > cross[0].1, "cross: read beats write");
    assert!(cross[0].1 <= normal[0].1 * 1.05, "cross-domain write no faster than normal");
}
