//! Figure 5 — per-VM migration time (a) and downtime (b) of a 16-node
//! hadoop virtual cluster, idle vs. running Wordcount, with 512 MB and
//! 1024 MB guests — and Table II, the whole-cluster totals of the same
//! four migrations (`results/table2_migration.{csv,json}`).
//!
//! Paper observations reproduced: migration time scales with memory;
//! downtime does not; a busy cluster migrates somewhat slower but suffers
//! order-of-magnitude larger and per-VM-variable downtime. Table II ratios:
//! wordcount migration time ≈ 3× idle; wordcount downtime ≈ 13× idle.
//!
//! ```sh
//! cargo run --release -p vhadoop-bench --bin fig5_migration [--scale 8|--full]
//! ```

use mapreduce::config::JobConfig;
use simcore::rng::RootSeed;
use vcluster::cluster::HostId;
use vcluster::migration::ClusterMigrationReport;
use vcluster::spec::{ClusterSpec, Placement};
use vhadoop::platform::{PlatformConfig, VHadoop};
use vhadoop_bench::{cli_scale, ResultSink};
use workloads::loadgen::submit_load_job;
use workloads::wordcount::submit_wordcount;

/// One configuration row of the experiment.
pub fn migrate(mem_mib: u64, busy: bool, load_mb: u64) -> ClusterMigrationReport {
    let cluster = ClusterSpec::builder()
        .hosts(2)
        .vms(16)
        .vm_mem_mib(mem_mib)
        .placement(Placement::SingleDomain)
        .build();
    // Small HDFS blocks give the load jobs enough concurrent map tasks to
    // keep every task slot busy during the migration window.
    let mut platform = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(cluster)
            .hdfs(vhdfs::hdfs::HdfsConfig { block_size: 4 << 20, replication: 3 })
            .build(),
    );
    if busy {
        let mut run = 0u32;
        let real = std::env::args().any(|a| a == "--real-wordcount");
        let (rep, _) = platform.migration(HostId(1)).under_load(|rt| {
            if real {
                // Paper-faithful: actual wordcount jobs over generated text
                // (slow in wall-clock terms — the simulator tokenizes every
                // byte for real).
                submit_wordcount(rt, run, load_mb << 20, JobConfig::default(), RootSeed(66));
            } else {
                // Default: synthetic jobs with a wordcount cost profile
                // (~3 s of guest CPU and 8 MB of spill/shuffle per map),
                // identical contention and dirtying without the wall-clock
                // cost of tokenizing gigabytes of text.
                let maps = rt.cluster.vm_count() - 1;
                submit_load_job(rt, run, maps, 2.0, 6 << 20);
            }
            run += 1;
            true
        });
        rep
    } else {
        platform.migration(HostId(1)).idle()
    }
}

fn main() {
    let scale = cli_scale();
    let load_mb = ((768.0 / scale).max(48.0)) as u64;
    let configs = [
        ("idle.512MB", 512u64, false),
        ("idle.1024MB", 1024, false),
        ("wordcount.512MB", 512, true),
        ("wordcount.1024MB", 1024, true),
    ];

    let mut fig5a = ResultSink::new("fig5a_migration_time", "vm index", "migration time s");
    let mut fig5b = ResultSink::new("fig5b_downtime", "vm index", "downtime ms");
    let mut reports = Vec::new();
    for (name, mem, busy) in configs {
        println!("migrating 16-VM cluster: {name} ...");
        let rep = migrate(mem, busy, load_mb);
        for vm in &rep.per_vm {
            fig5a.push(name, f64::from(vm.vm), vm.migration_time.as_secs_f64());
            fig5b.push(name, f64::from(vm.vm), vm.downtime.as_millis_f64());
        }
        reports.push((name, rep));
    }
    fig5a.finish();
    fig5b.finish();

    // --- Table II: whole-cluster totals, in the paper's row order ---------
    let mut table2 = ResultSink::new("table2_migration", "row (see series)", "value");
    println!(
        "\n{:<22} {:>22} {:>22}",
        "configuration", "overall migration (s)", "overall downtime (ms)"
    );
    let row_order = ["idle.1024MB", "idle.512MB", "wordcount.1024MB", "wordcount.512MB"];
    let totals = |name: &str| -> (f64, f64) {
        let (_, rep) = reports.iter().find(|(n, _)| *n == name).expect("configuration ran");
        (rep.total_time.as_secs_f64(), rep.total_downtime.as_millis_f64())
    };
    for (i, name) in row_order.into_iter().enumerate() {
        let (t, d) = totals(name);
        println!("{name:<22} {t:>22.1} {d:>22.1}");
        table2.push(&format!("{name}/time_s"), i as f64, t);
        table2.push(&format!("{name}/downtime_ms"), i as f64, d);
    }
    table2.finish();

    // --- shape checks -----------------------------------------------------
    let mean = |name: &str, sink: &ResultSink| -> f64 {
        let pts = sink.series_points(name);
        pts.iter().map(|(_, y)| y).sum::<f64>() / pts.len() as f64
    };
    // (i) migration time ∝ memory; downtime uncorrelated with memory.
    assert!(
        mean("idle.1024MB", &fig5a) > 1.6 * mean("idle.512MB", &fig5a),
        "migration time tracks memory size"
    );
    let d512 = mean("idle.512MB", &fig5b);
    let d1024 = mean("idle.1024MB", &fig5b);
    assert!(
        (d1024 - d512).abs() < 0.6 * d512.max(50.0),
        "idle downtime uncorrelated with memory: {d512:.0} vs {d1024:.0} ms"
    );
    // (ii) busy migration slightly longer; busy downtime much longer.
    assert!(mean("wordcount.1024MB", &fig5a) > mean("idle.1024MB", &fig5a));
    assert!(
        mean("wordcount.1024MB", &fig5b) > 4.0 * mean("idle.1024MB", &fig5b),
        "busy downtime ≫ idle downtime"
    );
    // (iii) busy downtime varies widely across VMs.
    let busy_downs: Vec<f64> =
        fig5b.series_points("wordcount.1024MB").iter().map(|(_, y)| *y).collect();
    let min = busy_downs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = busy_downs.iter().cloned().fold(0.0f64, f64::max);
    println!("busy per-VM downtime spread: {min:.0}..{max:.0} ms");
    assert!(max > 2.0 * min.max(1.0), "wordcount downtime varies widely per node");

    // (iv) Table II ratios.
    let (ti, di) = totals("idle.1024MB");
    let (tw, dw) = totals("wordcount.1024MB");
    println!(
        "\nwordcount/idle ratios: migration time {:.1}x (paper ~3x), downtime {:.1}x (paper ~13x)",
        tw / ti,
        dw / di
    );
    assert!(tw / ti > 1.5, "busy migration substantially slower");
    assert!(dw / di > 4.0, "busy downtime an order of magnitude worse");
}
