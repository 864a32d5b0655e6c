//! Table I — the MapReduce-based parallel benchmark catalogue, with a
//! smoke run of each on a small virtual cluster to prove the row is live.

use mapreduce::config::JobConfig;
use mapreduce::runtime::MrRuntime;
use simcore::rng::RootSeed;
use vcluster::spec::{ClusterSpec, Placement};
use workloads::prelude::*;

fn cluster() -> ClusterSpec {
    ClusterSpec::builder().hosts(2).vms(8).placement(Placement::SingleDomain).build()
}

pub fn run(_scale: f64) {
    println!("{:<12} {:<18} {:<52} {:>10}", "Name", "Category", "Description", "smoke(s)");
    let rows: [(&str, &str, &str); 4] = [
        ("Wordcount", "MapReduce", "Reads text files and counts how often words occur"),
        ("MRBench", "MapReduce", "Checks whether small job runs are responsive/efficient"),
        ("TeraSort", "MapReduce & HDFS", "Sorts the data as fast as possible (HDFS + MapReduce)"),
        ("DFSIOTest", "HDFS", "A read and write test for HDFS"),
    ];
    let seed = RootSeed(1);
    let times = [
        run_wordcount(cluster(), 4 << 20, JobConfig::default(), seed).elapsed_s,
        run_mrbench(cluster(), 2, 1, seed).elapsed_s,
        {
            let plan = HsPlan::terasort(2 << 20, 2, seed);
            let r = run_tpcxhs(&mut MrRuntime::new(cluster(), plan.hdfs_config(3), seed), &plan);
            assert!(r.validate.passed, "TeraValidate must pass: {:?}", r.validate.violations);
            r.gen_s + r.sort_s
        },
        {
            let r = run_dfsio(cluster(), 2, 8 << 20, seed);
            r.write_time_s + r.read_time_s
        },
    ];
    for ((name, cat, desc), t) in rows.into_iter().zip(times) {
        println!("{name:<12} {cat:<18} {desc:<52} {t:>10.1}");
    }
}
