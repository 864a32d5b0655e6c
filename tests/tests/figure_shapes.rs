//! Reduced-scale shape assertions for the paper's static-performance
//! figures (Figs. 2–4): the same qualitative claims the registry experiments
//! verify at full scale, small enough for the test suite.

use mapreduce::config::JobConfig;
use mapreduce::runtime::MrRuntime;
use simcore::rng::RootSeed;
use vcluster::spec::{ClusterSpec, Placement};
use workloads::prelude::*;

const MB: u64 = 1 << 20;

fn cluster(placement: Placement) -> ClusterSpec {
    ClusterSpec::builder().hosts(2).vms(8).placement(placement).build()
}

#[test]
fn fig2_wordcount_grows_with_size_and_cross_domain_is_no_faster() {
    let mut last_normal = 0.0;
    for mb in [2u64, 4, 8] {
        let normal = run_wordcount(
            cluster(Placement::SingleDomain),
            mb * MB,
            JobConfig::default(),
            RootSeed(1),
        );
        assert!(
            normal.elapsed_s >= last_normal,
            "runtime grows with input: {mb} MB took {:.2}s after {last_normal:.2}s",
            normal.elapsed_s
        );
        last_normal = normal.elapsed_s;
    }
    let normal =
        run_wordcount(cluster(Placement::SingleDomain), 8 * MB, JobConfig::default(), RootSeed(1));
    let cross =
        run_wordcount(cluster(Placement::CrossDomain), 8 * MB, JobConfig::default(), RootSeed(1));
    assert!(
        cross.elapsed_s >= normal.elapsed_s * 0.9,
        "cross-domain ({:.2}s) must not meaningfully beat normal ({:.2}s)",
        cross.elapsed_s,
        normal.elapsed_s
    );
}

#[test]
fn fig3a_mrbench_grows_with_maps() {
    let t1 = run_mrbench(cluster(Placement::CrossDomain), 1, 1, RootSeed(2)).elapsed_s;
    let t6 = run_mrbench(cluster(Placement::CrossDomain), 6, 1, RootSeed(2)).elapsed_s;
    assert!(t6 > t1, "6 maps ({t6:.2}s) slower than 1 map ({t1:.2}s)");
}

#[test]
fn fig3b_mrbench_grows_with_reduces() {
    let t1 = run_mrbench(cluster(Placement::CrossDomain), 7, 1, RootSeed(2)).elapsed_s;
    let t6 = run_mrbench(cluster(Placement::CrossDomain), 7, 6, RootSeed(2)).elapsed_s;
    assert!(t6 > t1, "6 reduces ({t6:.2}s) slower than 1 reduce ({t1:.2}s)");
}

#[test]
fn fig4a_terasort_grows_and_validates() {
    let terasort = |bytes: u64| {
        let plan = HsPlan::terasort(bytes, 2, RootSeed(3));
        let spec = cluster(Placement::SingleDomain);
        (run_tpcxhs(&mut MrRuntime::new(spec, plan.hdfs_config(3), plan.seed), &plan), plan)
    };
    let (small, _) = terasort(MB);
    let (large, plan) = terasort(4 * MB);
    assert!(small.validate.passed && large.validate.passed, "TeraValidate passes");
    assert_eq!(large.records, plan.total_records());
    assert!(large.sort_s > small.sort_s, "sort time grows with data");
    assert!(large.gen_s > 0.0 && large.sort_s > large.gen_s);
}

#[test]
fn fig4b_dfsio_read_beats_write_everywhere() {
    for placement in [Placement::SingleDomain, Placement::CrossDomain] {
        let rep = run_dfsio(cluster(placement.clone()), 3, 16 * MB, RootSeed(4));
        assert!(
            rep.read_mb_s > rep.write_mb_s,
            "{placement:?}: read {:.1} MB/s > write {:.1} MB/s",
            rep.read_mb_s,
            rep.write_mb_s
        );
    }
}

#[test]
fn fig4b_cross_domain_write_degrades() {
    let normal = run_dfsio(cluster(Placement::SingleDomain), 4, 16 * MB, RootSeed(4));
    let cross = run_dfsio(cluster(Placement::CrossDomain), 4, 16 * MB, RootSeed(4));
    assert!(
        cross.write_mb_s <= normal.write_mb_s * 1.05,
        "cross write {:.1} vs normal {:.1} MB/s",
        cross.write_mb_s,
        normal.write_mb_s
    );
}
