//! TPCx-HS — HSGen → HSSort → HSValidate with the HSph@SF figure of
//! merit, swept over scale factors and cluster shapes (DESIGN.md §17):
//!
//! * `colocated` — every worker VM runs datanode + TaskTracker (the
//!   paper's layout);
//! * `disaggregated` — datanode VMs and TaskTracker VMs on disjoint
//!   host sets (the Frankfurt virtualized-Hadoop "separated"
//!   configuration): every map read and output write crosses the wire;
//! * `hetero` — colocated on heterogeneous hosts (hosts 2-3 at half
//!   CPU and quarter disk speed via [`HostClass`] multipliers).
//!
//! Writes `results/tpcxhs.{json,csv}`: per SF (2, 4 and 8 MB) × configuration the
//! HSph@SF figure of merit plus `<config>/total_s` and the per-phase
//! `<config>/gen_s|sort_s|validate_s` series. Every run must pass
//! HSValidate and account for `sf_bytes / 100` records (asserted).

use crate::{non_decreasing, ResultSink};
use mapreduce::prelude::MrRuntime;
use mapreduce::runtime::NodeRoles;
use simcore::rng::RootSeed;
use vcluster::cluster::VmId;
use vcluster::spec::{ClusterSpec, HostClass, Placement};
use workloads::tpcxhs::{run_tpcxhs, HsPlan, HsReport};

const REPLICATION: u32 = 2;
const BLOCK: u64 = 250_000;
const REDUCES: u32 = 4;
const SFS: [u64; 3] = [2_000_000, 4_000_000, 8_000_000];

struct Config {
    name: &'static str,
    spec: ClusterSpec,
    roles: NodeRoles,
}

fn configs() -> Vec<Config> {
    // 1 master + 8 workers over 4 hosts in every shape, so the three
    // configurations differ only in daemon placement and host speed.
    let colocated =
        ClusterSpec::builder().hosts(4).vms(9).placement(Placement::CrossDomain).build();
    // Frankfurt "separated": storage VMs pinned to hosts 0-1, compute
    // VMs to hosts 2-3 (master with the data) — every read, shuffle
    // hop, and output write crosses host NICs.
    let split = ClusterSpec::builder()
        .hosts(4)
        .vms(9)
        .placement(Placement::Custom(vec![0, 0, 0, 1, 1, 2, 2, 3, 3]))
        .build();
    let hetero = ClusterSpec::builder()
        .hosts(4)
        .vms(9)
        .placement(Placement::CrossDomain)
        .host_classes(vec![
            HostClass::default(),
            HostClass::default(),
            HostClass { cpu_mult: 0.5, disk_mult: 0.25 },
            HostClass { cpu_mult: 0.5, disk_mult: 0.25 },
        ])
        .build();
    vec![
        Config { name: "colocated", spec: colocated, roles: NodeRoles::colocated() },
        Config {
            name: "disaggregated",
            spec: split,
            roles: NodeRoles::separated((1..=4).map(VmId).collect(), (5..=8).map(VmId).collect()),
        },
        Config { name: "hetero", spec: hetero, roles: NodeRoles::colocated() },
    ]
}

fn run_one(cfg: &Config, sf_bytes: u64, seed: u64) -> HsReport {
    let plan = HsPlan::new(sf_bytes, REDUCES, RootSeed(seed)).with_block_size(BLOCK);
    let mut rt = MrRuntime::with_roles(
        cfg.spec.clone(),
        plan.hdfs_config(REPLICATION),
        cfg.roles.clone(),
        plan.seed,
    );
    run_tpcxhs(&mut rt, &plan)
}

pub fn run(_scale: f64) {
    println!("tpcxhs: SFs {SFS:?} bytes, {REDUCES} reduces, block {BLOCK}");

    let mut sink = ResultSink::new("tpcxhs", "scale factor MB", "HSph@SF (GB/h)");
    for cfg in configs() {
        for sf in SFS {
            let rep = run_one(&cfg, sf, 4242);
            assert!(
                rep.validate.passed,
                "{}@{sf}: clean run must validate, got {:?}",
                cfg.name, rep.validate.violations
            );
            assert_eq!(
                rep.records * 100,
                sf,
                "{}@{sf}: every scale-factor byte must be a 100-byte record",
                cfg.name
            );
            println!(
                "  {:<13} SF {:>9} B -> gen {:>7.1}s sort {:>7.1}s validate {:>7.1}s  HSph@SF {:>8.4}  [{}]",
                cfg.name,
                sf,
                rep.gen_s,
                rep.sort_s,
                rep.validate_s,
                rep.hsph,
                if rep.validate.passed { "pass" } else { "FAIL" },
            );
            let sf_mb = sf as f64 / 1e6;
            sink.push(cfg.name, sf_mb, rep.hsph);
            for (phase, secs) in [
                ("total_s", rep.total_s),
                ("gen_s", rep.gen_s),
                ("sort_s", rep.sort_s),
                ("validate_s", rep.validate_s),
            ] {
                sink.push(&format!("{}/{phase}", cfg.name), sf_mb, secs);
            }
        }
    }
    sink.finish();

    // Shapes. The figure of merit amortizes startup with scale, so
    // HSph@SF grows with SF for every configuration. Between layouts
    // there is a crossover: with NFS-backed shared storage (the vHadoop
    // architecture) every HDFS byte already crosses the storage path,
    // so at small SF the Frankfurt "separated" layout's smaller compute
    // tier (4 trackers vs 8) shrinks the shuffle fan-out and wins — but
    // at larger SF colocation's doubled map slots dominate.
    // Heterogeneous hosts can only drag the figure of merit down.
    let at = |series: &str, sf: u64| sink.at(series, sf as f64 / 1e6);
    for name in ["colocated", "disaggregated", "hetero"] {
        assert!(
            non_decreasing(&sink.series_points(name), 0.02),
            "{name}: HSph@SF must grow with the scale factor"
        );
    }
    for sf in SFS {
        assert!(
            at("hetero", sf) <= at("colocated", sf) * 1.001,
            "SF {sf}: hetero HSph must not beat homogeneous colocated"
        );
    }
    let (small, big) = (SFS[0], SFS[SFS.len() - 1]);
    assert!(
        at("disaggregated", small) >= at("colocated", small) * 0.999,
        "SF {small}: separation's smaller shuffle fan-out must win at small scale"
    );
    assert!(
        at("colocated", big) >= at("disaggregated", big) * 0.999,
        "SF {big}: colocation's extra map slots must win at large scale"
    );
    println!("tpcxhs: all shape assertions hold");
}
