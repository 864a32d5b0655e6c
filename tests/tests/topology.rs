//! End-to-end contract of the hierarchical network topology: a
//! single-rack spec — whatever its core bandwidth says — degenerates
//! byte-for-byte to the flat two-level fabric, multi-rack fabrics stay
//! deterministic while genuinely changing the simulation, and the
//! per-rack ToR accounting sees the traffic the fabric carries.

use vhadoop::prelude::*;
use workloads::wordcount::run_wordcount_traced;

const MB: u64 = 1 << 20;

/// The Fig. 2-shaped traced wordcount used as the identity probe: heavy
/// shuffle (no combiner), one block per map, fixed seed.
fn traced(spec: ClusterSpec) -> (f64, String) {
    let cfg = JobConfig::default().with_combiner(false).with_reduces(4);
    let hdfs = HdfsConfig { block_size: (16 * MB / 15).max(MB), replication: 3 };
    let (rep, trace) = run_wordcount_traced(spec, 16 * MB, cfg, hdfs, RootSeed(2012));
    (rep.elapsed_s, trace)
}

/// The degeneration contract behind every golden trace in this repo: on
/// one rack the topology layer must register the same resources in the
/// same order, consume the same RNG draws, and charge the same latencies
/// as the pre-topology code — so an explicit single-rack spec (with its
/// multi-rack-only core bandwidth set to a conspicuous value) traces
/// byte-identical to the untouched default.
#[test]
fn single_rack_topology_is_byte_identical_to_default() {
    let default_spec =
        ClusterSpec::builder().hosts(2).vms(16).placement(Placement::SingleDomain).build();
    // Ignored: one rack builds no core trunk.
    let explicit = ClusterSpec { racks: 1, core_bw: 123.0, ..default_spec.clone() };

    let (t_default, a) = traced(default_spec);
    let (t_explicit, b) = traced(explicit);
    assert!(t_default > 1.0);
    assert_eq!(t_default, t_explicit);
    assert_eq!(a, b, "a single-rack spec must not perturb the simulation");
}

/// Two racks keep the determinism contract (same spec + seed → identical
/// trace) while actually changing the fabric the bytes cross.
#[test]
fn racked_fabric_is_deterministic_and_diverges_from_flat() {
    let racked = || {
        traced(
            ClusterSpec::builder()
                .hosts(4)
                .vms(16)
                .placement(Placement::CrossDomain)
                .racks(2)
                .build(),
        )
    };
    let (ta, a) = racked();
    let (tb, b) = racked();
    assert_eq!(a, b, "same racked spec + seed must trace byte-identical");
    assert_eq!(ta, tb);

    let (_, flat) =
        traced(ClusterSpec::builder().hosts(4).vms(16).placement(Placement::CrossDomain).build());
    assert_ne!(a, flat, "two racks must actually change the simulated fabric");
}

/// The per-rack ToR counters account real traffic: an upload whose
/// replication pipeline spans both racks leaves switched bytes on both
/// ToRs, and utilization stays a sane fraction.
#[test]
fn rack_switch_stats_see_pipeline_traffic() {
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder()
                    .hosts(4)
                    .vms(8)
                    .placement(Placement::CrossDomain)
                    .racks(2)
                    .build(),
            )
            .hdfs(HdfsConfig { block_size: MB, replication: 3 })
            .build(),
    );
    p.upload_input("/topo/in", 8 * MB, VmId(1));
    while p.step().is_some() {}

    let elapsed = p.rt.engine.now().as_secs_f64();
    assert!(elapsed > 0.0);
    let stats = p.rt.cluster.rack_switch_stats(&p.rt.engine, elapsed);
    assert_eq!(stats.len(), 2, "one stat row per rack");
    for s in &stats {
        assert!(s.bytes > 0.0, "rack {} ToR never switched a byte", s.rack);
        assert!(
            (0.0..=1.0).contains(&s.mean_util),
            "rack {} mean utilization {} out of range",
            s.rack,
            s.mean_util
        );
    }
}
