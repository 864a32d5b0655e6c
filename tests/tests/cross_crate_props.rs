//! Cross-crate randomized tests: invariants that must hold for arbitrary
//! configurations of the whole stack (seeded loops plus the in-repo
//! `proptest` shim — the offline build has no crates.io proptest).

use mapreduce::config::JobConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcore::rng::RootSeed;
use vcluster::spec::{ClusterSpec, Placement};
use workloads::terasort::run_terasort;
use workloads::wordcount::run_wordcount;

/// TeraSort output is globally sorted and complete for arbitrary data
/// sizes, reduce counts, and placements.
#[test]
fn terasort_always_sorts() {
    let mut rng = StdRng::seed_from_u64(0x7E2A);
    for _case in 0..8 {
        let kb = rng.gen_range(64u64..2048);
        let reduces = rng.gen_range(1u32..6);
        let placement =
            if rng.gen_bool(0.5) { Placement::CrossDomain } else { Placement::SingleDomain };
        let seed = rng.gen_range(0u64..1000);
        let cluster = ClusterSpec::builder().hosts(2).vms(5).placement(placement).build();
        let rep = run_terasort(cluster, kb * 1024, reduces, RootSeed(seed));
        assert!(rep.valid, "unsorted or lossy output for {kb} KB / {reduces} reduces");
        assert!(rep.records > 0);
    }
}

/// Wordcount conserves words: total counted occurrences are identical
/// whatever the reduce count, combiner setting, or placement.
#[test]
fn wordcount_conserves_counts() {
    // The canonical run (1 reduce, combiner on) on the same corpus.
    let base_cluster = ClusterSpec::builder().hosts(2).vms(6).build();
    let base = run_wordcount(base_cluster, 2 << 20, JobConfig::default(), RootSeed(13));
    let base_total: i64 = base.result.outputs.iter().map(|(_, v)| v.as_int()).sum();

    let mut rng = StdRng::seed_from_u64(0x33CC);
    for _case in 0..8 {
        let reduces = rng.gen_range(1u32..5);
        let combiner = rng.gen_bool(0.5);
        let placement =
            if rng.gen_bool(0.5) { Placement::CrossDomain } else { Placement::SingleDomain };
        let cluster = ClusterSpec::builder().hosts(2).vms(6).placement(placement).build();
        let cfg = JobConfig::default().with_reduces(reduces).with_combiner(combiner);
        let rep = run_wordcount(cluster, 2 << 20, cfg, RootSeed(13));
        let total: i64 = rep.result.outputs.iter().map(|(_, v)| v.as_int()).sum();
        assert_eq!(total, base_total, "word occurrences must be conserved");
    }
}

/// The simulated clock only moves forward and jobs always terminate.
#[test]
fn jobs_always_terminate() {
    let mut rng = StdRng::seed_from_u64(0x7E51);
    for _case in 0..6 {
        let vms = rng.gen_range(3u32..10);
        let mb = rng.gen_range(1u64..6);
        let cluster =
            ClusterSpec::builder().hosts(2).vms(vms).placement(Placement::CrossDomain).build();
        let rep = run_wordcount(cluster, mb << 20, JobConfig::default(), RootSeed(17));
        assert!(rep.elapsed_s.is_finite() && rep.elapsed_s > 0.0);
    }
}

/// A random `FaultPlan` over a random small cluster never breaks the
/// platform's core guarantees: the run terminates, the job's output
/// payload equals the fault-free run's, and no block ever drops to zero
/// live replicas (replication 3 vs. at most 2 crashes).
#[test]
fn random_fault_plans_preserve_results_and_data() {
    use vhadoop::prelude::*;

    let mb = 1u64 << 20;
    let run = |vms: u32, seed: u64, plan: FaultPlan| {
        let mut p = VHadoop::launch(
            PlatformConfig::builder()
                .cluster(
                    ClusterSpec::builder()
                        .hosts(2)
                        .vms(vms)
                        .placement(Placement::CrossDomain)
                        .build(),
                )
                .hdfs(HdfsConfig { block_size: mb, replication: 3 })
                .faults(plan)
                .seed(seed)
                .build(),
        );
        p.register_input("/prop/in", 3 * mb, VmId(1));
        let corpus = workloads::textgen::TextCorpus::english_like(RootSeed(seed).derive("corpus"));
        let input = GeneratorInput::new(3, mb, move |idx| corpus.split_records(idx, mb));
        let spec = JobSpec::new("wc", "/prop/in", "/prop/out")
            .with_config(JobConfig::default().with_reduces(2));
        // run_job panics if the simulation drains first — that IS the
        // termination property.
        let result = p.run_job(spec, Box::new(workloads::wordcount::WordCountApp), Box::new(input));
        while p.step().is_some() {}
        let mut outputs: Vec<(String, i64)> =
            result.outputs.iter().map(|(k, v)| (k.as_text().to_string(), v.as_int())).collect();
        outputs.sort();
        (outputs, p)
    };

    proptest::check("random-fault-plans", proptest::Config::with_cases(5), |g| {
        let vms = g.u32_in(5, 8);
        let seed = g.u64_in(0, 10_000);
        let (clean, _) = run(vms, seed, FaultPlan::new());

        let mut profile = FaultProfile::new(vms, 2);
        profile.max_events = g.u32_in(1, 5);
        let plan = FaultPlan::random(&profile, RootSeed(g.u64_in(0, u64::MAX - 1)));
        let planned = plan.len();
        let (faulted, p) = run(vms, seed, plan);

        assert_eq!(faulted, clean, "injected faults changed the job's output payload");
        assert_eq!(p.rt.hdfs.lost_blocks(), 0, "a block lost its last replica");
        for (id, meta) in p.rt.hdfs.namespace().blocks() {
            assert!(!meta.replicas.is_empty(), "{id} has no live replica");
        }
        assert_eq!(
            p.fault_log().iter().map(|f| f.lost_blocks).sum::<usize>(),
            0,
            "an injected crash destroyed acknowledged data"
        );
        assert_eq!(p.fault_log().len(), planned, "every planned event fires exactly once");
    });
}

/// HSSort under random `FaultPlan`s never yields a silently wrong
/// validated run: either HSValidate passes AND the output really is
/// globally sorted and record-count-preserving, or the run reports an
/// explicit failure (a violation, or a panic on drain — termination is
/// part of the property).
#[test]
fn random_fault_plans_never_validate_a_wrong_hssort() {
    use vhadoop::prelude::*;
    use workloads::tpcxhs::{
        hsgen_job, hssort_job, hsvalidate_job, hsvalidate_verdict, integrity_prescan,
        record_sort_checksums, register_hsgen, HsPlan,
    };

    proptest::check("hssort-under-faults", proptest::Config::with_cases(4), |g| {
        let vms = g.u32_in(6, 9);
        let seed = g.u64_in(0, 10_000);
        let plan = HsPlan::new(400_000, 2, RootSeed(seed)).with_block_size(100_000);
        let mut profile = FaultProfile::new(vms, 2);
        profile.max_events = g.u32_in(1, 4);
        let fault_plan = FaultPlan::random(&profile, RootSeed(g.u64_in(0, u64::MAX - 1)));

        let mut p = VHadoop::launch(
            PlatformConfig::builder()
                .cluster(
                    ClusterSpec::builder()
                        .hosts(2)
                        .vms(vms)
                        .placement(Placement::CrossDomain)
                        .build(),
                )
                .hdfs(plan.hdfs_config(3))
                .faults(fault_plan)
                .seed(seed)
                .build(),
        );
        let (spec, app, input) = hsgen_job(&plan);
        p.run_job(spec, app, input);
        register_hsgen(&mut p.rt, &plan);
        let (spec, app, input) = hssort_job(&plan);
        let sort = p.run_job(spec, app, input);
        while p.step().is_some() {}
        record_sort_checksums(&mut p.rt, &sort);

        let pre = integrity_prescan(&p.rt);
        if !pre.is_empty() {
            return; // explicit failure — diagnosed, not silent
        }
        let (spec, app, input) = hsvalidate_job(&p.rt, &plan, &sort);
        let vres = p.run_job(spec, app, input);
        let verdict = hsvalidate_verdict(&p.rt, &plan, &vres);
        if verdict.passed {
            // A passing verdict must be *true*: re-check the claimed
            // invariants directly against the output.
            assert!(
                sort.outputs.windows(2).all(|w| w[0].0 <= w[1].0),
                "verdict passed but the output is not globally sorted"
            );
            assert_eq!(
                sort.outputs.len() as u64,
                plan.total_records(),
                "verdict passed but records were lost or duplicated"
            );
        }
    });
}

/// Rack-aware placement: on a two-rack fabric with the default
/// replication factor, every chosen replica set spans at least two racks
/// whenever both racks hold datanodes — the invariant that makes a block
/// survive the loss of a whole rack.
#[test]
fn replica_sets_span_racks_when_capacity_allows() {
    use simcore::prelude::Engine;
    use vcluster::cluster::{VirtualCluster, VmId};

    proptest::check("replicas-span-racks", proptest::Config::with_cases(16), |g| {
        let vms = g.u32_in(4, 16);
        let spec = ClusterSpec::builder()
            .hosts(4)
            .vms(vms)
            .placement(Placement::CrossDomain)
            .racks(2)
            .build();
        let mut e = Engine::new();
        let c = VirtualCluster::new(&mut e, spec);
        // Round-robin over 4 hosts with contiguous racks (hosts 0,1 | 2,3):
        // vms >= 4 guarantees datanodes in both racks.
        let datanodes: Vec<VmId> = (1..vms).map(VmId).collect();
        let writer = VmId(g.u32_in(1, vms - 1));
        let mut rng = simcore::rng::RootSeed(g.u64_in(0, u64::MAX - 1)).stream("prop");
        let reps = vhdfs::placement::choose_replicas(&c, &datanodes, writer, 3, &mut rng);
        assert_eq!(reps[0], writer, "first replica stays on the writer");
        let racks: std::collections::BTreeSet<u32> = reps.iter().map(|&v| c.rack_of(v).0).collect();
        assert!(
            racks.len() >= 2,
            "replicas {reps:?} all landed in rack {racks:?} with both racks available"
        );
    });
}

/// The payoff of the invariant above: no plan of datanode failures that
/// takes out an *entire rack* — in any order, interleaved with
/// re-replication — ever drops a block below one rack's worth of
/// replicas. After the outage every block still has a live replica, and
/// it lives in the surviving rack.
#[test]
fn whole_rack_outage_never_loses_data() {
    use simcore::prelude::*;
    use vcluster::cluster::{VirtualCluster, VmId};
    use vhdfs::hdfs::{Hdfs, HdfsConfig};

    proptest::check("rack-outage-keeps-data", proptest::Config::with_cases(8), |g| {
        let vms = g.u32_in(8, 14);
        let seed = g.u64_in(0, 10_000);
        let spec = ClusterSpec::builder()
            .hosts(4)
            .vms(vms)
            .placement(Placement::CrossDomain)
            .racks(2)
            .build();
        let mut e = Engine::new();
        let c = VirtualCluster::new(&mut e, spec);
        let mut h = Hdfs::format(&c, HdfsConfig::default(), RootSeed(seed));

        let files = g.u32_in(1, 4);
        for f in 0..files {
            let mb = u64::from(g.u32_in(1, 200));
            h.register_file(&c, &format!("/rack/{f}"), mb << 20, VmId(1 + f % (vms - 1)));
        }

        // Kill every datanode of a random rack, in a random order.
        let doomed_rack = g.u32_in(0, 1);
        let mut doomed: Vec<VmId> =
            h.datanodes().iter().copied().filter(|&v| c.rack_of(v).0 == doomed_rack).collect();
        let mut order = StdRng::seed_from_u64(g.u64_in(0, u64::MAX - 1));
        for i in (1..doomed.len()).rev() {
            doomed.swap(i, order.gen_range(0..=i));
        }
        for vm in doomed {
            let (_, lost) = h.fail_datanode(&mut e, &c, vm);
            assert_eq!(lost, 0, "losing {vm} (rack {doomed_rack}) destroyed a block");
        }
        while let Some((_, w)) = e.next_wakeup() {
            h.on_wakeup(&mut e, &w);
        }

        assert_eq!(h.lost_blocks(), 0, "a whole-rack outage must not lose data");
        for (id, bm) in h.namespace().blocks() {
            assert!(!bm.replicas.is_empty(), "{id} has no live replica");
            for &r in &bm.replicas {
                assert_ne!(c.rack_of(r).0, doomed_rack, "{id} lists a replica on the dead rack");
            }
        }
    });
}

/// The admission queue never starves: whatever random `FaultPlan` is
/// thrown at a controller-driven job stream, every admitted job is
/// eventually started and finished — the closed loop keeps pumping
/// through crashes, stalls, and partitions.
#[test]
fn controller_never_starves_jobs_under_random_faults() {
    use vhadoop::prelude::*;
    use workloads::loadgen::load_job;

    let mb = 1u64 << 20;
    proptest::check("controller-never-starves", proptest::Config::with_cases(5), |g| {
        let vms = g.u32_in(6, 10);
        let seed = g.u64_in(0, 10_000);
        let mut profile = FaultProfile::new(vms, 2);
        profile.max_events = g.u32_in(1, 4);
        let plan = FaultPlan::random(&profile, RootSeed(g.u64_in(0, u64::MAX - 1)));

        let mut cfg = ControllerConfig::enabled_with(PlacementKind::Spread);
        cfg.queue.max_active = 2;
        let mut p = VHadoop::launch(
            PlatformConfig::builder()
                .cluster(
                    ClusterSpec::builder()
                        .hosts(2)
                        .vms(vms)
                        .placement(Placement::SingleDomain)
                        .build(),
                )
                .hdfs(HdfsConfig { block_size: mb, replication: 3 })
                .faults(plan)
                .seed(seed)
                .controller(cfg)
                .build(),
        );
        let jobs = g.u32_in(3, 5);
        for run in 0..jobs {
            let cpu = 1.0 + f64::from(run);
            p.schedule_job(
                SimTime::from_secs(u64::from(run)),
                run % 2,
                cpu + 2.0,
                load_job(run, 3, cpu, mb),
            );
        }
        let done = p.drive_until_idle();
        assert_eq!(done.len() as u32, jobs, "a job was lost under faults");

        let rep = p.controller().unwrap().slo_report();
        assert_eq!(rep.admitted, u64::from(jobs));
        assert_eq!(rep.starved, 0, "an admitted job never started: {rep:?}");
        assert_eq!(rep.finished, u64::from(jobs));
    });
}

/// A regression tree fitted on arbitrary data survives a
/// `simcore::persist` encode/decode round trip with **bitwise** identical
/// predictions — the property that makes a learned cost model safe to
/// carry inside deterministic snapshots.
#[test]
fn fitted_trees_round_trip_to_identical_predictions() {
    use simcore::persist::{Decoder, Encoder, Persist};
    use vsched::model::{RegressionTree, TreeConfig};

    proptest::check("tree-persist-roundtrip", proptest::Config::with_cases(32), |g| {
        let n_rows = g.usize_in(2, 60);
        let n_feats = g.usize_in(1, 8);
        let rows: Vec<Vec<f64>> =
            (0..n_rows).map(|_| (0..n_feats).map(|_| g.f64_in(-100.0, 100.0)).collect()).collect();
        let labels: Vec<f64> = (0..n_rows).map(|_| g.f64_in(0.0, 500.0)).collect();
        let cfg = TreeConfig { max_depth: g.usize_in(1, 10), min_leaf: g.usize_in(1, 5) };
        let tree = RegressionTree::fit(&rows, &labels, &cfg);

        let mut e = Encoder::new();
        tree.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let back = RegressionTree::decode(&mut d);
        assert!(d.is_exhausted(), "decoder must consume every byte");
        assert_eq!(tree, back, "structural equality after the round trip");
        for r in &rows {
            assert_eq!(
                tree.predict(r).to_bits(),
                back.predict(r).to_bits(),
                "prediction changed across persist round trip"
            );
        }
        // And probe points the tree never saw.
        for _ in 0..8 {
            let x: Vec<f64> = (0..n_feats).map(|_| g.f64_in(-200.0, 200.0)).collect();
            assert_eq!(tree.predict(&x).to_bits(), back.predict(&x).to_bits());
        }
    });
}
