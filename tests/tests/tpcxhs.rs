//! TPCx-HS conformance: trace determinism across seeds, stable HSValidate
//! verdicts, the disaggregated-vs-colocated makespan ordering, injected
//! corruption and replica loss diagnosed precisely, and snapshot/restore
//! mid-HSSort finishing byte-identically with the same HSph@SF.

use mapreduce::prelude::*;
use simcore::rng::RootSeed;
use vcluster::spec::{ClusterSpec, Placement};
use vhadoop::prelude::*;
use workloads::tpcxhs::{
    hsgen_job, hssort_job, hsvalidate_job, hsvalidate_verdict, integrity_prescan,
    record_sort_checksums, register_hsgen, run_tpcxhs, HsCorruption, HsPlan, HsViolation, HS_OUT,
};

const REPLICATION: u32 = 2;

fn small_plan(seed: u64) -> HsPlan {
    HsPlan::new(200_000, 2, RootSeed(seed)).with_block_size(50_000)
}

fn small_cluster() -> ClusterSpec {
    ClusterSpec::builder().hosts(2).vms(8).placement(Placement::SingleDomain).build()
}

/// Runs the full pipeline on a traced `MrRuntime`; returns the report
/// and the exported Chrome trace.
fn traced_run(plan: &HsPlan) -> (workloads::tpcxhs::HsReport, String) {
    let mut rt = MrRuntime::new(small_cluster(), plan.hdfs_config(REPLICATION), plan.seed);
    rt.engine.tracer_mut().set_enabled(true);
    let rep = run_tpcxhs(&mut rt, plan);
    let trace = rt.engine.tracer().to_chrome_json();
    (rep, trace)
}

/// Re-running the same seed reproduces the trace byte for byte, for at
/// least four different seeds.
#[test]
fn trace_is_byte_identical_across_reruns_for_four_seeds() {
    for seed in [31u64, 32, 33, 34] {
        let plan = small_plan(seed);
        let (rep_a, trace_a) = traced_run(&plan);
        let (rep_b, trace_b) = traced_run(&plan);
        assert_eq!(trace_a, trace_b, "seed {seed}: trace diverged between identical runs");
        assert_eq!(rep_a.hsph, rep_b.hsph, "seed {seed}: figure of merit diverged");
        assert!(rep_a.validate.passed, "seed {seed}: {:?}", rep_a.validate.violations);
    }
}

/// The HSValidate verdict is a function of the data, not the seed: clean
/// runs pass and corrupted runs fail for every seed.
#[test]
fn validate_verdict_is_stable_across_seeds() {
    for seed in [41u64, 42, 43, 44] {
        let clean = small_plan(seed);
        let mut rt = MrRuntime::new(small_cluster(), clean.hdfs_config(REPLICATION), clean.seed);
        let rep = run_tpcxhs(&mut rt, &clean);
        assert!(rep.validate.passed, "seed {seed}: clean run failed {:?}", rep.validate.violations);
        assert_eq!(rep.records, clean.total_records());

        let bad = small_plan(seed).with_corruption(HsCorruption::FlipRecord { block: 0 });
        let mut rt = MrRuntime::new(small_cluster(), bad.hdfs_config(REPLICATION), bad.seed);
        let rep = run_tpcxhs(&mut rt, &bad);
        assert!(!rep.validate.passed, "seed {seed}: corruption went undetected");
    }
}

/// A flipped record between HSGen and HSSort is diagnosed as exactly an
/// input/output provenance mismatch: the output is still sorted and
/// count-preserving, so nothing else may fire.
#[test]
fn flipped_record_is_diagnosed_as_provenance_mismatch() {
    let plan = small_plan(7).with_corruption(HsCorruption::FlipRecord { block: 2 });
    let mut rt = MrRuntime::new(small_cluster(), plan.hdfs_config(REPLICATION), plan.seed);
    let rep = run_tpcxhs(&mut rt, &plan);
    assert!(!rep.validate.passed);
    assert_eq!(rep.validate.violations.len(), 1, "got {:?}", rep.validate.violations);
    assert!(
        matches!(rep.validate.violations[0], HsViolation::ChecksumMismatch { .. }),
        "got {:?}",
        rep.validate.violations
    );
    assert_eq!(rep.records, plan.total_records(), "corruption must not change the count");
}

/// A corrupted *stored* checksum (pristine data) is likewise pinned on
/// the provenance chain, not on the sort.
#[test]
fn flipped_stored_checksum_is_diagnosed_as_provenance_mismatch() {
    let plan = small_plan(7).with_corruption(HsCorruption::FlipChecksum { block: 1 });
    let mut rt = MrRuntime::new(small_cluster(), plan.hdfs_config(REPLICATION), plan.seed);
    let rep = run_tpcxhs(&mut rt, &plan);
    assert!(!rep.validate.passed);
    assert_eq!(rep.validate.violations.len(), 1, "got {:?}", rep.validate.violations);
    assert!(matches!(rep.validate.violations[0], HsViolation::ChecksumMismatch { .. }));
}

/// Dropping the only replica of an output block via the platform fault
/// driver makes HSValidate fail fast with a `LostBlocks` diagnosis
/// instead of crashing mid-read.
#[test]
fn replica_loss_is_diagnosed_as_lost_blocks() {
    let plan = small_plan(9);
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(small_cluster())
            .hdfs(plan.hdfs_config(1)) // replication 1: any loss is fatal
            .seed(9)
            .build(),
    );
    let (spec, app, input) = hsgen_job(&plan);
    p.run_job(spec, app, input);
    register_hsgen(&mut p.rt, &plan);
    let (spec, app, input) = hssort_job(&plan);
    let sort = p.run_job(spec, app, input);
    record_sort_checksums(&mut p.rt, &sort);
    assert!(integrity_prescan(&p.rt).is_empty(), "healthy data must pass the prescan");

    // Crash a VM holding sorted output, through the fault driver.
    let victim =
        p.rt.hdfs
            .dir_block_locations(HS_OUT)
            .expect("sorted output exists")
            .iter()
            .find_map(|(_, len, reps)| (*len > 0).then(|| reps[0]))
            .expect("a non-empty output block");
    let at = p.now() + SimDuration::from_millis(1);
    p.install_fault_plan(&FaultPlan::new().at(at, FaultKind::NodeCrash { vm: victim.0 }));
    let mut crashed = false;
    while let Some((_, events)) = p.step() {
        crashed |= events.iter().any(|e| matches!(e, PlatformEvent::Fault(_)));
        if crashed {
            break;
        }
    }
    assert!(crashed, "the planned crash never fired");

    let pre = integrity_prescan(&p.rt);
    assert!(
        pre.iter().any(|v| matches!(v, HsViolation::LostBlocks { count } if *count > 0)),
        "got {pre:?}"
    );
    assert!(p.rt.hdfs.lost_blocks() > 0);
}

/// The Frankfurt layout comparison on a shuffle-heavy shape (8 reduces):
/// with NFS-backed shared storage every HDFS byte crosses the storage
/// path in both layouts, so the separated configuration's smaller
/// compute tier (4 trackers vs 8 — a quarter of the shuffle flows)
/// finishes the small-SF run *faster* than colocation. Deterministic for
/// a fixed seed, asserted for two.
#[test]
fn disaggregated_beats_colocated_on_small_shuffle_heavy_runs() {
    let run = |roles: NodeRoles, placement: Placement, seed: u64| {
        let plan = HsPlan::new(1_000_000, 8, RootSeed(seed)).with_block_size(100_000);
        let spec = ClusterSpec::builder().hosts(4).vms(9).placement(placement).build();
        let mut rt = MrRuntime::with_roles(spec, plan.hdfs_config(REPLICATION), roles, plan.seed);
        run_tpcxhs(&mut rt, &plan)
    };
    for seed in [5u64, 6] {
        let colo = run(NodeRoles::colocated(), Placement::CrossDomain, seed);
        let split = run(
            NodeRoles::separated((1..=4).map(VmId).collect(), (5..=8).map(VmId).collect()),
            Placement::Custom(vec![0, 0, 0, 1, 1, 2, 2, 3, 3]),
            seed,
        );
        assert!(colo.validate.passed && split.validate.passed);
        assert!(
            split.total_s < colo.total_s,
            "seed {seed}: separated ({:.2}s) must beat colocated ({:.2}s) at small SF",
            split.total_s,
            colo.total_s
        );
    }
}

/// Snapshot taken mid-HSSort, restored, and driven to completion:
/// byte-identical trace, identical sorted output, and the same HSph@SF
/// as the uninterrupted reference run.
#[test]
fn snapshot_mid_hssort_finishes_byte_identically() {
    let plan = small_plan(55);

    // Launch, run HSGen, register provenance, and submit HSSort.
    let launch_to_sort = || {
        let mut p = VHadoop::launch(
            PlatformConfig::builder()
                .cluster(small_cluster())
                .hdfs(plan.hdfs_config(REPLICATION))
                .tracing(true)
                .seed(plan.seed.0)
                .build(),
        );
        let (spec, app, input) = hsgen_job(&plan);
        p.run_job(spec, app, input);
        register_hsgen(&mut p.rt, &plan);
        let (spec, app, input) = hssort_job(&plan);
        let id = p.rt.submit(spec, app, input);
        (p, id)
    };
    // Drive HSSort to completion, then validate; returns everything the
    // comparison needs.
    let finish = |mut p: VHadoop, id: JobId| {
        let mut sort: Option<JobResult> = None;
        let mut steps = 0usize;
        while let Some((_, events)) = p.step() {
            steps += 1;
            for ev in events {
                if let PlatformEvent::Job(JobEvent::JobDone(res)) = ev {
                    if res.id == id {
                        sort = Some(*res);
                    }
                }
            }
            if sort.is_some() {
                break;
            }
        }
        let sort = sort.expect("HSSort never finished");
        record_sort_checksums(&mut p.rt, &sort);
        assert!(integrity_prescan(&p.rt).is_empty());
        let (spec, app, input) = hsvalidate_job(&p.rt, &plan, &sort);
        let vres = p.run_job(spec, app, input);
        let verdict = hsvalidate_verdict(&p.rt, &plan, &vres);
        let total_s = p.now().as_secs_f64();
        let hsph = (plan.sf_bytes as f64 / 1e9) / (total_s / 3600.0);
        (sort.outputs, verdict, hsph, p.rt.engine.tracer().to_chrome_json(), steps)
    };

    let (reference, ref_id) = launch_to_sort();
    let (ref_out, ref_verdict, ref_hsph, ref_trace, total) = finish(reference, ref_id);
    assert!(ref_verdict.passed, "{:?}", ref_verdict.violations);

    // Checkpoint strictly mid-sort, restore, and replay.
    let (mut parent, id) = launch_to_sort();
    for _ in 0..total / 2 {
        assert!(parent.step().is_some(), "drained before the checkpoint");
    }
    let restored = VHadoop::restore(&parent.snapshot());
    let (out, verdict, hsph, trace, _) = finish(restored, id);
    assert_eq!(out, ref_out, "restored sort output diverged");
    assert_eq!(verdict, ref_verdict, "restored verdict diverged");
    assert_eq!(hsph, ref_hsph, "restored HSph@SF diverged");
    assert_eq!(trace, ref_trace, "restored trace diverged");
}
