//! Seed-sweep determinism: the Fig. 2 wordcount configuration — with and
//! without a fault plan — exports byte-identical traces when re-run with
//! the same seed, across at least 8 seeds.

mod common;

use common::{fig2_cluster, fig2_job, fig2_job_config, sorted_outputs, MB};
use vhadoop::prelude::*;

/// Input size for the sweep. The Fig. 2 point proper is 16 MB; the sweep
/// keeps its *geometry* (16 VMs on 2 hosts, 15 blocks = one map per
/// worker, 4 reduces, replication 3) but shrinks the bytes so 32 full
/// platform runs stay fast in debug builds. Determinism is a property of
/// the event structure, which is unchanged.
const SWEEP_BYTES: u64 = 4 * MB;

/// One traced sweep run: Fig. 2 geometry, `plan` installed at boot.
fn sweep_trace(seed: u64, plan: FaultPlan) -> (Vec<(String, i64)>, String) {
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(fig2_cluster())
            .hdfs(HdfsConfig { block_size: SWEEP_BYTES / 15, replication: 3 })
            .tracing(true)
            .faults(plan)
            .seed(seed)
            .build(),
    );
    assert_eq!(fig2_job_config().num_reduces, 4);
    let (spec, app, input) = fig2_job(&mut p, SWEEP_BYTES, seed);
    let result = p.run_job(spec, app, input);
    while p.step().is_some() {}
    (sorted_outputs(&result), p.rt.engine.tracer().to_chrome_json())
}

/// A fixed mixed plan landing inside the job's first seconds.
fn sweep_plan() -> FaultPlan {
    FaultPlan::new()
        .at(
            SimTime::from_secs(1),
            FaultKind::StragglerVm { vm: 2, factor: 0.2, duration: SimDuration::from_secs(2) },
        )
        .at(SimTime::from_secs(2), FaultKind::NodeCrash { vm: 7 })
        .at(
            SimTime::from_secs(3),
            FaultKind::LinkDegrade { host: 0, factor: 0.5, duration: SimDuration::from_secs(1) },
        )
}

#[test]
fn fault_free_runs_replay_byte_identically_across_seeds() {
    for seed in 2012..2020u64 {
        let (out_a, trace_a) = sweep_trace(seed, FaultPlan::new());
        let (out_b, trace_b) = sweep_trace(seed, FaultPlan::new());
        assert_eq!(out_a, out_b, "seed {seed}: outputs diverged");
        assert_eq!(trace_a, trace_b, "seed {seed}: clean traces diverged");
        assert!(trace_a.contains("\"cat\":\"map\""), "seed {seed}: no map spans");
    }
}

#[test]
fn faulted_runs_replay_byte_identically_across_seeds() {
    for seed in 2012..2020u64 {
        let (out_a, trace_a) = sweep_trace(seed, sweep_plan());
        let (out_b, trace_b) = sweep_trace(seed, sweep_plan());
        assert_eq!(out_a, out_b, "seed {seed}: faulted outputs diverged");
        assert_eq!(trace_a, trace_b, "seed {seed}: faulted traces diverged");
        assert!(trace_a.contains("\"cat\":\"fault\""), "seed {seed}: faults not traced");
    }
}

#[test]
fn randomly_generated_plans_are_reproducible() {
    // Plans drawn from FaultPlan::random are themselves pure functions of
    // the seed, and the runs they drive replay identically.
    let profile = FaultProfile::new(16, 2);
    for seed in [1u64, 99, 4242] {
        let plan_a = FaultPlan::random(&profile, RootSeed(seed));
        let plan_b = FaultPlan::random(&profile, RootSeed(seed));
        assert_eq!(plan_a, plan_b, "seed {seed}: plan generation diverged");
        let (out_a, trace_a) = sweep_trace(seed, plan_a);
        let (out_b, trace_b) = sweep_trace(seed, plan_b);
        assert_eq!(out_a, out_b);
        assert_eq!(trace_a, trace_b, "seed {seed}: random-plan runs diverged");
    }
}
