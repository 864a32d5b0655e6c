//! Chaos acceptance suite: a `FaultPlan` mixing every fault kind runs
//! end to end on the Fig. 2 wordcount — the job completes, no acknowledged
//! block is lost, every injected fault shows up as a trace span, and two
//! same-seed runs export byte-identical traces.

mod common;

use common::{assert_no_data_loss, launch_fig2, run_fig2, sorted_outputs, MB};
use vhadoop::prelude::*;

/// The acceptance plan: a straggler, a node crash, a slow shared disk, a
/// degraded host NIC, and a mid-pre-copy migration abort, all inside the
/// first ten simulated seconds of the job.
fn acceptance_plan() -> FaultPlan {
    FaultPlan::new()
        .at(
            SimTime::from_secs(3),
            FaultKind::StragglerVm { vm: 3, factor: 0.3, duration: SimDuration::from_secs(2) },
        )
        .at(SimTime::from_secs(4), FaultKind::NodeCrash { vm: 5 })
        .at(
            SimTime::from_secs(5),
            FaultKind::SlowDisk { factor: 0.5, duration: SimDuration::from_secs(1) },
        )
        .at(
            SimTime::from_secs(6),
            FaultKind::LinkDegrade { host: 0, factor: 0.4, duration: SimDuration::from_secs(1) },
        )
        .at(SimTime::from_secs(7), FaultKind::MigrationAbort)
}

/// Runs the full acceptance scenario — faulted Fig. 2 wordcount with a
/// whole-cluster migration in flight so the abort has a victim — and
/// returns the job outputs, the trace, and the migration report.
fn acceptance_run(seed: u64) -> (Vec<(String, i64)>, String, ClusterMigrationReport, Vec<usize>) {
    let bytes = 16 * MB;
    let mut p = launch_fig2(bytes, seed, acceptance_plan());
    let (spec, app, input) = common::fig2_job(&mut p, bytes, seed);
    // Start migrating every VM to host 1 two seconds in: the first VMs are
    // mid-pre-copy when the abort fires at t = 7 s.
    let (report, result) =
        p.migration(HostId(1)).after(SimDuration::from_secs(2)).during_job(spec, app, input);
    while p.step().is_some() {}
    assert_no_data_loss(&p);
    let lost: Vec<usize> = p.fault_log().iter().map(|f| f.lost_blocks).collect();
    let trace = p.rt.engine.tracer().to_chrome_json();
    (sorted_outputs(&result), trace, report, lost)
}

#[test]
fn faulted_fig2_completes_and_replays_byte_identically() {
    let (outputs, trace, report, lost) = acceptance_run(2012);

    // The job survived all five faults with the fault-free payload.
    let (clean, _, _) = run_fig2(16 * MB, 2012, FaultPlan::new());
    assert_eq!(outputs, sorted_outputs(&clean), "faults must not change job output");
    assert!(!outputs.is_empty());
    assert!(lost.iter().all(|&l| l == 0), "no acknowledged block may be lost");

    // Every fault kind left its span in the exported trace.
    assert!(trace.contains("\"cat\":\"fault\""), "fault spans missing from trace");
    for name in ["straggler_vm", "node_crash", "slow_disk", "link_degrade", "migration_abort"] {
        assert!(trace.contains(&format!("\"name\":\"{name}\"")), "missing {name} span");
    }
    // The crash was detected as a tracker timeout too.
    assert!(trace.contains("\"name\":\"tracker_timeout\""));

    // The abort found a migration in flight and that VM retried through:
    // every VM still reached host 1, at least one surviving an abort.
    assert_eq!(report.per_vm.len(), 16);
    assert!(report.per_vm.iter().any(|v| v.aborts >= 1), "the abort had no victim");

    // Determinism contract: the identical scenario replays byte-for-byte.
    let (outputs2, trace2, _, _) = acceptance_run(2012);
    assert_eq!(outputs, outputs2);
    assert_eq!(trace, trace2, "same seed + same plan must replay byte-identically");
}

#[test]
fn fault_log_records_what_was_injected() {
    let (_, _, p) = run_fig2(
        8 * MB,
        7,
        FaultPlan::new().at(SimTime::from_secs(2), FaultKind::NodeCrash { vm: 4 }).at(
            SimTime::from_secs(3),
            FaultKind::SlowDisk { factor: 0.5, duration: SimDuration::from_secs(1) },
        ),
    );
    let log = p.fault_log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].kind, FaultKind::NodeCrash { vm: 4 });
    assert_eq!(log[0].at, SimTime::from_secs(2));
    assert!(log[0].effective);
    assert!(matches!(log[1].kind, FaultKind::SlowDisk { .. }));
    assert!(log[1].effective);
    // PlatformConfig carried the plan; the events fired in time order.
    assert!(log[0].at <= log[1].at);
}

#[test]
fn crashed_node_can_rejoin_and_serve_again() {
    let bytes = 6 * MB;
    let plan = FaultPlan::new()
        .at(SimTime::from_secs(2), FaultKind::NodeCrash { vm: 2 })
        .at(SimTime::from_secs(6), FaultKind::NodeRejoin { vm: 2 });
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(ClusterSpec::builder().hosts(2).vms(6).build())
            .hdfs(HdfsConfig { block_size: MB, replication: 3 })
            .tracing(true)
            .faults(plan)
            .seed(11)
            .build(),
    );
    let (spec, app, input) = common::fig2_job(&mut p, bytes, 11);
    let result = p.run_job(spec, app, input);
    while p.step().is_some() {}

    assert!(result.counters.reduce_output_records > 0);
    assert_no_data_loss(&p);
    let log = p.fault_log();
    assert_eq!(log.len(), 2);
    assert!(log.iter().all(|f| f.effective), "both crash and rejoin must apply");
    // The VM is back in both subsystems.
    assert!(p.rt.hdfs.datanodes().contains(&VmId(2)), "datanode did not rejoin");
    assert!(p.rt.mr.trackers().contains(&VmId(2)), "tracker did not rejoin");
    let trace = p.rt.engine.tracer().to_chrome_json();
    assert!(trace.contains("\"name\":\"node_rejoin\""));
}

/// Every TaskTracker dies and the re-queue timers fire into an empty
/// tracker list; when the VMs come back nothing but the rejoin itself can
/// start a scheduling round, so the rejoin must run one.
#[test]
fn job_resumes_when_every_tracker_was_lost_and_rejoins() {
    let bytes = 6 * MB;
    let plan = [1, 2].into_iter().fold(FaultPlan::new(), |plan, vm| {
        plan.at(SimTime::from_secs(2), FaultKind::NodeCrash { vm })
            .at(SimTime::from_secs(30), FaultKind::NodeRejoin { vm })
    });
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(ClusterSpec::builder().hosts(2).vms(3).build())
            .hdfs(HdfsConfig { block_size: MB, replication: 2 })
            .faults(plan)
            .seed(11)
            .build(),
    );
    let (spec, app, input) = common::fig2_job(&mut p, bytes, 11);
    let result = p.run_job(spec, app, input);
    while p.step().is_some() {}

    assert!(result.finished > SimTime::from_secs(30), "no tracker was alive before the rejoin");
    assert!(result.counters.reduce_output_records > 0);
    assert_no_data_loss(&p);
    assert_eq!(p.rt.mr.trackers(), [VmId(1), VmId(2)]);
}

#[test]
fn migration_abort_without_migration_is_a_recorded_noop() {
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(ClusterSpec::builder().hosts(2).vms(4).build())
            .faults(FaultPlan::new().at(SimTime::from_secs(1), FaultKind::MigrationAbort))
            .build(),
    );
    while p.step().is_some() {}
    let log = p.fault_log();
    assert_eq!(log.len(), 1);
    assert!(!log[0].effective, "nothing was migrating, so the abort must be a no-op");
    assert!(!p.migration_busy());
}

#[test]
fn plans_can_be_installed_mid_run() {
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(ClusterSpec::builder().hosts(2).vms(6).build())
            .seed(5)
            .build(),
    );
    p.upload_input("/mid", 2 * MB, VmId(1));
    // Install after launch, with an instant already in the past: it still
    // fires (clamped to now) on the next wakeup.
    p.install_fault_plan(&FaultPlan::new().at(SimTime::ZERO, FaultKind::NodeCrash { vm: 3 }));
    while p.step().is_some() {}
    assert_eq!(p.fault_log().len(), 1);
    assert!(p.fault_log()[0].effective);
    assert!(!p.rt.mr.trackers().contains(&VmId(3)));
}
