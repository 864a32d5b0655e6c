//! Idle means idle: a monitored platform drains like an unmonitored one.
//!
//! The monitor samples only while something else is in flight and parks
//! when its tick is the last thing pending, so the default configuration
//! (monitor on) reaches the end of the event queue. Each drain here runs
//! under a wakeup budget, so a monitor that re-armed for ever would fail
//! the test instead of hanging it. The monitor is an observer: every run
//! produces bit-identical job results, migration reports and what-if
//! measurements with and without it.

mod common;

use common::{fig2_config, fig2_job, MB};
use vhadoop::prelude::*;
use workloads::loadgen::load_job;

/// Wakeups a drain may take before the test calls it a hang; the runs
/// below need at most a few thousand.
const BUDGET: usize = 50_000;

/// Steps `p` until the event queue drains, within [`BUDGET`] wakeups;
/// returns the jobs that finished on the way.
fn drain(p: &mut VHadoop) -> Vec<JobResult> {
    let mut done = Vec::new();
    for _ in 0..BUDGET {
        let Some((_, events)) = p.step() else { return done };
        for ev in events {
            if let PlatformEvent::Job(JobEvent::JobDone(res)) = ev {
                done.push(*res);
            }
        }
    }
    panic!("the event queue did not drain within {BUDGET} wakeups");
}

/// `b` with the monitor removed: the reference every monitored run must
/// reproduce.
fn unmonitored(b: PlatformConfigBuilder) -> PlatformConfigBuilder {
    // no monitor: the monitor-free reference run
    b.no_monitor()
}

/// A plan that straggles, crashes and throttles inside the job's first
/// seconds and restores the throttles after it.
fn fig2_faults() -> FaultPlan {
    FaultPlan::new()
        .at(
            SimTime::from_secs(1),
            FaultKind::StragglerVm { vm: 2, factor: 0.2, duration: SimDuration::from_secs(2) },
        )
        .at(SimTime::from_secs(2), FaultKind::NodeCrash { vm: 7 })
        .at(
            SimTime::from_secs(3),
            FaultKind::LinkDegrade { host: 0, factor: 0.5, duration: SimDuration::from_secs(4) },
        )
}

/// The faulted Fig. 2 wordcount run to its result and then drained; the
/// platform and the result's `Debug` rendering (compared bit for bit).
fn faulted_fig2(cfg: PlatformConfigBuilder) -> (VHadoop, String) {
    let mut p = VHadoop::launch(cfg.build());
    let (spec, app, input) = fig2_job(&mut p, 4 * MB, 2012);
    let result = p.run_job(spec, app, input);
    drain(&mut p);
    (p, format!("{result:?}"))
}

#[test]
fn monitored_faulted_fig2_drains_with_the_unmonitored_results() {
    let cfg = || fig2_config(4 * MB, 2012, fig2_faults());
    let (monitored, with) = faulted_fig2(cfg());
    let (bare, without) = faulted_fig2(unmonitored(cfg()));
    assert_eq!(with, without, "the monitor changed the job");
    assert_eq!(monitored.fault_log(), bare.fault_log());
    let samples = monitored.monitor().expect("monitored").samples();
    assert!(samples.len() > 5, "sampled throughout the job");
    assert!(samples.last().expect("sampled").t < monitored.now(), "the last tick parked");
}

/// The hot-host what-if stream of the controller suite: Pack on 3 hosts,
/// what-if rebalancing, two CPU-heavy jobs a second apart.
fn whatif_stream(monitored: bool) -> (Vec<JobResult>, Vec<WhatIfOutcome>) {
    let mut ctrl = ControllerConfig::enabled_with(PlacementKind::Pack);
    ctrl.rebalance = Some(RebalanceConfig {
        interval: SimDuration::from_secs(1),
        hot_cpu: 0.5,
        hot_nic: 0.9,
        hysteresis_ticks: 2,
        cooldown: SimDuration::from_secs(5),
        mode: RebalanceMode::WhatIf,
    });
    let cfg = PlatformConfig::builder()
        .cluster(ClusterSpec::builder().hosts(3).vms(12).placement(Placement::SingleDomain).build())
        .hdfs(HdfsConfig { block_size: MB, replication: 2 })
        .seed(31)
        .controller(ctrl);
    let mut p = VHadoop::launch(if monitored { cfg } else { unmonitored(cfg) }.build());
    for run in 0..2u32 {
        p.schedule_job(SimTime::from_secs(u64::from(run)), run, 20.0, load_job(run, 10, 5.0, MB));
    }
    let done = drain(&mut p);
    assert_eq!(done.len(), 2);
    (done, p.observe().whatif)
}

/// What-if grades each candidate by when its fork's jobs finished, not by
/// when the fork's queue drained: the committed candidate of the last
/// round is the trajectory the parent then follows, so its measurement is
/// exactly the parent's last completion minus the decision instant — with
/// or without a monitor.
#[test]
fn whatif_measures_to_the_last_completion_with_or_without_a_monitor() {
    let (done, outcomes) = whatif_stream(false);
    let (done_m, outcomes_m) = whatif_stream(true);
    assert_eq!(format!("{done:?}"), format!("{done_m:?}"), "the monitor changed the stream");
    assert_eq!(outcomes, outcomes_m, "the monitor changed a what-if measurement");

    let last_at = outcomes.last().expect("the hot host triggers what-if").at;
    let chosen = outcomes.iter().find(|o| o.at == last_at && o.chosen).expect("one is committed");
    let end = done.last().expect("jobs finished").finished;
    assert_eq!(chosen.measured_s, end.saturating_since(last_at).as_secs_f64());
}

/// Fig. 2 under faults with the whole cluster migrating from 2 s on: the
/// monitor only observes, at every seed. The job result (finish instant,
/// outputs, shuffle bytes, every counter) and the migration report (total
/// time, per-VM downtimes) match bit for bit; only the wakeup count grows.
#[test]
fn the_monitor_is_an_observer_of_a_migration_during_a_faulted_job() {
    let run = |cfg: PlatformConfigBuilder, seed: u64| {
        let mut p = VHadoop::launch(cfg.build());
        let (spec, app, input) = fig2_job(&mut p, 4 * MB, seed);
        let (report, result) =
            p.migration(HostId(1)).after(SimDuration::from_secs(2)).during_job(spec, app, input);
        drain(&mut p);
        (report, format!("{result:?}"), p.rt.engine.wakeups_delivered())
    };
    for seed in [2012, 7, 99] {
        let cfg = || fig2_config(4 * MB, seed, fig2_faults());
        let (rep, res, wakeups) = run(unmonitored(cfg()), seed);
        let (rep_m, res_m, wakeups_m) =
            run(cfg().monitor_interval(SimDuration::from_millis(700)), seed);
        assert_eq!(res, res_m, "seed {seed}: the monitor changed the job");
        assert_eq!(rep, rep_m, "seed {seed}: the monitor changed the migration");
        assert!(wakeups_m > wakeups, "seed {seed}: the monitor's ticks are extra wakeups");
    }
}

/// A drained monitor resumes with the next job. The upload ends at 1.66 s
/// after one sample; the 2 s tick finds nothing else pending and parks, so
/// `drive_until_idle` returns at 2 s. The job submitted then re-arms the
/// monitor, whose first resumed sample lands one interval later, at 3 s.
#[test]
fn a_parked_monitor_resumes_with_the_next_job() {
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(ClusterSpec::builder().hosts(2).vms(6).build())
            .hdfs(HdfsConfig { block_size: MB, replication: 2 })
            .seed(5)
            .build(),
    );
    let upload = p.upload_input("/idle/in", 64 * MB, VmId(1));
    assert_eq!(upload.as_nanos(), 1_657_937_088);
    // A budgeted drain of a fork first, so a monitor that never parked
    // would fail here rather than hang in `drive_until_idle`.
    let mut probe = p.fork();
    drain(&mut probe);
    assert!(p.drive_until_idle().is_empty());
    assert_eq!(p.now(), probe.now());
    assert_eq!(p.now(), SimTime::from_secs(2), "the 2 s tick parked");
    let sampled = |p: &VHadoop| -> Vec<SimTime> {
        p.monitor().expect("default monitor").samples().iter().map(|s| s.t).collect()
    };
    assert_eq!(sampled(&p), [SimTime::from_secs(1)]);

    let (spec, app, input) = fig2_job(&mut p, 6 * MB, 5);
    let res = p.run_job(spec, app, input);
    let samples = sampled(&p);
    assert_eq!(samples[1], SimTime::from_secs(3), "first resumed sample");
    assert!(samples.len() > 2, "sampling continued through the job");
    assert!(samples.iter().all(|&t| t <= res.finished));
    drain(&mut p);
}
