//! The `vsched` control plane through the full platform: closed-loop job
//! streams with SLO accounting, queue-policy ordering, load-triggered
//! rebalancing that really moves VMs, and a learned cost model steering
//! the boot layout.

use vhadoop::prelude::*;
use workloads::loadgen::{load_job, ArrivalProcess, JobMix};

const MB: u64 = 1 << 20;

/// A closed-loop arrival stream: every admitted job starts and finishes,
/// nothing starves, and the SLO report / JSON export agree with the run.
#[test]
fn job_stream_completes_with_sane_slo_accounting() {
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(2).vms(16).placement(Placement::SingleDomain).build(),
            )
            .hdfs(HdfsConfig { block_size: MB, replication: 2 })
            .tracing(true)
            .seed(4242)
            .controller(ControllerConfig::enabled_with(PlacementKind::Spread))
            .build(),
    );
    let arrivals =
        ArrivalProcess::new(JobMix::ShuffleHeavy, 4, SimDuration::from_secs(3), 2, RootSeed(7))
            .schedule();
    for (i, a) in arrivals.iter().enumerate() {
        let run = i as u32;
        p.schedule_job(a.at, a.tenant, a.expected_s, a.job(run));
    }
    let done = p.drive_until_idle();
    assert_eq!(done.len(), 4, "all four jobs produce results");

    let ctrl = p.controller().expect("controller is enabled");
    let c = ctrl.counters();
    assert_eq!(c.jobs_offered, 4);
    assert_eq!(c.jobs_admitted, 4);
    assert_eq!(c.jobs_rejected, 0);
    assert_eq!(c.jobs_started, 4);
    assert_eq!(c.jobs_finished, 4);
    let rep = ctrl.slo_report();
    assert_eq!(rep.starved, 0, "an admitted job never started");
    assert_eq!(rep.finished, 4);
    assert!(rep.makespan_mean_s > 0.0);
    // The solo estimate serializes the NIC term, so slowdowns can dip
    // below 1.0 — but they must be positive and finite.
    assert!(rep.slowdown_max > 0.0 && rep.slowdown_max.is_finite());
    let json = ctrl.slo_report_json();
    for key in ["\"report\": \"slo\"", "\"starved\": 0", "\"queue_wait_s\"", "\"counters\""] {
        assert!(json.contains(key), "SLO JSON missing {key}: {json}");
    }
    // The control plane narrates itself into the trace.
    let trace = p.rt.engine.tracer().to_chrome_json();
    assert!(trace.contains("\"cat\":\"ctrl\""), "no ctrl spans in trace");
    assert!(trace.contains("start_job"), "job starts not traced");
    // The platform metrics snapshot exports the same story.
    let m = p.metrics();
    assert!(m.to_text().contains("ctrl:"), "ctrl line missing from metrics text");
    let cs = m.ctrl.expect("metrics carry controller stats");
    assert_eq!(cs.jobs_finished, 4);
    assert_eq!(cs.jobs_admitted, 4);
}

/// Launches a single-slot controller platform with `policy` and returns
/// the per-job SLO records after all jobs drain.
fn run_ordered(policy: QueuePolicy, jobs: &[(u32, f64)]) -> Vec<JobSlo> {
    let mut cfg = ControllerConfig::enabled_with(PlacementKind::Spec);
    cfg.queue = QueueConfig { policy, max_active: 1, ..QueueConfig::default() };
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(2).vms(8).placement(Placement::SingleDomain).build(),
            )
            .hdfs(HdfsConfig { block_size: MB, replication: 2 })
            .seed(11)
            .controller(cfg)
            .build(),
    );
    for (i, &(tenant, cpu_secs)) in jobs.iter().enumerate() {
        let run = i as u32;
        // All arrive at t=1s; ctrl ids break the tie in schedule order.
        p.schedule_job(SimTime::from_secs(1), tenant, cpu_secs, load_job(run, 2, cpu_secs, MB));
    }
    let done = p.drive_until_idle();
    assert_eq!(done.len(), jobs.len());
    let ctrl = p.controller().unwrap();
    assert_eq!(ctrl.slo_report().starved, 0);
    ctrl.job_slos().to_vec()
}

fn started(slos: &[JobSlo], ctrl_id: u32) -> SimTime {
    slos.iter().find(|s| s.ctrl_id == ctrl_id).and_then(|s| s.started).expect("job started")
}

/// Shortest-expected-first jumps the short job over earlier long ones;
/// FIFO on the same stream preserves arrival order.
#[test]
fn shortest_first_reorders_the_queue_and_fifo_does_not() {
    // ctrl ids 0..3: two long jobs, then a short one, then a long one.
    let jobs = [(0, 8.0), (0, 8.0), (0, 1.0), (0, 8.0)];
    let sf = run_ordered(QueuePolicy::ShortestFirst, &jobs);
    assert!(
        started(&sf, 2) < started(&sf, 1),
        "shortest-first must start the short job before queued long ones"
    );
    let fifo = run_ordered(QueuePolicy::Fifo, &jobs);
    assert!(started(&fifo, 1) < started(&fifo, 2), "FIFO must keep arrival order");
    assert!(started(&fifo, 2) < started(&fifo, 3));
}

/// Fair share alternates tenants even when one tenant queued first.
#[test]
fn fair_share_interleaves_tenants() {
    // Tenant 0 floods the queue (ids 0,1,2), tenant 1 arrives last (id 3).
    let jobs = [(0, 4.0), (0, 4.0), (0, 4.0), (1, 4.0)];
    let fair = run_ordered(QueuePolicy::FairShare, &jobs);
    assert!(
        started(&fair, 3) < started(&fair, 2),
        "fair share must serve the starved tenant before tenant 0's backlog"
    );
}

/// Skewed load on a packed cluster trips the rebalancer: it plans live
/// migrations off the hot host, the moves complete, and the jobs still
/// finish correctly.
#[test]
fn rebalancer_migrates_vms_off_the_hot_host() {
    let mut cfg = ControllerConfig::enabled_with(PlacementKind::Pack);
    cfg.rebalance = Some(RebalanceConfig {
        interval: SimDuration::from_secs(1),
        hot_cpu: 0.5,
        hot_nic: 0.9,
        cold_cpu: 0.2,
        hysteresis_ticks: 2,
        max_moves: 2,
        cooldown: SimDuration::from_secs(5),
        consolidate: false,
        mode: RebalanceMode::Estimate,
        hint: WorkloadHint::default(),
    });
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(2).vms(16).placement(Placement::SingleDomain).build(),
            )
            .hdfs(HdfsConfig { block_size: MB, replication: 2 })
            .tracing(true)
            .seed(31)
            .controller(cfg)
            .build(),
    );
    // Pack put every VM on host 0; a wide CPU-heavy wave makes it hot.
    for run in 0..2u32 {
        p.schedule_job(
            SimTime::from_secs(u64::from(run)),
            run,
            20.0,
            load_job(run, 12, 6.0, 4 * MB),
        );
    }
    let done = p.drive_until_idle();
    assert_eq!(done.len(), 2);
    let c = p.controller().unwrap().counters();
    assert!(c.rebalance_ticks > 0, "controller never ticked");
    assert!(c.migrations_planned > 0, "hot host never triggered a plan");
    assert!(c.migrations_completed > 0, "planned migrations never completed: {c:?}");
    let trace = p.rt.engine.tracer().to_chrome_json();
    assert!(trace.contains("plan_migration"), "rebalance plan not traced");
    // The moves really happened: host 0 no longer holds every VM.
    let on_host0 = (0..16).filter(|&v| p.rt.cluster.host_of(VmId(v)) == HostId(0)).count();
    assert!(on_host0 < 16, "no VM actually left the packed host");
}

/// The same hot-host scenario with the rebalancer in what-if mode: the
/// decision is deferred, the platform forks per candidate destination,
/// measures each, commits the best-measured move, and the estimator's
/// error surfaces in `ControllerStats`.
#[test]
fn whatif_rebalancing_forks_measures_and_commits_best() {
    let mut cfg = ControllerConfig::enabled_with(PlacementKind::Pack);
    cfg.rebalance = Some(RebalanceConfig {
        interval: SimDuration::from_secs(1),
        hot_cpu: 0.5,
        hot_nic: 0.9,
        cold_cpu: 0.2,
        hysteresis_ticks: 2,
        max_moves: 2,
        cooldown: SimDuration::from_secs(5),
        consolidate: false,
        mode: RebalanceMode::WhatIf,
        hint: WorkloadHint::default(),
    });
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(3).vms(12).placement(Placement::SingleDomain).build(),
            )
            .hdfs(HdfsConfig { block_size: MB, replication: 2 })
            .tracing(true)
            .seed(31)
            .controller(cfg)
            .build(),
    );
    for run in 0..2u32 {
        p.schedule_job(SimTime::from_secs(u64::from(run)), run, 20.0, load_job(run, 10, 5.0, MB));
    }
    let done = p.drive_until_idle();
    assert_eq!(done.len(), 2);

    let outcomes = p.observe().whatif;
    assert!(!outcomes.is_empty(), "hot host never triggered a what-if evaluation");
    let first_at = outcomes[0].at;
    let round: Vec<_> = outcomes.iter().filter(|o| o.at == first_at).collect();
    assert!(round.len() >= 2, "pack on 3 hosts leaves >= 2 candidate destinations");
    let chosen: Vec<_> = round.iter().filter(|o| o.chosen).collect();
    assert_eq!(chosen.len(), 1, "exactly one candidate is committed per round");
    assert!(
        round.iter().all(|o| chosen[0].measured_s <= o.measured_s),
        "committed candidate must have the best measured makespan"
    );
    assert!(round.iter().all(|o| o.measured_s > 0.0 && o.estimated_s > 0.0));

    // The committed move really happened in the *parent*.
    let c = p.controller().unwrap().counters();
    assert!(c.migrations_planned > 0, "what-if never committed a move");
    assert_eq!(c.migrations_completed, c.migrations_planned);
    let trace = p.rt.engine.tracer().to_chrome_json();
    assert!(trace.contains("whatif_defer"), "deferred decision not traced");
    assert!(trace.contains("whatif_commit"), "commit not traced");

    // Estimator error is distilled into ControllerStats.
    let stats = p.metrics().ctrl.expect("controller stats");
    assert_eq!(stats.whatif_evals, outcomes.len() as u64);
    assert!(stats.whatif_estimator_err_max >= stats.whatif_estimator_err_mean);
    assert!(stats.whatif_estimator_err_mean >= 0.0);
}

/// Adaptive placement is priced by the configured model, at boot and when
/// asked directly: on a cpu-bound hint the hand model packs, and a learned
/// tree that calls the packed layout slower makes both paths spread.
#[test]
fn the_configured_model_prices_adaptive_placement() {
    let spec = ClusterSpec::default();
    let cpu_bound =
        WorkloadHint { tasks: 3, cpu_secs_per_task: 8.0, shuffle_bytes_per_task: 48 << 20 };
    let adaptive = PlacementKind::Adaptive(cpu_bound);
    let hand = MakespanKind::HandPriced;
    let pack = PlacementKind::Pack.assign(&spec, &hand).unwrap();
    let spread = PlacementKind::Spread.assign(&spec, &hand).unwrap();
    assert_eq!(adaptive.assign(&spec, &hand).as_ref(), Some(&pack), "the hand model packs");

    // A stump over the two layouts: packed 100 s, spread 1 s.
    let rows: Vec<Vec<f64>> =
        [&pack, &spread].map(|map| decision_features(&spec, map, &cpu_bound, &[])).into();
    let tree = RegressionTree::fit(&rows, &[100.0, 1.0], &TreeConfig { max_depth: 1, min_leaf: 1 });
    let learned = MakespanKind::Learned(tree);
    assert_eq!(adaptive.assign(&spec, &learned).as_ref(), Some(&spread));

    let p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(spec)
            .controller(ControllerConfig {
                placement: adaptive,
                model: learned,
                ..ControllerConfig::default()
            })
            .build(),
    );
    let booted: Vec<u32> = p.rt.cluster.vms().map(|v| p.rt.cluster.host_of(v).0).collect();
    assert_eq!(booted, spread, "the platform boots the layout the learned model picks");
}
