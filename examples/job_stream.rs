//! Job stream: drive a seeded open-loop stream of MapReduce jobs through
//! the `vsched` control plane — admission queue, adaptive VM placement,
//! and the migration-driven rebalancer — then read the SLO report and the
//! consolidation-energy verdict.
//!
//! ```sh
//! cargo run -p vhadoop-examples --bin job_stream
//! ```

use vhadoop::prelude::*;
use workloads::loadgen::{ArrivalProcess, JobMix};

fn main() {
    // 1. Control-plane configuration: adaptive placement picks pack vs
    // spread from the workload hint; the rebalancer samples host load
    // every second and plans bounded live-migration sessions off hot
    // hosts (two hot windows in a row, at most 2 VMs per session).
    let (maps, cpu_secs, io_bytes) = JobMix::Wordcount.base();
    let mut ctrl = ControllerConfig::enabled_with(PlacementKind::Adaptive(WorkloadHint {
        tasks: maps,
        cpu_secs_per_task: cpu_secs,
        shuffle_bytes_per_task: io_bytes,
    }));
    ctrl.rebalance = Some(RebalanceConfig {
        interval: SimDuration::from_secs(1),
        hot_cpu: 0.75,
        hysteresis_ticks: 2,
        ..RebalanceConfig::default()
    });

    // 2. Launch the paper's 2×16 cluster under that controller. Small
    // HDFS blocks keep the synthetic inputs cheap.
    let mut platform = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(2).vms(16).placement(Placement::SingleDomain).build(),
            )
            .hdfs(HdfsConfig { block_size: 1 << 20, replication: 2 })
            .tracing(true)
            .seed(4242)
            .controller(ctrl)
            .build(),
    );
    println!("control plane up: adaptive placement, rebalancer armed");

    // 3. A seeded open-loop arrival process: 6 wordcount-like jobs from 2
    // tenants, exponential interarrival gaps, ±20 % size jitter.
    let arrivals =
        ArrivalProcess::new(JobMix::Wordcount, 6, SimDuration::from_secs(4), 2, RootSeed(4242))
            .with_jitter(0.2)
            .schedule();
    for (i, a) in arrivals.iter().enumerate() {
        let run = i as u32;
        platform.schedule_job(a.at, a.tenant, a.expected_s, a.job(run));
        println!(
            "  t={:>5.1}s tenant {} submits load-{run} ({} maps, {:.1}s cpu, {} MB shuffle)",
            a.at.as_secs_f64(),
            a.tenant,
            a.maps,
            a.cpu_secs,
            a.io_bytes >> 20
        );
    }

    // 4. Closed loop: arrivals -> admission queue -> JobTracker -> SLO
    // tracker, with rebalance ticks interleaved and the monitor sampling
    // throughout. Runs to quiescence; the makespan is the last completion.
    let done = platform.drive_until_idle();
    let makespan = done.last().map_or(0.0, |r| r.finished.as_secs_f64());
    println!("\nstream finished at t={makespan:.1}s: {} jobs", done.len());

    // 5. The controller's verdict.
    let ctrl = platform.controller().expect("controller enabled");
    let report = ctrl.slo_report();
    println!("slo: {}", report.to_line());
    let c = ctrl.counters();
    println!(
        "ctrl: {} ticks, {} migrations planned / {} completed / {} aborted, queue hwm {}",
        c.rebalance_ticks,
        c.migrations_planned,
        c.migrations_completed,
        c.migrations_aborted,
        c.queue_depth_hwm
    );
    // The run is deterministic: every admitted job starts and finishes,
    // the rebalancer's session really completes, and the queue stays
    // bounded.
    assert_eq!(report.starved, 0, "an admitted job never started");
    assert_eq!((report.jobs, report.admitted, report.finished), (6, 6, 6), "job accounting");
    assert_eq!(report.rejected, 0);
    assert!(c.migrations_planned >= 1, "rebalancer never planned a move");
    assert_eq!(c.migrations_completed, c.migrations_planned, "moves aborted");
    assert!(c.queue_depth_hwm <= 8, "queue ran away: {}", c.queue_depth_hwm);
    if let Some(energy) = ctrl.energy_report(&platform.rt.engine, &platform.rt.cluster) {
        println!(
            "energy: {:.0} J over {:.1}s ({:.0} J reclaimable by consolidating near-idle hosts)",
            energy.total_j(),
            energy.span_s,
            energy.consolidation_savings_j(1.0).max(0.0)
        );
    }

    // 6. Persist the SLO report.
    let json = ctrl.slo_report_json();
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/job_stream.slo.json", &json))
    {
        eprintln!("could not write SLO report: {e}");
    } else {
        println!("wrote results/job_stream.slo.json ({} bytes)", json.len());
    }
}
