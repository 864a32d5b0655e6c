//! Scalability of the hadoop virtual cluster (paper §III: "we mainly
//! study the performance of cross-domain hadoop virtual cluster and the
//! scalability of hadoop virtual cluster").
//!
//! Two sweeps over cluster sizes 2→16:
//! * **weak scaling** — data grows with the cluster (8 MB per worker):
//!   a scalable platform keeps runtime roughly flat;
//! * **strong scaling** — fixed 64 MB of data: more workers help until
//!   framework overheads and the shared NFS substrate dominate.
//!
//! Next to the simulated times, each run prints the engine's kernel
//! counters (reallocations, flows touched per reallocation, wakeups), and
//! a 3-rack run reports the per-rack ToR utilization.

use crate::ResultSink;
use mapreduce::config::JobConfig;
use simcore::rng::RootSeed;
use vcluster::spec::{ClusterSpec, Placement};
use vhadoop::prelude::{
    ControllerConfig, GeneratorInput, JobSpec, PlacementKind, PlatformConfig, SimDuration, VHadoop,
    VmId,
};
use vhdfs::hdfs::HdfsConfig;
use workloads::loadgen::{ArrivalProcess, JobMix};
use workloads::textgen::TextCorpus;
use workloads::wordcount::{run_wordcount_with, WordCountApp, WordcountReport};

/// Racks of the racked run: two hosts each behind a shared core trunk.
const RACKS: u32 = 3;

fn kernel_line(rep: &WordcountReport) -> String {
    let k = rep.kernel;
    let per = k.flows_touched as f64 / k.reallocations.max(1) as f64;
    format!("reallocs {:>6}  flows/realloc {per:>5.1}  wakeups {:>6}", k.reallocations, k.wakeups)
}

pub fn run(scale: f64) {
    let per_worker_mb = ((64.0 / scale).max(2.0)) as u64;
    let fixed_mb = ((512.0 / scale).max(16.0)) as u64;
    let sizes = [2u32, 4, 8, 12, 16];
    let mut sink = ResultSink::new("scalability", "cluster VMs", "running time s");

    for &vms in &sizes {
        let workers = u64::from(vms - 1);
        let spec =
            ClusterSpec::builder().hosts(2).vms(vms).placement(Placement::CrossDomain).build();
        // Weak scaling: one block per worker, data ∝ workers.
        let bytes = (workers * per_worker_mb) << 20;
        let hdfs = HdfsConfig { block_size: (bytes / workers).max(1 << 20), replication: 2 };
        let weak = run_wordcount_with(spec.clone(), bytes, JobConfig::default(), hdfs, RootSeed(7));
        println!(
            "weak   {vms:>2} VMs, {:>4} MB -> {:>6.1}s   [{}]",
            bytes >> 20,
            weak.elapsed_s,
            kernel_line(&weak)
        );
        sink.push("weak-scaling", f64::from(vms), weak.elapsed_s);

        // Strong scaling: fixed data, blocks sized for ~15 maps.
        let bytes = fixed_mb << 20;
        let hdfs = HdfsConfig { block_size: (bytes / 15).max(1 << 20), replication: 2 };
        let strong = run_wordcount_with(spec, bytes, JobConfig::default(), hdfs, RootSeed(7));
        println!(
            "strong {vms:>2} VMs, {:>4} MB -> {:>6.1}s   [{}]",
            bytes >> 20,
            strong.elapsed_s,
            kernel_line(&strong)
        );
        sink.push("strong-scaling", f64::from(vms), strong.elapsed_s);
    }

    // Closed-loop stream scaling: the same geometry driven by the vsched
    // control plane (admission queue + spread placement), so scheduler
    // decisions — admissions, queue depth, waits — join the kernel
    // counters in the trajectory.
    for &vms in &[8u32, 16] {
        let mut p = VHadoop::launch(
            PlatformConfig::builder()
                .cluster(
                    ClusterSpec::builder()
                        .hosts(2)
                        .vms(vms)
                        .placement(Placement::SingleDomain)
                        .build(),
                )
                .hdfs(HdfsConfig { block_size: 1 << 20, replication: 2 })
                .no_monitor()
                .seed(7)
                .controller(ControllerConfig::enabled_with(PlacementKind::Spread))
                .build(),
        );
        let arrivals =
            ArrivalProcess::new(JobMix::Wordcount, 4, SimDuration::from_secs(2), 2, RootSeed(7))
                .schedule();
        for (i, a) in arrivals.iter().enumerate() {
            p.schedule_job(a.at, a.tenant, a.expected_s, a.job(i as u32));
        }
        let done = p.drive_until_idle();
        assert_eq!(done.len(), 4, "stream jobs all finish");
        let ctrl = p.controller().expect("launched with a controller");
        let (c, slo) = (ctrl.counters(), ctrl.slo_report());
        println!(
            "stream {vms:>2} VMs, {:>4} jobs -> {:>6.1}s   [adm {} fin {} \
             q_hwm {}  wait p95 {:>4.1}s]",
            4,
            p.now().as_secs_f64(),
            slo.admitted,
            slo.finished,
            c.queue_depth_hwm,
            slo.queue_wait_p95_s
        );
        sink.push("ctrl-stream", f64::from(vms), p.now().as_secs_f64());
    }

    // Rack sweep: the fixed-data wordcount over a racked fabric, reporting
    // the per-rack ToR traffic and mean utilization the fluid kernel
    // accounted, so rack-level hotspots land next to the kernel counters.
    let blocks = fixed_mb as usize; // 1 MB blocks: `fixed_mb` of them
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder()
                    .hosts(2 * RACKS)
                    .vms(16)
                    .placement(Placement::CrossDomain)
                    .racks(RACKS)
                    .build(),
            )
            .hdfs(HdfsConfig { block_size: 1 << 20, replication: 3 })
            .no_monitor()
            .seed(7)
            .build(),
    );
    p.register_input("/racked/in", fixed_mb << 20, VmId(1));
    let corpus = TextCorpus::english_like(RootSeed(7).derive("corpus"));
    let input = GeneratorInput::new(blocks, 1 << 20, move |idx| corpus.split_records(idx, 1 << 20));
    let spec = JobSpec::new("wc", "/racked/in", "/racked/out")
        .with_config(JobConfig::default().with_reduces(4));
    let _ = p.run_job(spec, Box::new(WordCountApp), Box::new(input));
    while p.step().is_some() {}

    let elapsed = p.now().as_secs_f64();
    println!("racked {RACKS:>2} racks, {fixed_mb:>4} MB -> {elapsed:>6.1}s");
    let stats = p.rt.cluster.rack_switch_stats(&p.rt.engine, elapsed);
    assert_eq!(stats.len() as u32, RACKS, "one ToR stat per rack");
    for s in &stats {
        println!(
            "       {}: {:>7.1} MB through ToR, mean util {:>5.1}%",
            s.rack,
            s.bytes / (1 << 20) as f64,
            s.mean_util * 100.0
        );
        sink.push("racked-tor-util", f64::from(s.rack.0), s.mean_util);
    }
    sink.push("racked", f64::from(RACKS), elapsed);
    sink.finish();

    // Shapes: weak scaling stays within a modest envelope of the smallest
    // cluster; strong scaling improves from 2 VMs to 16 VMs.
    let weak = sink.series_points("weak-scaling");
    let growth = weak.last().expect("pts").1 / weak[0].1;
    println!("weak-scaling growth 2->16 VMs: {growth:.2}x");
    assert!(growth < 4.0, "weak scaling within bounds, got {growth:.2}x");

    let strong = sink.series_points("strong-scaling");
    assert!(
        strong.last().expect("pts").1 < strong[0].1,
        "strong scaling: 16 VMs beat 2 VMs on fixed data"
    );
}
