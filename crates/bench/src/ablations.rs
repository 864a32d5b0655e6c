//! Ablation studies of the design choices DESIGN.md calls out. The
//! `ablations` entry runs seven of them and writes their rows to
//! `results/ablations.{csv,json}`:
//!
//! * `locality`        — locality-aware map scheduling ON vs. OFF;
//! * `combiner`        — wordcount with vs. without the combiner;
//! * `migration-order` — sequential vs. fully concurrent cluster migration;
//! * `speculation`     — backup attempts for straggling maps ON vs. OFF
//!   (with one tracker VM crushed by outside load);
//! * `scheduler`       — FIFO vs. job-driven task scheduling with
//!   two wordcount jobs contending for the same slots;
//! * `faults`          — the Fig. 2 wordcount clean vs. under an injected
//!   `FaultPlan` (node crash + straggler + link degradation); the faulted
//!   run's trace is exported to `results/faults.trace.json`;
//! * `placement`       — pack vs. spread vs. adaptive VM placement under
//!   the `vsched` controller, for each `JobMix` arrival stream (cpu-bound,
//!   shuffle-heavy, wordcount) — the paper's normal-vs-cross-domain table
//!   as a closed-loop policy choice.
//!
//! The `topology` entry runs the paper's normal-vs-cross-domain experiment
//! over the rack tree: workers split within one rack vs. split across
//! racks behind an oversubscribed core trunk vs. the same trunk congested
//! further; it writes `results/topology.{csv,json}`.

use crate::{cluster_2x16, write_artifact, ResultSink};
use mapreduce::config::JobConfig;
use mapreduce::scheduler::SchedulerPolicy;
use simcore::rng::RootSeed;
use vcluster::spec::{ClusterSpec, Placement};
use vhdfs::hdfs::HdfsConfig;
use vsched::placement::{PlacementKind, WorkloadHint};
use workloads::loadgen::JobMix;
use workloads::wordcount::{run_wordcount, submit_wordcount};

const SEED: RootSeed = RootSeed(99);

/// Wordcount input of the studies, MB.
fn input_mb(scale: f64) -> u64 {
    ((128.0 / scale).max(4.0)) as u64
}

pub fn run(scale: f64) {
    let mb = input_mb(scale);
    let mut sink = ResultSink::new("ablations", "variant (0=off/seq 1=on/conc)", "seconds");

    // --- locality-aware scheduling ---------------------------------------
    // Cross-domain placement makes remote reads expensive; locality off
    // should hurt there.
    for (x, on) in [(0.0, false), (1.0, true)] {
        let cfg = JobConfig::default().with_locality(on);
        let t = run_wordcount(cluster_2x16(Placement::CrossDomain).build(), mb << 20, cfg, SEED)
            .elapsed_s;
        println!("locality={on}: {t:.1}s");
        sink.push("locality", x, t);
    }

    // --- combiner ---------------------------------------------------------
    for (x, on) in [(0.0, false), (1.0, true)] {
        let cfg = JobConfig::default().with_combiner(on);
        let t = run_wordcount(cluster_2x16(Placement::SingleDomain).build(), mb << 20, cfg, SEED)
            .elapsed_s;
        println!("combiner={on}: {t:.1}s");
        sink.push("combiner", x, t);
    }

    // --- migration order ----------------------------------------------------
    for (x, concurrency) in [(0.0, 1u32), (1.0, 16)] {
        let (total_s, max_down_ms) = run_cluster_migration(concurrency);
        println!(
            "migration concurrency={concurrency}: total {total_s:.1}s, max downtime {max_down_ms:.0}ms"
        );
        sink.push("migration-total-s", x, total_s);
        sink.push("migration-max-downtime-ms", x, max_down_ms);
    }

    // --- speculative execution under a crushed tracker ---------------------
    for (x, on) in [(0.0, false), (1.0, true)] {
        let t = run_straggler_job(on, SEED);
        println!("speculation={on}: {t:.1}s");
        sink.push("speculation", x, t);
    }

    // --- task-scheduler policy under 2-job contention -----------------------
    for (x, policy) in SchedulerPolicy::all().iter().enumerate() {
        let (makespan, mean_job) = run_contending_jobs(*policy, mb, SEED);
        println!("scheduler={policy}: makespan {makespan:.1}s, mean job {mean_job:.1}s");
        sink.push("scheduler-makespan", x as f64, makespan);
        sink.push("scheduler-mean-job", x as f64, mean_job);
    }

    // --- fault injection ----------------------------------------------------
    for (x, faulted) in [(0.0, false), (1.0, true)] {
        let (t, trace) = run_faulted_wordcount(faulted, mb);
        println!("faults={faulted}: {t:.1}s");
        sink.push("faults", x, t);
        if faulted {
            let path = write_artifact("faults.trace.json", &trace).expect("write faults trace");
            assert!(trace.contains(r#""cat":"fault""#), "the faulted run must record fault spans");
            println!("faulted trace -> {}", path.display());
        }
    }

    // --- VM placement policy under a controller-driven job stream -----------
    for mix in JobMix::ALL {
        for (x, kind) in placement_kinds(mix).into_iter().enumerate() {
            let name = kind.name();
            let makespan = run_placement_stream(mix, kind);
            println!("placement mix={} policy={}: {:.1}s", mix.name(), name, makespan);
            sink.push(&format!("placement-{}", mix.name()), x as f64, makespan);
        }
    }
    sink.finish();

    // Shape checks.
    let pts = |s: &str| sink.series_points(s);
    let (total, down) = (pts("migration-total-s"), pts("migration-max-downtime-ms"));
    assert!(
        total[1].1 > total[0].1 && down[1].1 > down[0].1,
        "concurrent migration is slower in total ({:.1}s vs {:.1}s) and has a larger \
         max downtime ({:.0}ms vs {:.0}ms) than sequential",
        total[1].1,
        total[0].1,
        down[1].1,
        down[0].1
    );
    assert!(pts("combiner")[1].1 < pts("combiner")[0].1, "combiner speeds wordcount up");
    assert!(
        pts("locality")[1].1 <= pts("locality")[0].1 * 1.05,
        "locality-aware scheduling does not hurt"
    );
    assert!(pts("speculation")[1].1 < pts("speculation")[0].1, "speculation rescues the straggler");
    let mk = pts("scheduler-makespan");
    assert_eq!(mk.len(), SchedulerPolicy::all().len(), "one makespan per policy");
    assert!(mk.iter().all(|&(_, y)| y > 0.0), "every policy finishes both jobs");
    let f = pts("faults");
    assert!(f.iter().all(|&(_, y)| y > 0.0), "both runs complete");
    assert!(f[1].1 >= f[0].1 * 0.95, "injected faults cannot speed the job up");
    // Series order is [pack, spread, adaptive] (see placement_kinds).
    let cpu = pts("placement-cpu-bound");
    let shf = pts("placement-shuffle-heavy");
    let wc = pts("placement-wordcount");
    assert!(cpu[0].1 < shf_slack(cpu[1].1), "cpu-bound mix: pack must beat spread");
    assert!(shf[1].1 < shf_slack(shf[0].1), "shuffle-heavy mix: spread must beat pack");
    assert!(wc[0].1 <= wc[1].1 * 1.05, "wordcount mix: pack (normal) no worse than spread");
    for series in [&cpu, &shf, &wc] {
        let best = series[0].1.min(series[1].1);
        assert!(
            series[2].1 <= best * 1.05,
            "adaptive must track the better static policy (got {:.1}s vs best {:.1}s)",
            series[2].1,
            best
        );
    }
}

/// Memory dirty rate of a compile-like guest workload, bytes/s.
const KERNEL_BUILD_DIRTY_RATE: f64 = 25e6;

/// Live-migrates the paper's 16-VM, 1024 MiB single-domain cluster from
/// host 0 to host 1 under a kernel-build dirty rate, `concurrency` VMs at
/// a time, on a bare engine; returns the whole-cluster migration time (s)
/// and the largest single-VM downtime (ms).
fn run_cluster_migration(concurrency: u32) -> (f64, f64) {
    use simcore::owners;
    use simcore::prelude::*;
    use vcluster::prelude::*;

    let mut engine = Engine::new();
    let spec = cluster_2x16(Placement::SingleDomain).vm_mem_mib(1024).build();
    let mut cluster = VirtualCluster::new(&mut engine, spec);
    let mut mgr = MigrationManager::new(concurrency);
    let mut dirty = ConstantDirtyModel(KERNEL_BUILD_DIRTY_RATE);
    let vms: Vec<VmId> = (0..16).map(VmId).collect();
    mgr.start_cluster_migration(&mut engine, &cluster, &vms, HostId(1));
    while let Some((_, w)) = engine.next_wakeup() {
        if w.tag().owner != owners::MIGRATION {
            continue;
        }
        for ev in mgr.on_wakeup(&mut engine, &mut cluster, &mut dirty, &w) {
            if let MigrationEvent::AllDone(rep) = ev {
                return (rep.total_time.as_secs_f64(), rep.max_downtime.as_millis_f64());
            }
        }
    }
    unreachable!("cluster migration never completed");
}

/// Strict-inequality guard with a little slack so the assertion tests a
/// real gap, not float noise.
fn shf_slack(y: f64) -> f64 {
    y * 0.99
}

/// The `topology` entry: the paper's normal-vs-cross-domain wordcount
/// generalized to the rack tree: 4 hosts on 2 racks (hosts 0,1 | 2,3),
/// workers split over two hosts, shuffle kept heavy (no combiner, several
/// reduces) so the wire matters. *Normal* splits within rack 0 — shuffle
/// crosses NICs and the 8 Gb/s ToR only. *Cross-rack* splits over hosts 0
/// and 2 behind a 4:1-oversubscribed core trunk (250 Mb/s against 1 Gb/s
/// vNICs): every shuffle pair and all NFS traffic now share that single
/// link. *Cross-core* congests the same trunk a further 4x.
pub fn topology(scale: f64) {
    use vcluster::spec::GBIT_PER_SEC;

    let mb = input_mb(scale);
    let run = |second_host: u32, core_bw: f64| {
        let map: Vec<u32> = (0..16).map(|v| if v % 2 == 0 { 0 } else { second_host }).collect();
        let spec = ClusterSpec::builder()
            .hosts(4)
            .vms(16)
            .placement(Placement::Custom(map))
            .racks(2)
            .core_bw(core_bw)
            .build();
        let cfg = JobConfig::default().with_combiner(false).with_reduces(4);
        run_wordcount(spec, mb << 20, cfg, SEED).elapsed_s
    };
    let normal = run(1, GBIT_PER_SEC); // in-rack: the core carries NFS only
    let cross_rack = run(2, GBIT_PER_SEC * 0.25);
    let cross_core = run(2, GBIT_PER_SEC * 0.0625);

    let mut sink =
        ResultSink::new("topology", "case (0=normal 1=cross-rack 2=cross-core)", "seconds");
    println!(
        "topology normal={normal:.1}s cross-rack={cross_rack:.1}s cross-core={cross_core:.1}s"
    );
    sink.push("topology", 0.0, normal);
    sink.push("topology", 1.0, cross_rack);
    sink.push("topology", 2.0, cross_core);
    sink.finish();
    assert!(
        normal < cross_rack,
        "paper shape: packed workers ({normal:.1}s) beat a cross-rack split ({cross_rack:.1}s)"
    );
    assert!(
        cross_rack < cross_core,
        "a congested core ({cross_core:.1}s) must cost more than a healthy one ({cross_rack:.1}s)"
    );
}

/// The three policies a placement series sweeps, in CSV x-order
/// (0 = pack, 1 = spread, 2 = adaptive with the mix's own hint).
fn placement_kinds(mix: JobMix) -> [PlacementKind; 3] {
    let (maps, cpu_secs, io_bytes) = mix.base();
    [
        PlacementKind::Pack,
        PlacementKind::Spread,
        PlacementKind::Adaptive(WorkloadHint {
            tasks: maps,
            cpu_secs_per_task: cpu_secs,
            shuffle_bytes_per_task: io_bytes,
        }),
    ]
}

/// One controller-driven arrival stream of `mix` jobs under `kind`
/// placement on the paper's 2×16 geometry; returns the stream makespan in
/// seconds. Small HDFS blocks keep the synthetic inputs from drowning the
/// run in NFS reads.
fn run_placement_stream(mix: JobMix, kind: PlacementKind) -> f64 {
    use vhadoop::prelude::*;
    use workloads::loadgen::ArrivalProcess;

    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(cluster_2x16(Placement::SingleDomain).build())
            .hdfs(HdfsConfig { block_size: 1 << 20, replication: 2 })
            .no_monitor()
            .seed(4242)
            .controller(ControllerConfig::enabled_with(kind))
            .build(),
    );
    let arrivals =
        ArrivalProcess::new(mix, 4, SimDuration::from_secs(2), 2, RootSeed(4242)).schedule();
    for (i, a) in arrivals.iter().enumerate() {
        p.schedule_job(a.at, a.tenant, a.expected_s, a.job(i as u32));
    }
    let done = p.drive_until_idle();
    assert_eq!(done.len(), 4, "every arrival must complete");
    let rep = p.controller().expect("controller enabled").slo_report();
    assert_eq!(rep.starved, 0, "no admitted job may starve");
    p.now().as_secs_f64()
}

/// The Fig. 2 wordcount geometry through the full platform, clean or with
/// a mixed fault plan (straggler + node crash + degraded host NIC)
/// injected in the job's first seconds; returns elapsed seconds and the
/// run's trace.
fn run_faulted_wordcount(faulted: bool, mb: u64) -> (f64, String) {
    use simcore::prelude::*;
    use vhadoop::prelude::*;
    use workloads::textgen::TextCorpus;
    use workloads::wordcount::{text_input, WordCountApp};

    let bytes = (mb << 20).max(4 << 20);
    let plan = if faulted {
        FaultPlan::new()
            .at(
                SimTime::from_secs(1),
                FaultKind::StragglerVm { vm: 3, factor: 0.2, duration: SimDuration::from_secs(4) },
            )
            .at(SimTime::from_secs(2), FaultKind::NodeCrash { vm: 6 })
            .at(
                SimTime::from_secs(3),
                FaultKind::LinkDegrade {
                    host: 0,
                    factor: 0.5,
                    duration: SimDuration::from_secs(2),
                },
            )
    } else {
        FaultPlan::new()
    };
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(cluster_2x16(Placement::SingleDomain).build())
            .hdfs(HdfsConfig { block_size: (bytes / 15).max(1 << 20), replication: 3 })
            .no_monitor()
            .tracing(true)
            .faults(plan)
            .seed(2012)
            .build(),
    );
    p.register_input("/faults/in", bytes, VmId(1));
    let corpus = TextCorpus::english_like(RootSeed(2012).derive("corpus"));
    let input = text_input(&p.rt.hdfs, "/faults/in", corpus);
    let spec = JobSpec::new("wordcount", "/faults/in", "/faults/out")
        .with_config(JobConfig::default().with_combiner(false).with_reduces(4));
    let result = p.run_job(spec, Box::new(WordCountApp), Box::new(input));
    while p.step().is_some() {}
    (result.elapsed_secs(), p.rt.engine.tracer().to_chrome_json())
}

/// Two identical wordcount jobs submitted back-to-back onto one cluster
/// small enough that their tasks contend for slots under `policy`;
/// returns (makespan, mean job elapsed) in seconds.
fn run_contending_jobs(policy: SchedulerPolicy, mb: u64, seed: RootSeed) -> (f64, f64) {
    let spec = ClusterSpec::builder().hosts(2).vms(5).placement(Placement::CrossDomain).build();
    // Small blocks → each job alone oversubscribes the map slots, so both
    // jobs have pending maps at once and the policies' ordering choices
    // actually show.
    let hdfs = HdfsConfig { block_size: 512 << 10, replication: 3 };
    let mut rt = mapreduce::runtime::MrRuntime::new(spec, hdfs, seed);
    rt.mr.set_policy(policy);
    let cfg = JobConfig::default().with_reduces(4);
    for run in 0..2 {
        submit_wordcount(&mut rt, run, (mb << 20) / 2, cfg.clone(), seed);
    }
    let results = rt.drive_all();
    assert_eq!(results.len(), 2, "both jobs must complete under {policy}");
    let makespan = rt.now().as_secs_f64();
    let mean_job =
        results.iter().map(|r| r.elapsed.as_secs_f64()).sum::<f64>() / results.len() as f64;
    (makespan, mean_job)
}

/// A CPU-heavy job with one tracker VM crushed by external load; returns
/// elapsed seconds.
fn run_straggler_job(speculative: bool, seed: RootSeed) -> f64 {
    use mapreduce::prelude::*;

    struct HeavyApp;
    impl MapReduceApp for HeavyApp {
        fn name(&self) -> &str {
            "heavy"
        }
        fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
            out(k.clone(), v.clone());
        }
        fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
            out(k.clone(), V::Int(vs.len() as i64));
        }
        fn cost(&self) -> CostProfile {
            CostProfile { map_cpu_per_record: 1.2e8, ..Default::default() }
        }
    }

    let spec = ClusterSpec::builder().hosts(2).vms(9).placement(Placement::SingleDomain).build();
    let mut rt = mapreduce::runtime::MrRuntime::new(
        spec,
        HdfsConfig { block_size: 1 << 20, replication: 2 },
        seed,
    );
    rt.register_input("/in", (8 << 20) - 1, VmId(1));
    for i in 0..8 {
        let demands = rt.cluster.cpu_demands(VmId(1));
        rt.engine.start_flow(
            demands,
            2.4e9 * 600.0,
            simcore::ids::Tag::new(simcore::owners::USER, i, 0),
        );
    }
    let input = GeneratorInput::new(8, 1 << 20, |idx| {
        (0..40).map(|i| (K::Int((idx * 100 + i) as i64), V::Float(i as f64))).collect()
    });
    let config =
        JobConfig { speculative, locality_aware: false, use_combiner: false, ..Default::default() };
    let job = JobSpec::new("heavy", "/in", format!("/out-{speculative}")).with_config(config);
    rt.run_job(job, Box::new(HeavyApp), Box::new(input)).elapsed_secs()
}
