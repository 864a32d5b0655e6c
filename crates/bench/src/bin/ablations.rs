//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * `locality`        — locality-aware map scheduling ON vs. OFF;
//! * `combiner`        — wordcount with vs. without the combiner;
//! * `dom0`            — dom0 I/O CPU-steal modelling ON vs. OFF;
//! * `migration-order` — sequential vs. fully concurrent cluster migration;
//! * `speculation`     — backup attempts for straggling maps ON vs. OFF
//!   (with one tracker VM crushed by outside load);
//! * `scheduler`       — FIFO vs. fair vs. job-driven task scheduling with
//!   two wordcount jobs contending for the same slots;
//! * `faults`          — the Fig. 2 wordcount clean vs. under an injected
//!   `FaultPlan` (node crash + straggler + link degradation); the faulted
//!   run's trace is exported to `results/faults.trace.json`;
//! * `placement`       — pack vs. spread vs. adaptive VM placement under
//!   the `vsched` controller, for each `JobMix` arrival stream (cpu-bound,
//!   shuffle-heavy, wordcount) — the paper's normal-vs-cross-domain table
//!   as a closed-loop policy choice;
//! * `topology`        — the paper's normal-vs-cross-domain experiment over
//!   the rack tree: workers split within one rack vs. split across racks
//!   behind an oversubscribed core trunk vs. the same trunk congested
//!   further; writes `results/topology.{csv,json}`;
//! * `costmodel`       — the hand-priced makespan estimator vs. a `vchar`
//!   regression tree (trained on a characterization sweep) pricing the
//!   same what-if rebalance candidates, on two cluster shapes; writes
//!   `results/costmodel_ablation.{csv,json}` and asserts the learned
//!   model cuts the mean estimator error on at least one shape.
//!
//! ```sh
//! cargo run --release -p vhadoop-bench --bin ablations \
//!     [--scale 8|--full] [--case <name>]
//! ```

use mapreduce::config::JobConfig;
use mapreduce::scheduler::SchedulerPolicy;
use simcore::rng::RootSeed;
use vcluster::spec::{ClusterSpec, Placement, XenParams};
use vcluster::virtlm::{VirtLm, WorkloadProfile};
use vhadoop_bench::{cli_case, cli_scale, ResultSink};
use workloads::wordcount::{run_wordcount, submit_wordcount};

fn cluster(placement: Placement, xen: XenParams) -> ClusterSpec {
    ClusterSpec::builder().hosts(2).vms(16).placement(placement).xen(xen).build()
}

const CASES: &[&str] = &[
    "locality",
    "combiner",
    "dom0",
    "migration-order",
    "speculation",
    "scheduler",
    "faults",
    "placement",
    "topology",
    "whatif",
    "costmodel",
];

fn main() {
    let scale = cli_scale();
    let case = cli_case();
    if let Some(c) = case.as_deref() {
        assert!(CASES.contains(&c), "unknown --case {c:?}; known cases: {CASES:?}");
    }
    let wanted = |name: &str| case.as_deref().is_none_or(|c| c == name);
    let mb = ((128.0 / scale).max(4.0)) as u64;
    let seed = RootSeed(99);
    let mut sink = ResultSink::new("ablations", "variant (0=off/seq 1=on/conc)", "seconds");

    // --- locality-aware scheduling ---------------------------------------
    // Cross-domain placement makes remote reads expensive; locality off
    // should hurt there.
    for (x, on) in [(0.0, false), (1.0, true)].into_iter().filter(|_| wanted("locality")) {
        let cfg = JobConfig::default().with_locality(on);
        let t = run_wordcount(
            cluster(Placement::CrossDomain, XenParams::default()),
            mb << 20,
            cfg,
            seed,
        )
        .elapsed_s;
        println!("locality={on}: {t:.1}s");
        sink.push("locality", x, t);
    }

    // --- combiner ---------------------------------------------------------
    for (x, on) in [(0.0, false), (1.0, true)].into_iter().filter(|_| wanted("combiner")) {
        let cfg = JobConfig::default().with_combiner(on);
        let t = run_wordcount(
            cluster(Placement::SingleDomain, XenParams::default()),
            mb << 20,
            cfg,
            seed,
        )
        .elapsed_s;
        println!("combiner={on}: {t:.1}s");
        sink.push("combiner", x, t);
    }

    // --- dom0 I/O CPU steal ------------------------------------------------
    for (x, on) in [(0.0, false), (1.0, true)].into_iter().filter(|_| wanted("dom0")) {
        let xen = if on {
            XenParams::default()
        } else {
            XenParams {
                dom0_cycles_per_net_byte: 0.0,
                dom0_cycles_per_disk_byte: 0.0,
                ..Default::default()
            }
        };
        // dom0 steal matters most when I/O and CPU contend on one host.
        let t = run_wordcount(
            cluster(Placement::SingleDomain, xen),
            mb << 20,
            JobConfig::default(),
            seed,
        )
        .elapsed_s;
        println!("dom0-steal={on}: {t:.1}s");
        sink.push("dom0", x, t);
    }

    // --- migration order ----------------------------------------------------
    for (x, concurrency) in
        [(0.0, 1u32), (1.0, 16)].into_iter().filter(|_| wanted("migration-order"))
    {
        let bench = VirtLm { n_vms: 16, concurrency };
        let row = bench.run_one(&WorkloadProfile::kernel_build(), 1024);
        println!(
            "migration concurrency={concurrency}: total {:.1}s, max downtime {:.0}ms",
            row.total_time_s, row.max_downtime_ms
        );
        sink.push("migration-total-s", x, row.total_time_s);
        sink.push("migration-max-downtime-ms", x, row.max_downtime_ms);
    }

    // --- speculative execution under a crushed tracker ---------------------
    for (x, on) in [(0.0, false), (1.0, true)].into_iter().filter(|_| wanted("speculation")) {
        let t = run_straggler_job(on, seed);
        println!("speculation={on}: {t:.1}s");
        sink.push("speculation", x, t);
    }

    // --- task-scheduler policy under 2-job contention -----------------------
    if wanted("scheduler") {
        for (x, policy) in SchedulerPolicy::all().iter().enumerate() {
            let (makespan, mean_job) = run_contending_jobs(*policy, mb, seed);
            println!("scheduler={policy}: makespan {makespan:.1}s, mean job {mean_job:.1}s");
            sink.push("scheduler-makespan", x as f64, makespan);
            sink.push("scheduler-mean-job", x as f64, mean_job);
        }
    }

    // --- fault injection ----------------------------------------------------
    for (x, faulted) in [(0.0, false), (1.0, true)].into_iter().filter(|_| wanted("faults")) {
        let (t, trace) = run_faulted_wordcount(faulted, mb);
        println!("faults={faulted}: {t:.1}s");
        sink.push("faults", x, t);
        if faulted {
            let path = vhadoop_bench::write_artifact("faults.trace.json", &trace)
                .expect("write faults trace");
            assert!(trace.contains(r#""cat":"fault""#), "the faulted run must record fault spans");
            println!("faulted trace -> {}", path.display());
        }
    }

    // --- VM placement policy under a controller-driven job stream -----------
    if wanted("placement") {
        use workloads::loadgen::JobMix;
        for mix in JobMix::ALL {
            for (x, kind) in placement_kinds(mix).into_iter().enumerate() {
                let name = kind.name();
                let makespan = run_placement_stream(mix, kind);
                println!("placement mix={} policy={}: {:.1}s", mix.name(), name, makespan);
                sink.push(&format!("placement-{}", mix.name()), x as f64, makespan);
            }
        }
    }

    // --- network topology: normal vs cross-rack vs cross-core ---------------
    if wanted("topology") {
        let (normal, cross_rack, cross_core) = run_topology_cases(mb, seed);
        let mut tsink =
            ResultSink::new("topology", "case (0=normal 1=cross-rack 2=cross-core)", "seconds");
        println!(
            "topology normal={normal:.1}s cross-rack={cross_rack:.1}s cross-core={cross_core:.1}s"
        );
        tsink.push("topology", 0.0, normal);
        tsink.push("topology", 1.0, cross_rack);
        tsink.push("topology", 2.0, cross_core);
        tsink.finish();
        assert!(
            normal < cross_rack,
            "paper shape: packed workers ({normal:.1}s) beat a cross-rack split ({cross_rack:.1}s)"
        );
        assert!(
            cross_rack < cross_core,
            "a congested core ({cross_core:.1}s) must cost more than a healthy one ({cross_rack:.1}s)"
        );
    }

    // --- fork-and-measure what-if rebalancing --------------------------------
    if wanted("whatif") {
        run_whatif_case();
    }

    // --- learned vs hand-priced what-if cost model ---------------------------
    if wanted("costmodel") {
        run_costmodel_case();
    }

    sink.finish();

    // Shape checks (only for the studies that actually ran).
    let pts = |s: &str| sink.series_points(s);
    if wanted("combiner") {
        assert!(pts("combiner")[1].1 < pts("combiner")[0].1, "combiner speeds wordcount up");
    }
    if wanted("dom0") {
        assert!(pts("dom0")[1].1 >= pts("dom0")[0].1, "dom0 steal can only slow things down");
    }
    if wanted("locality") {
        assert!(
            pts("locality")[1].1 <= pts("locality")[0].1 * 1.05,
            "locality-aware scheduling does not hurt"
        );
    }
    if wanted("speculation") {
        assert!(
            pts("speculation")[1].1 < pts("speculation")[0].1,
            "speculation rescues the straggler"
        );
    }
    if wanted("scheduler") {
        let mk = pts("scheduler-makespan");
        assert_eq!(mk.len(), SchedulerPolicy::all().len(), "one makespan per policy");
        assert!(mk.iter().all(|&(_, y)| y > 0.0), "every policy finishes both jobs");
    }
    if wanted("faults") {
        let f = pts("faults");
        assert!(f.iter().all(|&(_, y)| y > 0.0), "both runs complete");
        assert!(f[1].1 >= f[0].1 * 0.95, "injected faults cannot speed the job up");
    }
    if wanted("placement") {
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
}

/// Strict-inequality guard with a little slack so the assertion tests a
/// real gap, not float noise.
fn shf_slack(y: f64) -> f64 {
    y * 0.99
}

/// One controller-driven CPU-bound stream on a `hosts`-host cluster
/// packed onto host 0, with the rebalancer in `mode` and its estimates
/// priced by `model`; returns the stream makespan and every what-if
/// evaluation the run recorded.
fn run_whatif_stream(
    mode: vsched::rebalance::RebalanceMode,
    hosts: u32,
    vms: u32,
    model: vsched::model::MakespanKind,
) -> (f64, Vec<vsched::controller::WhatIfOutcome>) {
    use vhadoop::prelude::*;
    use workloads::loadgen::load_job;

    let mut cfg = ControllerConfig::enabled_with(PlacementKind::Spec);
    cfg.model = model;
    cfg.rebalance = Some(RebalanceConfig {
        interval: SimDuration::from_secs(1),
        hot_cpu: 0.5,
        hot_nic: 0.9,
        cold_cpu: 0.2,
        hysteresis_ticks: 2,
        max_moves: 2,
        cooldown: SimDuration::from_secs(5),
        consolidate: false,
        mode,
        hint: WorkloadHint::default(),
    });
    // Hosts are deliberately asymmetric: all but three VMs crowd host 0
    // (hot), hosts 1 and 2 carry some load already, any further hosts are
    // empty — so the candidate destinations genuinely differ and the
    // estimator can be graded. (On 4 hosts and 16 VMs this is the
    // historical 13/2/1/0 geometry.)
    assert!(hosts >= 3 && vms >= 6, "the asymmetric geometry needs >= 3 hosts, >= 6 VMs");
    let map: Vec<u32> = (0..vms)
        .map(|v| {
            if v == vms - 1 {
                2
            } else if v >= vms - 3 {
                1
            } else {
                0
            }
        })
        .collect();
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder()
                    .hosts(hosts)
                    .vms(vms)
                    .placement(Placement::Custom(map))
                    .build(),
            )
            .hdfs(vhdfs::hdfs::HdfsConfig { block_size: 1 << 20, replication: 2 })
            .no_monitor()
            .seed(4242)
            .controller(cfg)
            .build(),
    );
    // A wide CPU-heavy wave on the packed host trips the hot detector
    // (same shape as the controller integration test).
    let n = 3;
    for run in 0..n {
        p.schedule_job(
            SimTime::from_secs(u64::from(run)),
            run,
            20.0,
            load_job(run, 12, 6.0, 4 << 20),
        );
    }
    let done = p.drive_until_idle();
    assert_eq!(done.len(), n as usize, "every arrival must complete under {mode:?}");
    let makespan = done.last().expect("jobs completed").finished;
    (makespan.as_secs_f64(), p.observe().whatif)
}

/// The `whatif` ablation: the same hot-host stream rebalanced by the
/// estimator alone vs. by fork-and-measure what-if evaluation. Writes
/// `results/whatif.{csv,json}` — one row per candidate (estimated vs.
/// measured makespan, chosen flag) plus the two end-to-end makespans.
fn run_whatif_case() {
    use vsched::model::MakespanKind;
    use vsched::rebalance::RebalanceMode;

    let (makespan_est, outcomes_est) =
        run_whatif_stream(RebalanceMode::Estimate, 4, 16, MakespanKind::HandPriced);
    assert!(outcomes_est.is_empty(), "estimate mode must not fork");
    let (makespan_wi, outcomes) =
        run_whatif_stream(RebalanceMode::WhatIf, 4, 16, MakespanKind::HandPriced);
    assert!(!outcomes.is_empty(), "the hot host must trip a what-if evaluation");

    // The first evaluation round: all outcomes sharing the earliest `at`.
    let first_at = outcomes[0].at;
    let round: Vec<_> = outcomes.iter().filter(|o| o.at == first_at).collect();
    assert!(round.len() >= 3, "need >= 3 candidate destinations, got {}", round.len());
    let chosen = round.iter().find(|o| o.chosen).expect("one candidate is committed");
    assert_eq!(outcomes.iter().filter(|o| o.chosen).count(), 1, "exactly one is committed");
    assert!(
        round.iter().all(|o| chosen.measured_s <= o.measured_s),
        "the committed candidate must have the best measured makespan"
    );
    assert!(
        makespan_wi <= makespan_est * 1.05,
        "what-if ({makespan_wi:.1}s) must be no worse than the estimator's choice ({makespan_est:.1}s)"
    );

    let mut wsink = ResultSink::new("whatif", "candidate index", "seconds");
    for (i, o) in outcomes.iter().enumerate() {
        wsink.push("estimated_s", i as f64, o.estimated_s);
        wsink.push("measured_s", i as f64, o.measured_s);
        wsink.push("chosen", i as f64, f64::from(o.chosen));
        let err = if o.measured_s > 0.0 {
            (o.measured_s - o.estimated_s).abs() / o.measured_s
        } else {
            0.0
        };
        println!(
            "whatif candidate {i}: est {:.1}s measured {:.1}s err {:.0}% {}",
            o.estimated_s,
            o.measured_s,
            err * 100.0,
            if o.chosen { "<- committed" } else { "" }
        );
    }
    wsink.push("makespan", 0.0, makespan_est);
    wsink.push("makespan", 1.0, makespan_wi);
    println!("whatif: estimator makespan {makespan_est:.1}s, what-if makespan {makespan_wi:.1}s");
    wsink.finish();
}

/// Mean relative what-if estimator error of `model` on the asymmetric
/// hot-host stream with the given shape. What-if mode commits by
/// *measured* fork makespans, so the trajectory — and therefore the
/// candidate set being priced — is identical for every model; only the
/// estimates differ. Also checks every outcome is attributed to the
/// model that priced it.
fn whatif_model_err(hosts: u32, vms: u32, model: vsched::model::MakespanKind) -> f64 {
    let expect = model.name();
    let (_, outcomes) =
        run_whatif_stream(vsched::rebalance::RebalanceMode::WhatIf, hosts, vms, model);
    assert!(!outcomes.is_empty(), "shape {hosts}x{vms} must trip a what-if evaluation");
    assert!(
        outcomes.iter().all(|o| o.model == expect),
        "every outcome must be attributed to the {expect} model"
    );
    let errs: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.measured_s > 0.0)
        .map(|o| (o.measured_s - o.estimated_s).abs() / o.measured_s)
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// The `costmodel` ablation: characterize, fit, then re-price the same
/// what-if candidates with the hand-priced estimator vs. the fitted tree
/// on two cluster shapes. Writes `results/costmodel_ablation.{csv,json}`
/// (per-shape mean estimator error for both models) and asserts the
/// learned model wins on held-out MAE and on at least one shape's
/// what-if error.
fn run_costmodel_case() {
    use vchar::prelude::*;
    use vsched::model::{MakespanKind, TreeConfig};
    use vsched::placement::PlacementKind;
    use workloads::loadgen::JobMix;

    // Characterize the same scenario family the rebalancer prices: a
    // CPU-bound burst on shapes bracketing the what-if geometries.
    let spec = SweepSpec {
        mixes: vec![JobMix::CpuBound],
        placements: vec![PlacementKind::Pack, PlacementKind::Spread],
        schedulers: vec![SchedulerPolicy::Fifo],
        shapes: vec![
            Shape { hosts: 2, vms: 8, racks: 1 },
            Shape { hosts: 3, vms: 12, racks: 1 },
            Shape { hosts: 4, vms: 16, racks: 1 },
            Shape { hosts: 6, vms: 18, racks: 1 },
        ],
        faults: vec![FaultSeverity::None, FaultSeverity::Light],
        jobs: 3,
        mean_gap_s: 1.0,
        base_seed: 4242,
    };
    let ds = run_sweep(&spec, 4);
    let (tree, eval) = fit_cost_model(&ds, &TreeConfig::default());
    println!(
        "costmodel: {} rows ({} train / {} held out), tree {} nodes depth {}",
        eval.rows_total, eval.rows_train, eval.rows_heldout, eval.tree_nodes, eval.tree_depth
    );
    println!(
        "costmodel: held-out MAE learned {:.2}s vs hand-priced {:.2}s",
        eval.learned_mae_s, eval.hand_mae_s
    );
    assert!(
        eval.learned_mae_s <= eval.hand_mae_s,
        "the fitted tree must beat the hand-priced estimator on held-out rows \
         (learned {:.2}s vs hand {:.2}s)",
        eval.learned_mae_s,
        eval.hand_mae_s
    );

    let shapes = [(4u32, 16u32), (3u32, 12u32)];
    let mut sink =
        ResultSink::new("costmodel_ablation", "shape index", "mean relative estimator error");
    let mut learned_wins = 0;
    for (si, &(hosts, vms)) in shapes.iter().enumerate() {
        let hand = whatif_model_err(hosts, vms, MakespanKind::HandPriced);
        let learned = whatif_model_err(hosts, vms, MakespanKind::Learned(tree.clone()));
        println!(
            "costmodel shape {hosts}x{vms}: what-if err hand {:.0}% learned {:.0}%{}",
            hand * 100.0,
            learned * 100.0,
            if learned < hand { " <- learned wins" } else { "" }
        );
        sink.push("hand_err_mean", si as f64, hand);
        sink.push("learned_err_mean", si as f64, learned);
        sink.push("hosts", si as f64, f64::from(hosts));
        sink.push("vms", si as f64, f64::from(vms));
        if learned < hand {
            learned_wins += 1;
        }
    }
    sink.push("heldout_mae_hand_s", 0.0, eval.hand_mae_s);
    sink.push("heldout_mae_learned_s", 0.0, eval.learned_mae_s);
    sink.finish();
    assert!(
        learned_wins >= 1,
        "the learned model must cut mean what-if estimator error on at least one shape"
    );
}

/// The paper's normal-vs-cross-domain wordcount generalized to the rack
/// tree: 4 hosts on 2 racks (hosts 0,1 | 2,3), workers split over two
/// hosts, shuffle kept heavy (no combiner, several reduces) so the wire
/// matters. *Normal* splits within rack 0 — shuffle crosses NICs and the
/// 8 Gb/s ToR only. *Cross-rack* splits over hosts 0 and 2 behind a
/// 4:1-oversubscribed core trunk (250 Mb/s against 1 Gb/s vNICs): every
/// shuffle pair and all NFS traffic now share that single link.
/// *Cross-core* congests the same trunk a further 4x. Returns the three
/// makespans.
fn run_topology_cases(mb: u64, seed: RootSeed) -> (f64, f64, f64) {
    use vcluster::spec::GBIT_PER_SEC;
    use vcluster::topology::TopologySpec;

    let run = |second_host: u32, core_bw: f64| {
        let map: Vec<u32> = (0..16).map(|v| if v % 2 == 0 { 0 } else { second_host }).collect();
        let mut topo = TopologySpec::racks(2);
        topo.core_bw = core_bw;
        let spec = ClusterSpec::builder()
            .hosts(4)
            .vms(16)
            .placement(Placement::Custom(map))
            .topology(topo)
            .build();
        let cfg = JobConfig::default().with_combiner(false).with_reduces(4);
        run_wordcount(spec, mb << 20, cfg, seed).elapsed_s
    };
    let normal = run(1, GBIT_PER_SEC); // in-rack: the core carries NFS only
    let cross_rack = run(2, GBIT_PER_SEC * 0.25);
    let cross_core = run(2, GBIT_PER_SEC * 0.0625);
    (normal, cross_rack, cross_core)
}

/// The three policies a placement series sweeps, in CSV x-order
/// (0 = pack, 1 = spread, 2 = adaptive with the mix's own hint).
fn placement_kinds(mix: workloads::loadgen::JobMix) -> [vsched::placement::PlacementKind; 3] {
    use vsched::placement::{PlacementKind, WorkloadHint};
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
fn run_placement_stream(
    mix: workloads::loadgen::JobMix,
    kind: vsched::placement::PlacementKind,
) -> f64 {
    use vhadoop::prelude::*;
    use workloads::loadgen::ArrivalProcess;

    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(cluster(Placement::SingleDomain, XenParams::default()))
            .hdfs(vhdfs::hdfs::HdfsConfig { block_size: 1 << 20, replication: 2 })
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
    use workloads::wordcount::WordCountApp;

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
            .cluster(cluster(Placement::SingleDomain, XenParams::default()))
            .hdfs(vhdfs::hdfs::HdfsConfig { block_size: (bytes / 15).max(1 << 20), replication: 3 })
            .no_monitor()
            .tracing(true)
            .faults(plan)
            .seed(2012)
            .build(),
    );
    p.register_input("/faults/in", bytes, VmId(1));
    let blocks = p.rt.hdfs.stat("/faults/in").expect("registered").blocks.len();
    let block_size = p.rt.hdfs.config().block_size;
    let corpus = TextCorpus::english_like(RootSeed(2012).derive("corpus"));
    let last = blocks - 1;
    let input = GeneratorInput::new(blocks, block_size, move |idx| {
        let b = if idx == last { bytes - last as u64 * block_size } else { block_size };
        corpus.split_records(idx, b)
    });
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
    use vhdfs::hdfs::HdfsConfig;
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
    use vhdfs::hdfs::HdfsConfig;

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
