//! Fork-and-measure what-if rebalancing and the learned cost model that
//! prices its candidates.
//!
//! * `whatif`    — the same hot-host stream rebalanced by the estimator
//!   alone vs. by forking the platform and measuring each candidate;
//!   writes `results/whatif.{csv,json}`.
//! * `costmodel` — the hand-priced makespan estimator vs. a `vchar`
//!   regression tree (trained on a characterization sweep) pricing the
//!   same what-if rebalance candidates, on two cluster shapes; writes
//!   `results/costmodel_ablation.{csv,json}` and asserts the learned
//!   model cuts the mean estimator error on at least one shape.

use crate::ResultSink;
use mapreduce::scheduler::SchedulerPolicy;
use vsched::controller::WhatIfOutcome;
use vsched::model::MakespanKind;
use vsched::rebalance::RebalanceMode;

/// One controller-driven CPU-bound stream on a `hosts`-host cluster
/// packed onto host 0, with the rebalancer in `mode` and its estimates
/// priced by `model`; returns the stream makespan and every what-if
/// evaluation the run recorded.
fn run_whatif_stream(
    mode: RebalanceMode,
    hosts: u32,
    vms: u32,
    model: MakespanKind,
) -> (f64, Vec<WhatIfOutcome>) {
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

/// The `whatif` entry: the same hot-host stream rebalanced by the
/// estimator alone vs. by fork-and-measure what-if evaluation. Writes
/// `results/whatif.{csv,json}` — one row per candidate (estimated vs.
/// measured makespan, chosen flag) plus the two end-to-end makespans.
pub fn run(_scale: f64) {
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
fn whatif_model_err(hosts: u32, vms: u32, model: MakespanKind) -> f64 {
    let expect = model.name();
    let (_, outcomes) = run_whatif_stream(RebalanceMode::WhatIf, hosts, vms, model);
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

/// The `costmodel` entry: characterize, fit, then re-price the same
/// what-if candidates with the hand-priced estimator vs. the fitted tree
/// on two cluster shapes. Writes `results/costmodel_ablation.{csv,json}`
/// (per-shape mean estimator error for both models) and asserts the
/// learned model wins on held-out MAE and on at least one shape's
/// what-if error.
pub fn costmodel(_scale: f64) {
    use vchar::prelude::*;
    use vsched::model::TreeConfig;
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
