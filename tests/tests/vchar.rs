//! Cross-crate tests of the `vchar` characterization subsystem: the
//! sweep's determinism contract, the learned cost model's quality floor,
//! and the controller's per-model what-if attribution.

use simcore::prelude::SimTime;
use vchar::prelude::*;
use vcluster::spec::{ClusterSpec, Placement};
use vhadoop::prelude::*;
use vsched::model::{MakespanKind, RegressionTree};
use vsched::rebalance::{RebalanceConfig, RebalanceMode};
use workloads::loadgen::load_job;

/// The tentpole determinism pin: the characterization dataset must be
/// byte-identical at 1 vs N sweep threads and across same-seed repeats —
/// and the model fitted from it must beat the hand-priced estimator it
/// recalibrates on the held-out quarter.
#[test]
fn characterization_dataset_is_thread_invariant_and_fits() {
    let spec = SweepSpec::tiny();
    let seq = run_sweep(&spec, 1);
    let par = run_sweep(&spec, 3);
    let again = run_sweep(&spec, 1);

    assert_eq!(seq.rows.len(), spec.runs());
    assert_eq!(seq.to_csv(), par.to_csv(), "CSV bytes must not depend on the thread count");
    assert_eq!(seq.to_json(), par.to_json(), "JSON bytes must not depend on the thread count");
    assert_eq!(seq.to_csv(), again.to_csv(), "same seed must reproduce the CSV bytes");

    // Schema: header matches the dictionary, every line is rectangular.
    let csv = seq.to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next().unwrap(), Dataset::columns().join(","));
    for line in lines {
        assert_eq!(line.split(',').count(), Dataset::columns().len());
    }
    assert!(seq.to_json().contains(&format!("\"version\": {DATASET_VERSION}")));

    // Labels are real simulations.
    assert!(seq.rows.iter().all(|r| r.makespan_s > 0.0));
    assert!(seq.rows.iter().any(|r| r.jobs_finished > 0));

    // The fitted tree must not lose to the baseline it can reproduce
    // (feature 0 *is* the hand estimate, so hand-priced accuracy is a
    // floor, not a coincidence).
    let (tree, eval) = fit_cost_model(&seq);
    assert!(eval.rows_heldout > 0);
    assert!(
        eval.learned_mae_s <= eval.hand_mae_s,
        "learned MAE {:.2}s must not exceed hand-priced MAE {:.2}s",
        eval.learned_mae_s,
        eval.hand_mae_s
    );
    assert!(tree.node_count() >= 1);
    assert!(heldout_csv(&seq, &tree).lines().count() > 1);
}

/// Runs the asymmetric hot-host stream with what-if rebalancing priced
/// by `model`; returns the recorded outcomes.
fn whatif_outcomes(model: MakespanKind) -> Vec<vsched::controller::WhatIfOutcome> {
    let name = model.name();
    let mut cfg = ControllerConfig::enabled_with(PlacementKind::Spec);
    cfg.model = model;
    cfg.rebalance = Some(RebalanceConfig {
        interval: SimDuration::from_secs(1),
        hot_cpu: 0.5,
        hysteresis_ticks: 2,
        cooldown: SimDuration::from_secs(5),
        mode: RebalanceMode::WhatIf,
        ..RebalanceConfig::default()
    });
    let map: Vec<u32> = (0..12)
        .map(|v| match v {
            9 | 10 => 1,
            11 => 2,
            _ => 0,
        })
        .collect();
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(3).vms(12).placement(Placement::Custom(map)).build(),
            )
            .hdfs(HdfsConfig { block_size: 1 << 20, replication: 2 })
            .seed(4242)
            .controller(cfg)
            .build(),
    );
    for run in 0..3u32 {
        p.schedule_job(
            SimTime::from_secs(u64::from(run)),
            run,
            20.0,
            load_job(run, 10, 6.0, 4 << 20),
        );
    }
    let done = p.drive_until_idle();
    assert_eq!(done.len(), 3, "every arrival must complete");
    let outcomes = p.observe().whatif;
    // Each outcome names the model that priced it, and one model prices a
    // whole run.
    assert!(outcomes.iter().all(|o| o.model == name), "an outcome names another model");
    outcomes
}

/// Satellite pin: every what-if outcome records which makespan model
/// produced its estimate, for both built-in models.
#[test]
fn whatif_outcomes_carry_model_attribution() {
    let hand = whatif_outcomes(MakespanKind::HandPriced);
    assert!(!hand.is_empty(), "the hot host must trip a what-if evaluation");
    assert!(hand.iter().all(|o| o.model == "hand-priced"));

    // A deliberately crude learned model: constant 30 s. Attribution —
    // not accuracy — is under test here.
    let rows = vec![vec![0.0], vec![1.0]];
    let labels = vec![30.0, 30.0];
    let tree = RegressionTree::fit(&rows, &labels);
    let learned = whatif_outcomes(MakespanKind::Learned(tree));
    assert!(!learned.is_empty());
    assert!(learned.iter().all(|o| o.model == "learned"));

    // What-if commits by *measured* makespan, so both runs price the
    // same candidates: the measured series must be bitwise identical.
    let m = |os: &[vsched::controller::WhatIfOutcome]| {
        os.iter().map(|o| o.measured_s.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(m(&hand), m(&learned), "model choice must not perturb the trajectory");
}
