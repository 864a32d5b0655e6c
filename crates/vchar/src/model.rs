//! Fitting and evaluating the learned cost model.
//!
//! Takes a characterization [`Dataset`], splits it deterministically
//! into train/held-out partitions (every 4th row by index is held out,
//! so the split is a pure function of the sweep order), fits
//! `vsched`'s CART regression tree on the training rows, and scores
//! both the fitted tree and the hand-priced baseline on the held-out
//! rows. The hand-priced estimate needs no re-computation: it is
//! feature 0 of every row (`FEATURE_NAMES[0] == "hand_estimate_s"`),
//! which is also what lets the tree *recalibrate* the baseline instead
//! of having to rediscover it.

use crate::dataset::Dataset;
use simcore::emit::{csv_row, Json};
use simcore::stats::percentile_sorted;
use std::fmt::Display;
use vsched::model::RegressionTree;

/// Train/held-out quality report for one fitted cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModelEval {
    /// Rows in the dataset.
    pub rows_total: usize,
    /// Rows used for fitting.
    pub rows_train: usize,
    /// Rows held out for evaluation.
    pub rows_heldout: usize,
    /// Nodes in the fitted tree.
    pub tree_nodes: usize,
    /// Depth of the fitted tree.
    pub tree_depth: usize,
    /// Mean absolute error of the learned tree on held-out rows, s.
    pub learned_mae_s: f64,
    /// Mean absolute error of the hand-priced estimator on the same rows, s.
    pub hand_mae_s: f64,
    /// 90th-percentile absolute error of the tree (`stats::percentile_sorted`), s.
    pub learned_p90_s: f64,
    /// 90th-percentile absolute error of the hand-priced estimator, s.
    pub hand_p90_s: f64,
}

impl CostModelEval {
    /// Renders the evaluation as a small JSON object for
    /// `results/costmodel.json`.
    pub fn to_json(&self) -> String {
        Json::object([
            ("model", "cart".into()),
            ("rows_total", self.rows_total.into()),
            ("rows_train", self.rows_train.into()),
            ("rows_heldout", self.rows_heldout.into()),
            ("tree_nodes", self.tree_nodes.into()),
            ("tree_depth", self.tree_depth.into()),
            ("learned_mae_s", self.learned_mae_s.into()),
            ("hand_mae_s", self.hand_mae_s.into()),
            ("learned_p90_s", self.learned_p90_s.into()),
            ("hand_p90_s", self.hand_p90_s.into()),
        ])
        .render()
    }
}

/// True when row `i` of the dataset belongs to the held-out partition.
/// Every 4th row (by sweep order) is held out — deterministic, stratified
/// across the grid because the sweep interleaves axes in a fixed nesting.
pub fn is_heldout(i: usize) -> bool {
    i % 4 == 3
}

/// Fits the cost model on the dataset's training partition and scores
/// it against the hand-priced baseline on the held-out partition.
///
/// Returns the fitted tree (ready to wire in as
/// `MakespanKind::Learned(tree)`) and the evaluation report.
pub fn fit_cost_model(ds: &Dataset) -> (RegressionTree, CostModelEval) {
    let (feats, labels) = ds.training_pairs();
    let mut train_x = Vec::new();
    let mut train_y = Vec::new();
    let mut held = Vec::new();
    for i in 0..feats.len() {
        if is_heldout(i) && feats.len() >= 4 {
            held.push(i);
        } else {
            train_x.push(feats[i].clone());
            train_y.push(labels[i]);
        }
    }
    let tree = RegressionTree::fit(&train_x, &train_y);

    let mut learned_errs = Vec::with_capacity(held.len());
    let mut hand_errs = Vec::with_capacity(held.len());
    for &i in &held {
        learned_errs.push((tree.predict(&feats[i]) - labels[i]).abs());
        hand_errs.push((feats[i][0] - labels[i]).abs());
    }
    let (learned_mae_s, hand_mae_s) = (mean(&learned_errs), mean(&hand_errs));
    learned_errs.sort_by(f64::total_cmp);
    hand_errs.sort_by(f64::total_cmp);
    let p90 = |sorted: &[f64]| if sorted.is_empty() { 0.0 } else { percentile_sorted(sorted, 0.9) };
    let eval = CostModelEval {
        rows_total: feats.len(),
        rows_train: train_x.len(),
        rows_heldout: held.len(),
        tree_nodes: tree.node_count(),
        tree_depth: tree.depth(),
        learned_mae_s,
        hand_mae_s,
        learned_p90_s: p90(&learned_errs),
        hand_p90_s: p90(&hand_errs),
    };
    (tree, eval)
}

/// Per-held-out-row comparison CSV for `results/costmodel.csv`:
/// one line per held-out row with the label, both estimates, and both
/// absolute errors.
pub fn heldout_csv(ds: &Dataset, tree: &RegressionTree) -> String {
    let mut out = String::from(
        "row,mix,placement,scheduler,hosts,vms,racks,fault,label_makespan_s,\
         hand_estimate_s,learned_estimate_s,hand_abs_err_s,learned_abs_err_s\n",
    );
    for (i, r) in ds.rows.iter().enumerate() {
        if !is_heldout(i) || ds.rows.len() < 4 {
            continue;
        }
        let hand = r.features[0];
        let learned = tree.predict(&r.features);
        let (hand_err, learned_err) = ((hand - r.makespan_s).abs(), (learned - r.makespan_s).abs());
        let row: [&dyn Display; 13] = [
            &i,
            &r.mix,
            &r.placement,
            &r.scheduler,
            &r.hosts,
            &r.vms,
            &r.racks,
            &r.fault,
            &r.makespan_s,
            &hand,
            &learned,
            &hand_err,
            &learned_err,
        ];
        csv_row(&mut out, row);
    }
    out
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Row;
    use vsched::model::FEATURE_NAMES;

    /// Synthetic dataset: the label is a deterministic distortion of the
    /// hand estimate, so a tree that sees the estimate as feature 0 can
    /// recalibrate while the raw estimate stays biased.
    fn synthetic(n: usize) -> Dataset {
        let rows = (0..n)
            .map(|i| {
                let hand = 10.0 + (i % 7) as f64 * 3.0;
                let mut features = vec![0.0; FEATURE_NAMES.len()];
                features[0] = hand;
                features[1] = (i % 5) as f64;
                Row {
                    mix: "cpu-bound",
                    placement: "pack",
                    scheduler: "fifo",
                    hosts: 2,
                    vms: 6,
                    racks: 1,
                    fault: "none",
                    seed: i as u64,
                    features,
                    wakeups: 0,
                    reallocations: 0,
                    flows_touched: 0,
                    jobs_finished: 0,
                    migrations_completed: 0,
                    data_local_maps: 0,
                    launched_maps: 0,
                    shuffle_mb: 0.0,
                    makespan_s: hand * 1.5 + 2.0,
                    slo_violations: 0,
                }
            })
            .collect();
        Dataset { rows }
    }

    #[test]
    fn learned_recalibrates_a_biased_baseline() {
        let ds = synthetic(64);
        let (tree, eval) = fit_cost_model(&ds);
        assert_eq!(eval.rows_total, 64);
        assert_eq!(eval.rows_heldout, 16);
        assert_eq!(eval.rows_train, 48);
        assert!(
            eval.learned_mae_s < eval.hand_mae_s,
            "learned {} !< hand {}",
            eval.learned_mae_s,
            eval.hand_mae_s
        );
        assert!(tree.node_count() >= 3);
    }

    #[test]
    fn split_is_deterministic_and_every_fourth() {
        let held: Vec<usize> = (0..12).filter(|&i| is_heldout(i)).collect();
        assert_eq!(held, vec![3, 7, 11]);
    }

    #[test]
    fn tiny_datasets_train_on_everything() {
        let ds = synthetic(3);
        let (_, eval) = fit_cost_model(&ds);
        assert_eq!(eval.rows_train, 3);
        assert_eq!(eval.rows_heldout, 0);
        assert_eq!(eval.learned_mae_s, 0.0);
    }

    #[test]
    fn heldout_csv_lists_exactly_the_heldout_rows() {
        let ds = synthetic(16);
        let (tree, _) = fit_cost_model(&ds);
        let csv = heldout_csv(&ds, &tree);
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.lines().nth(1).unwrap().starts_with("3,"));
    }
}
