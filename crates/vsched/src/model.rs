//! Makespan cost models: the hand-priced baseline and a learned
//! regression tree (DESIGN.md §19).
//!
//! Every control-plane decision that prices a candidate VM layout —
//! adaptive placement, what-if rebalance candidate scoring — goes through
//! [`MakespanKind::estimate`]. There are two models:
//!
//! * [`MakespanKind::HandPriced`] — the first-order analytic
//!   [`estimate_makespan`] the control plane shipped with (kept as the
//!   baseline);
//! * [`MakespanKind::Learned`] — an in-repo CART-style [`RegressionTree`]
//!   fitted on a characterization dataset (the `vchar` crate's sweep
//!   output), fed the same decision-time inputs through
//!   [`decision_features`].
//!
//! The tree is deliberately minimal: axis-aligned splits chosen by
//! exhaustive SSE-minimizing search, constant leaf predictions, no
//! pruning beyond depth/leaf-size knobs. Fitting is **deterministic** —
//! candidate splits are enumerated in (feature index, threshold) order
//! and ties keep the first candidate, sample orderings are made total by
//! breaking value ties on sample index, and all float accumulation
//! happens in one fixed order — so the same dataset always yields the
//! same tree, bit for bit. Trees serialize through the snapshot
//! [`Encoder`](simcore::persist::Encoder)/[`Decoder`](simcore::persist::Decoder)
//! and round-trip to identical predictions
//! (`f64::to_bits`-equal).

use crate::placement::{estimate_makespan, Layout, WorkloadHint};
use vcluster::spec::ClusterSpec;

/// Names of the decision-time feature vector [`decision_features`]
/// produces, in column order. Index 0 is the hand-priced estimate itself:
/// the learned model sees its baseline and can recalibrate it, the
/// stacking trick that lets a shallow tree beat the analytic model
/// without relearning cluster physics from scratch.
pub const FEATURE_NAMES: [&str; 17] = [
    "hand_estimate_s",
    "tasks",
    "cpu_secs_per_task",
    "shuffle_mb_per_task",
    "total_workers",
    "busy_hosts",
    "max_workers_per_host",
    "p_same_host",
    "p_same_rack",
    "hosts",
    "racks",
    "cores_per_host",
    "bridge_gbps",
    "nic_gbps",
    "core_gbps",
    "load_mean",
    "load_max",
];

/// The decision-time feature vector for pricing `map` on `spec` under
/// `hint` and `host_load` — exactly the inputs
/// [`estimate_makespan`] consumes,
/// so a [`MakespanKind::Learned`] model is a drop-in replacement anywhere
/// the hand-priced one fits. Column order matches [`FEATURE_NAMES`].
pub fn decision_features(
    spec: &ClusterSpec,
    map: &[u32],
    hint: &WorkloadHint,
    host_load: &[f64],
) -> Vec<f64> {
    let layout = Layout::of(spec, map);
    let n_load = host_load.len().max(1) as f64;
    let load_mean = host_load.iter().sum::<f64>() / n_load;
    let load_max = host_load.iter().copied().fold(0.0, f64::max);
    vec![
        estimate_makespan(spec, map, hint, host_load),
        f64::from(hint.tasks),
        hint.cpu_secs_per_task,
        hint.shuffle_bytes_per_task as f64 / (1 << 20) as f64,
        f64::from(layout.total_workers),
        layout.busy_hosts as f64,
        f64::from(layout.workers.iter().copied().max().unwrap_or(0)),
        layout.p_same,
        layout.p_same_rack,
        f64::from(spec.hosts),
        f64::from(spec.racks),
        f64::from(spec.host.cores),
        spec.host.bridge_bw / 1e9,
        spec.host.nic_bw / 1e9,
        spec.core_bw / 1e9,
        load_mean,
        load_max,
    ]
}

/// Depth/leaf-size knobs of [`RegressionTree::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum split depth (0 = a single leaf).
    pub max_depth: usize,
    /// Minimum samples on each side of a split.
    pub min_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 8, min_leaf: 3 }
    }
}

/// Sentinel `feature` value marking a leaf node.
const LEAF: u32 = u32::MAX;

/// One node of a [`RegressionTree`], stored flat. Internal nodes route
/// `x[feature] <= threshold` left; leaves carry the prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Split feature index, or [`LEAF`].
    feature: u32,
    /// Split threshold (the largest left-side training value, so the
    /// training partition is reproduced exactly at prediction time).
    threshold: f64,
    /// Index of the left child (`x[feature] <= threshold`).
    left: u32,
    /// Index of the right child.
    right: u32,
    /// Leaf prediction (mean training label); unused on internal nodes.
    value: f64,
}

/// A CART-style regression tree over [`decision_features`] vectors.
///
/// See the module docs for the determinism argument; the format is a flat
/// preorder `Vec` of nodes serialized field-by-field via
/// [`Persist`](simcore::persist::Persist).
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: u32,
}

simcore::persist_struct!(Node { feature, threshold, left, right, value });
simcore::persist_struct!(RegressionTree { n_features, nodes });

impl RegressionTree {
    /// Fits a tree to `rows` (one feature vector per sample) and
    /// `labels`. Deterministic: the same inputs always produce the same
    /// tree.
    ///
    /// # Panics
    /// If `rows` is empty, lengths mismatch, or rows have uneven widths.
    pub fn fit(rows: &[Vec<f64>], labels: &[f64], cfg: &TreeConfig) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree to zero samples");
        assert_eq!(rows.len(), labels.len(), "one label per row");
        let n_features = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == n_features), "rows must have equal width");
        let mut tree = RegressionTree { nodes: Vec::new(), n_features: n_features as u32 };
        let idx: Vec<usize> = (0..rows.len()).collect();
        tree.grow(rows, labels, &idx, cfg, 0);
        tree
    }

    /// Recursively grows the subtree over `idx`, returning its root index.
    fn grow(
        &mut self,
        rows: &[Vec<f64>],
        labels: &[f64],
        idx: &[usize],
        cfg: &TreeConfig,
        depth: usize,
    ) -> u32 {
        let sum: f64 = idx.iter().map(|&i| labels[i]).sum();
        let mean = sum / idx.len() as f64;
        let leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node { feature: LEAF, threshold: 0.0, left: 0, right: 0, value: mean });
            (nodes.len() - 1) as u32
        };
        if depth >= cfg.max_depth || idx.len() < 2 * cfg.min_leaf {
            return leaf(&mut self.nodes);
        }
        let Some((feature, threshold)) = best_split(rows, labels, idx, cfg.min_leaf) else {
            return leaf(&mut self.nodes);
        };
        let (l_idx, r_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| rows[i][feature] <= threshold);
        // Reserve this node's slot before the children claim theirs.
        let me = self.nodes.len() as u32;
        self.nodes.push(Node {
            feature: feature as u32,
            threshold,
            left: 0,
            right: 0,
            value: mean,
        });
        let left = self.grow(rows, labels, &l_idx, cfg, depth + 1);
        let right = self.grow(rows, labels, &r_idx, cfg, depth + 1);
        self.nodes[me as usize].left = left;
        self.nodes[me as usize].right = right;
        me
    }

    /// Predicts the label of one feature vector.
    ///
    /// # Panics
    /// If `x` is narrower than the training features.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert!(
            x.len() >= self.n_features as usize,
            "feature vector too short: {} < {}",
            x.len(),
            self.n_features
        );
        let mut n = &self.nodes[0];
        while n.feature != LEAF {
            n = if x[n.feature as usize] <= n.threshold {
                &self.nodes[n.left as usize]
            } else {
                &self.nodes[n.right as usize]
            };
        }
        n.value
    }

    /// Number of nodes (internal + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum root-to-leaf depth (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: u32) -> usize {
            let n = &nodes[i as usize];
            if n.feature == LEAF {
                0
            } else {
                1 + walk(nodes, n.left).max(walk(nodes, n.right))
            }
        }
        walk(&self.nodes, 0)
    }

    /// Width of the feature vectors this tree was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features as usize
    }
}

/// Exhaustive deterministic split search: for every feature (ascending)
/// and every boundary between distinct sorted values (ascending), score
/// the SSE of the two sides and keep the strictly best candidate — ties
/// keep the earliest, so the search order is part of the format.
fn best_split(
    rows: &[Vec<f64>],
    labels: &[f64],
    idx: &[usize],
    min_leaf: usize,
) -> Option<(usize, f64)> {
    let n = idx.len();
    let n_features = rows[idx[0]].len();
    let mut best: Option<(f64, usize, f64)> = None; // (sse, feature, threshold)
    let mut order: Vec<usize> = Vec::with_capacity(n);
    // `feature` indexes the inner per-sample vectors, not `rows` itself.
    #[allow(clippy::needless_range_loop)]
    for feature in 0..n_features {
        order.clear();
        order.extend_from_slice(idx);
        // Total order: value, then sample index — equal values keep a
        // deterministic accumulation order for the prefix sums below.
        order.sort_unstable_by(|&a, &b| {
            rows[a][feature].total_cmp(&rows[b][feature]).then(a.cmp(&b))
        });
        let mut l_sum = 0.0f64;
        let mut l_sq = 0.0f64;
        let mut r_sum: f64 = order.iter().map(|&i| labels[i]).sum();
        let mut r_sq: f64 = order.iter().map(|&i| labels[i] * labels[i]).sum();
        for k in 1..n {
            let y = labels[order[k - 1]];
            l_sum += y;
            l_sq += y * y;
            r_sum -= y;
            r_sq -= y * y;
            if k < min_leaf || n - k < min_leaf {
                continue;
            }
            let lo = rows[order[k - 1]][feature];
            let hi = rows[order[k]][feature];
            if lo >= hi {
                continue; // can't separate equal values
            }
            let sse = (l_sq - l_sum * l_sum / k as f64) + (r_sq - r_sum * r_sum / (n - k) as f64);
            if best.is_none_or(|(b, _, _)| sse < b) {
                // Threshold = the largest left value, so prediction-time
                // routing reproduces the training partition exactly.
                best = Some((sse, feature, lo));
            }
        }
    }
    best.map(|(_, f, t)| (f, t))
}

/// Prices a candidate VM layout in seconds: swap the estimator, keep the
/// decision logic.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum MakespanKind {
    /// The analytic baseline: [`estimate_makespan`].
    #[default]
    HandPriced,
    /// A fitted [`RegressionTree`] applied to [`decision_features`].
    Learned(RegressionTree),
}

impl MakespanKind {
    /// Stable display name (CSV column, what-if attribution).
    pub fn name(&self) -> &'static str {
        match self {
            MakespanKind::HandPriced => "hand-priced",
            MakespanKind::Learned(_) => "learned",
        }
    }

    /// Estimated makespan of one task wave of `hint` under `map`.
    pub fn estimate(
        &self,
        spec: &ClusterSpec,
        map: &[u32],
        hint: &WorkloadHint,
        host_load: &[f64],
    ) -> f64 {
        match self {
            MakespanKind::HandPriced => estimate_makespan(spec, map, hint, host_load),
            MakespanKind::Learned(t) => t.predict(&decision_features(spec, map, hint, host_load)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementKind;
    use simcore::persist::{Decoder, Encoder, Persist};

    fn grid() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = step on x0, refined by x1 — a shape a depth-2 tree nails.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..32 {
            let x0 = f64::from(i % 8);
            let x1 = f64::from(i / 8);
            rows.push(vec![x0, x1]);
            labels.push(if x0 < 4.0 { 10.0 + x1 } else { 50.0 + 2.0 * x1 });
        }
        (rows, labels)
    }

    fn layout(kind: PlacementKind, spec: &ClusterSpec) -> Vec<u32> {
        kind.assign(spec, &MakespanKind::HandPriced).unwrap()
    }

    fn leaves(t: &RegressionTree) -> usize {
        t.nodes.iter().filter(|n| n.feature == LEAF).count()
    }

    #[test]
    fn tree_fits_a_step_function() {
        let (rows, labels) = grid();
        let t = RegressionTree::fit(&rows, &labels, &TreeConfig::default());
        let mae: f64 =
            rows.iter().zip(&labels).map(|(r, &y)| (t.predict(r) - y).abs()).sum::<f64>()
                / rows.len() as f64;
        assert!(mae < 0.75, "tree should fit the grid closely, mae={mae}");
        assert!(t.depth() <= 8);
        assert!(leaves(&t) >= 2);
    }

    #[test]
    fn fitting_is_deterministic() {
        let (rows, labels) = grid();
        let a = RegressionTree::fit(&rows, &labels, &TreeConfig::default());
        let b = RegressionTree::fit(&rows, &labels, &TreeConfig::default());
        assert_eq!(a, b, "same data must fit the same tree");
    }

    #[test]
    fn depth_and_leaf_knobs_bound_the_tree() {
        let (rows, labels) = grid();
        let stump = RegressionTree::fit(&rows, &labels, &TreeConfig { max_depth: 1, min_leaf: 1 });
        assert!(stump.depth() <= 1);
        assert!(leaves(&stump) <= 2);
        let wide = RegressionTree::fit(&rows, &labels, &TreeConfig { max_depth: 8, min_leaf: 16 });
        assert!(leaves(&wide) <= 2, "min_leaf=16 on 32 samples allows one split");
    }

    #[test]
    fn tree_round_trips_to_identical_predictions() {
        let (rows, labels) = grid();
        let t = RegressionTree::fit(&rows, &labels, &TreeConfig::default());
        let mut e = Encoder::new();
        t.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let t2 = RegressionTree::decode(&mut d);
        assert!(d.is_exhausted());
        assert_eq!(t, t2);
        for r in &rows {
            assert_eq!(t.predict(r).to_bits(), t2.predict(r).to_bits());
        }
    }

    #[test]
    fn decision_features_match_the_dictionary() {
        let spec = ClusterSpec::default();
        let map = layout(PlacementKind::Pack, &spec);
        let hint = WorkloadHint::default();
        let f = decision_features(&spec, &map, &hint, &[]);
        assert_eq!(f.len(), FEATURE_NAMES.len());
        assert_eq!(f[0], estimate_makespan(&spec, &map, &hint, &[]), "feature 0 is the baseline");
        assert_eq!(f[1], f64::from(hint.tasks));
        // Packed onto one host: everything is same-host, one busy host.
        assert_eq!(f[5], 1.0);
        assert_eq!(f[7], 1.0);
    }

    #[test]
    fn learned_model_recalibrates_the_baseline() {
        // Train y = 2 * hand_estimate on a few synthetic layouts: the tree
        // must learn to correct a consistent bias through feature 0.
        let spec = ClusterSpec::default();
        let hint = WorkloadHint::default();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for tasks in 1..=12u32 {
            let h = WorkloadHint { tasks, ..hint };
            for map in [layout(PlacementKind::Pack, &spec), layout(PlacementKind::Spread, &spec)] {
                let f = decision_features(&spec, &map, &h, &[]);
                labels.push(2.0 * f[0]);
                rows.push(f);
            }
        }
        let t = RegressionTree::fit(&rows, &labels, &TreeConfig { max_depth: 6, min_leaf: 1 });
        let learned = MakespanKind::Learned(t);
        let map = layout(PlacementKind::Pack, &spec);
        let h = WorkloadHint { tasks: 6, ..hint };
        let hand = MakespanKind::HandPriced.estimate(&spec, &map, &h, &[]);
        let est = learned.estimate(&spec, &map, &h, &[]);
        assert!(
            (est - 2.0 * hand).abs() < 0.5 * hand,
            "learned should track the doubled baseline: est={est} hand={hand}"
        );
    }
}
