//! Clustering quality metrics.

use crate::mlrt::Clustering;
use crate::vector::{nearest, Distance};
use std::collections::HashMap;

/// Within-cluster sum of squares (k-means objective).
pub fn wcss(points: &[Vec<f64>], model: &Clustering) -> f64 {
    points.iter().map(|p| nearest(p, &model.centers, Distance::SquaredEuclidean).1).sum()
}

/// Purity against ground-truth labels: each cluster votes for its
/// majority class; purity = correctly-voted fraction. 1.0 is perfect.
///
/// # Panics
/// If assignments and labels differ in length or are empty.
pub fn purity(labels: &[usize], assignments: &[usize]) -> f64 {
    assert_eq!(labels.len(), assignments.len(), "length mismatch");
    assert!(!labels.is_empty(), "empty clustering");
    let mut table: HashMap<usize, HashMap<usize, usize>> = HashMap::new();
    for (&l, &a) in labels.iter().zip(assignments) {
        *table.entry(a).or_default().entry(l).or_insert(0) += 1;
    }
    let correct: usize =
        table.values().map(|votes| votes.values().copied().max().unwrap_or(0)).sum();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purity_perfect_and_random() {
        let labels = vec![0, 0, 1, 1];
        assert_eq!(purity(&labels, &[5, 5, 9, 9]), 1.0);
        assert_eq!(purity(&labels, &[1, 1, 1, 1]), 0.5);
    }

    #[test]
    fn wcss_zero_for_points_on_centers() {
        let points = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let model = Clustering { centers: points.clone(), assignments: vec![0, 1] };
        assert_eq!(wcss(&points, &model), 0.0);
    }
}
