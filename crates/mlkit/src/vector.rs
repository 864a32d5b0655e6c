//! Dense vector operations and distance measures.

/// Element-wise sum `a += b`.
///
/// # Panics
/// On dimension mismatch.
pub fn add_assign(a: &mut [f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Scales `a` in place by `s`.
pub fn scale(a: &mut [f64], s: f64) {
    for x in a.iter_mut() {
        *x *= s;
    }
}

/// `a + b` as a new vector.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = a.to_vec();
    add_assign(&mut out, b);
    out
}

/// Weighted mean of vectors: `Σ wᵢ·vᵢ / Σ wᵢ`.
///
/// # Panics
/// If `items` is empty or total weight is zero.
pub fn weighted_mean<'a>(items: impl IntoIterator<Item = (&'a [f64], f64)>) -> Vec<f64> {
    let mut acc: Option<Vec<f64>> = None;
    let mut total = 0.0;
    for (v, w) in items {
        total += w;
        match &mut acc {
            Some(a) => {
                for (x, y) in a.iter_mut().zip(v) {
                    *x += w * y;
                }
            }
            None => acc = Some(v.iter().map(|y| w * y).collect()),
        }
    }
    let mut acc = acc.expect("weighted_mean of empty set");
    assert!(total > 0.0, "zero total weight");
    scale(&mut acc, 1.0 / total);
    acc
}

/// Distance measures (Mahout's `DistanceMeasure` hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// L2.
    Euclidean,
    /// L2², cheaper when only comparisons matter.
    SquaredEuclidean,
    /// L1.
    Manhattan,
    /// `1 − cos(a, b)`.
    Cosine,
}

impl Distance {
    /// Distance between `a` and `b`.
    ///
    /// # Panics
    /// On dimension mismatch.
    pub fn between(self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dimension mismatch");
        match self {
            Distance::Euclidean => {
                a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
            }
            Distance::SquaredEuclidean => {
                a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
            }
            Distance::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>(),
            Distance::Cosine => {
                let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
                let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
                if na == 0.0 || nb == 0.0 {
                    1.0
                } else {
                    1.0 - (dot / (na * nb)).clamp(-1.0, 1.0)
                }
            }
        }
    }
}

/// Index of the nearest center under `d`, with the distance.
///
/// # Panics
/// If `centers` is empty.
pub fn nearest(point: &[f64], centers: &[Vec<f64>], d: Distance) -> (usize, f64) {
    assert!(!centers.is_empty(), "no centers");
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centers.iter().enumerate() {
        let dist = d.between(point, c);
        if dist < best.1 {
            best = (i, dist);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut a = vec![1.0, 2.0];
        add_assign(&mut a, &[3.0, 4.0]);
        assert_eq!(a, vec![4.0, 6.0]);
        scale(&mut a, 0.5);
        assert_eq!(a, vec![2.0, 3.0]);
        assert_eq!(add(&[1.0], &[2.0]), vec![3.0]);
    }

    #[test]
    fn weighted_mean_weights_correctly() {
        let v1 = [0.0, 0.0];
        let v2 = [4.0, 8.0];
        let m = weighted_mean([(&v1[..], 1.0), (&v2[..], 3.0)]);
        assert_eq!(m, vec![3.0, 6.0]);
    }

    #[test]
    fn distances_agree_on_known_values() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(Distance::Euclidean.between(&a, &b), 5.0);
        assert_eq!(Distance::SquaredEuclidean.between(&a, &b), 25.0);
        assert_eq!(Distance::Manhattan.between(&a, &b), 7.0);
        let c = [1.0, 0.0];
        let dd = [0.0, 1.0];
        assert!((Distance::Cosine.between(&c, &dd) - 1.0).abs() < 1e-12);
        assert!(Distance::Cosine.between(&c, &c).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_zero_vector_is_max() {
        assert_eq!(Distance::Cosine.between(&[0.0], &[1.0]), 1.0);
    }

    #[test]
    fn nearest_picks_minimum() {
        let centers = vec![vec![0.0, 0.0], vec![10.0, 10.0], vec![2.0, 2.0]];
        let (i, d) = nearest(&[2.5, 2.0], &centers, Distance::Euclidean);
        assert_eq!(i, 2);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let _ = Distance::Euclidean.between(&[1.0], &[1.0, 2.0]);
    }
}
