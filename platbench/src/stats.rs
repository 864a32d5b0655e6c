//! Small helpers: median, the output digest and the metric-name rule of
//! `BENCHMARK.json`.

use vhadoop::mapreduce::types::{Record, K, V};

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
/// If `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A name `BENCHMARK.json` accepts: starts with a letter or digit, then at
/// most 64 letters, digits, `_`, `.` and `-` in total. The catalogue is
/// static, so the rule is checked by its unit test, not at run time.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// FNV-1a over 64-bit words: the digest of a pass's job outputs, compared
/// across the warm-up, timed and traced passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
    }

    fn key(&mut self, k: &K) {
        match k {
            K::Int(i) => self.word(*i as u64),
            K::Text(s) => self.bytes(s.as_bytes()),
            K::Bytes(b) => self.bytes(b),
        }
    }

    fn value(&mut self, v: &V) {
        match v {
            V::Null => self.word(0),
            V::Int(i) => self.word(*i as u64),
            V::Float(f) => self.word(f.to_bits()),
            V::Text(s) => self.bytes(s.as_bytes()),
            V::Bytes(b) => self.bytes(b),
            V::Vector(x) => {
                self.word(x.len() as u64);
                x.iter().for_each(|f| self.word(f.to_bits()));
            }
            V::Tuple(t) => {
                self.word(t.len() as u64);
                t.iter().for_each(|v| self.value(v));
            }
        }
    }

    /// Folds in a job's output records, in order.
    pub fn records(&mut self, recs: &[Record]) {
        self.word(recs.len() as u64);
        for (k, v) in recs {
            self.key(k);
            self.value(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_over_five_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn metric_names_follow_the_benchmark_json_rule() {
        for good in ["wall_s", "simcore.next_wakeup_s", "core.us_per_wakeup", "9lives", "a-b"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "slash/y", "µs", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn digest_sees_order_content_and_lengths() {
        let d = |recs: &[Record]| {
            let mut d = Digest::default();
            d.records(recs);
            d
        };
        let a = (K::from("a"), V::Int(1));
        let b = (K::Bytes(vec![1, 2, 3]), V::Vector(vec![0.5, -0.5]));
        assert_eq!(d(&[a.clone(), b.clone()]), d(&[a.clone(), b.clone()]));
        assert_ne!(d(&[a.clone(), b.clone()]), d(&[b.clone(), a.clone()]));
        assert_ne!(d(std::slice::from_ref(&a)), d(&[(K::from("a"), V::Int(2))]));
        // Length prefixes keep "ab"+"" apart from "a"+"b".
        let mut x = Digest::default();
        x.bytes(b"ab");
        x.bytes(b"");
        let mut y = Digest::default();
        y.bytes(b"a");
        y.bytes(b"b");
        assert_ne!(x, y);
    }
}
