//! English-like text generation.
//!
//! The paper feeds Wordcount with TOEFL reading materials; what matters
//! statistically is a natural-language word-frequency distribution (a few
//! very frequent words, a long tail), because that is what determines
//! combiner selectivity and intermediate data volume. We synthesize a
//! vocabulary of pronounceable words and draw from a Zipf(s≈1) law over
//! it — the standard model of English word frequencies.

use mapreduce::types::{Record, K, V};
use rand::rngs::StdRng;
use rand::Rng;
use simcore::rng::RootSeed;

/// Buckets the unit interval is cut into for sampling. A power of two, so
/// `u * GUIDE_BUCKETS` and `b / GUIDE_BUCKETS` are exact in `f64`.
const GUIDE_BUCKETS: usize = 8192;

/// A deterministic Zipf-distributed corpus generator.
#[derive(Debug, Clone)]
pub struct TextCorpus {
    vocab: Vec<String>,
    /// Cumulative Zipf weights for sampling, strictly increasing.
    cdf: Vec<f64>,
    /// `guide[b]` is the first index whose cumulative weight reaches
    /// `b / GUIDE_BUCKETS`: a draw in bucket `b` lands in
    /// `guide[b]..=guide[b + 1]`.
    guide: Vec<u32>,
    seed: RootSeed,
    words_per_line: usize,
}

impl TextCorpus {
    /// A corpus over `vocab_size` words with Zipf exponent `s`.
    ///
    /// # Panics
    /// If the vocabulary is empty, or so large for `s` that the rarest
    /// words' weights vanish in `f64`.
    pub fn new(seed: RootSeed, vocab_size: usize, s: f64) -> Self {
        assert!(vocab_size > 0, "vocabulary must be non-empty");
        let mut rng = seed.stream("vocab");
        let vocab: Vec<String> = (0..vocab_size).map(|i| synth_word(&mut rng, i)).collect();
        let mut cdf = Vec::with_capacity(vocab_size);
        let mut acc = 0.0;
        for rank in 1..=vocab_size {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // The guide table brackets a draw only in a sorted table without
        // repeats.
        assert!(
            cdf.windows(2).all(|w| w[0] < w[1]),
            "Zipf weights underflow: {vocab_size} words at exponent {s}"
        );
        let guide = (0..=GUIDE_BUCKETS)
            .map(|b| cdf.partition_point(|&c| c < b as f64 / GUIDE_BUCKETS as f64) as u32)
            .collect();
        TextCorpus { vocab, cdf, guide, seed, words_per_line: 10 }
    }

    /// Reasonable defaults: 5 000-word vocabulary, s = 1.05 (English-like).
    pub fn english_like(seed: RootSeed) -> Self {
        Self::new(seed, 5_000, 1.05)
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// The word index a uniform draw `u` (in `[0, 1)`) samples from the
    /// Zipf law: the first whose cumulative weight reaches `u`, or the
    /// last one. Every weight below `b / GUIDE_BUCKETS <= u` is
    /// left of the bucket's slice and every weight from
    /// `(b + 1) / GUIDE_BUCKETS > u` on is right of it, so the search over
    /// the slice finds what the search over the whole table would.
    fn index_of(&self, u: f64) -> usize {
        let b = (u * GUIDE_BUCKETS as f64) as usize;
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        match self.cdf[lo..hi].binary_search_by(|c| c.partial_cmp(&u).expect("no NaN")) {
            Ok(i) | Err(i) => (lo + i).min(self.vocab.len() - 1),
        }
    }

    /// Builds one line of text.
    pub fn line(&self, rng: &mut StdRng) -> String {
        let mut s = String::with_capacity(self.words_per_line * 8);
        for i in 0..self.words_per_line {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(&self.vocab[self.index_of(rng.gen())]);
        }
        s
    }

    /// Generates records for split `idx` totalling ≈ `bytes` of text.
    /// Deterministic in `(corpus seed, idx)`.
    pub fn split_records(&self, idx: usize, bytes: u64) -> Vec<Record> {
        let mut rng = self.seed.stream_at("text-split", idx as u64);
        let mut recs: Vec<Record> = Vec::new();
        let mut produced = 0u64;
        let mut line_no = 0i64;
        while produced < bytes {
            let line = self.line(&mut rng);
            produced += line.len() as u64 + 1;
            recs.push((K::Int(line_no), V::Text(line)));
            line_no += 1;
        }
        recs
    }
}

/// Synthesizes a pronounceable pseudo-word; `salt` guarantees uniqueness.
fn synth_word(rng: &mut StdRng, salt: usize) -> String {
    const ONSETS: &[&str] =
        &["b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "th", "st", "tr"];
    const NUCLEI: &[&str] = &["a", "e", "i", "o", "u", "ai", "ea", "ou"];
    const CODAS: &[&str] = &["", "n", "r", "s", "t", "nd", "st"];
    let syllables = rng.gen_range(1..=3);
    let mut w = String::new();
    for _ in 0..syllables {
        w.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
        w.push_str(NUCLEI[rng.gen_range(0..NUCLEI.len())]);
        w.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
    }
    // Rare but possible collisions would merge two vocabulary entries and
    // skew frequencies; suffix a base-26 salt on a slice of the space.
    if salt.is_multiple_of(7) {
        w.push((b'a' + (salt % 26) as u8) as char);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_split() {
        let c = TextCorpus::english_like(RootSeed(9));
        assert_eq!(c.split_records(3, 4096), c.split_records(3, 4096));
        assert_ne!(c.split_records(0, 4096), c.split_records(1, 4096));
    }

    #[test]
    fn split_size_is_close_to_target() {
        let c = TextCorpus::english_like(RootSeed(9));
        let recs = c.split_records(0, 64 * 1024);
        let total: usize = recs.iter().map(|(_, v)| v.as_text().len() + 1).sum();
        let target = 64 * 1024;
        assert!(
            (total as i64 - target as i64).unsigned_abs() < 256,
            "within one line of target: {total} vs {target}"
        );
    }

    #[test]
    fn frequencies_are_skewed() {
        // Zipf: the most frequent word should dominate the median one.
        let c = TextCorpus::english_like(RootSeed(1));
        let recs = c.split_records(0, 256 * 1024);
        let mut counts: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
        for (_, v) in &recs {
            for w in v.as_text().split_whitespace() {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            freqs[0] > freqs[freqs.len() / 2] * 20,
            "head word ({}) ≫ median word ({})",
            freqs[0],
            freqs[freqs.len() / 2]
        );
    }

    #[test]
    fn guided_search_equals_the_full_binary_search() {
        use rand::SeedableRng;
        for vocab in [1, 2, 5_000, 50_000] {
            for s in [0.8, 1.05, 2.0] {
                let c = TextCorpus::new(RootSeed(3), vocab, s);
                let full = |u: f64| match c.cdf.binary_search_by(|x| x.partial_cmp(&u).unwrap()) {
                    Ok(i) | Err(i) => i.min(vocab - 1),
                };
                let mut rng = StdRng::seed_from_u64(vocab as u64);
                let edges = [0.0, 1.0 - f64::EPSILON / 2.0, 0.5, 1.0 / 8192.0];
                let on_weights = c.cdf.iter().copied().filter(|&w| w < 1.0).take(1000);
                let draws = (0..100_000).map(|_| rng.gen::<f64>());
                for u in edges.into_iter().chain(on_weights).chain(draws) {
                    assert_eq!(c.index_of(u), full(u), "vocab {vocab}, s {s}, u {u}");
                }
            }
        }
    }

    #[test]
    fn split_records_are_pinned() {
        // FNV-1a over the lines of one split, taken before the guide table.
        let c = TextCorpus::english_like(RootSeed(9));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (_, line) in c.split_records(3, 64 * 1024) {
            for &b in line.as_text().as_bytes().iter().chain(b"\n") {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x183b199c341af6d2);
    }

    #[test]
    fn distinct_vocabulary() {
        let c = TextCorpus::new(RootSeed(5), 1000, 1.0);
        assert_eq!(c.vocab_size(), 1000);
    }
}
