//! The benchmark's own seeded generator.
//!
//! Inputs must be a pure function of `--seed` for the life of the
//! benchmark, so the generator lives here rather than in a vendored crate a
//! later change could swap out from under it.

/// SplitMix64: tiny, fast, and good enough for workload synthesis.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from this seed and a label, so adding
    /// draws to one part of the generator never shifts another part.
    pub fn fork(seed: u64, label: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = Self(h);
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `k` distinct indices out of `0..n`, in draw order (`k <= n`).
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        debug_assert!(k <= n);
        // Partial Fisher-Yates over a sparse permutation.
        let mut swapped = std::collections::HashMap::new();
        (0..k)
            .map(|i| {
                let j = i + self.below(n - i);
                let at_j = *swapped.get(&j).unwrap_or(&j);
                let at_i = *swapped.get(&i).unwrap_or(&i);
                swapped.insert(j, at_i);
                at_j
            })
            .collect()
    }
}

/// A Zipf(s) sampler over ranks `0..n` (rank 0 most likely).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent `s` over `n` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect();
        Self { cumulative }
    }

    /// Draw a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("zipf over at least one rank");
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng(7), Rng(7));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(Rng(7).next_u64(), Rng(8).next_u64());
        assert_ne!(
            Rng::fork(7, "docs").next_u64(),
            Rng::fork(7, "tables").next_u64()
        );
    }

    #[test]
    fn distinct_draws_are_distinct_and_in_range() {
        let mut rng = Rng(3);
        for (n, k) in [(10, 10), (100, 7), (5, 0)] {
            let mut drawn = rng.distinct(n, k);
            assert_eq!(drawn.len(), k);
            assert!(drawn.iter().all(|&i| i < n));
            drawn.sort_unstable();
            drawn.dedup();
            assert_eq!(drawn.len(), k);
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = Rng(11);
        let draws: Vec<usize> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();
        let top10 = draws.iter().filter(|&&r| r < 10).count();
        let bottom500 = draws.iter().filter(|&&r| r >= 500).count();
        assert!(draws.iter().all(|&r| r < 1000));
        assert!(
            top10 > 3 * bottom500 / 2,
            "top10={top10} bottom500={bottom500}"
        );
    }
}
