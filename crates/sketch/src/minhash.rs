//! Minwise hashing signatures.
//!
//! A [`MinHash`] signature summarizes a set of strings with `k` minimum hash
//! values. The fraction of positions in which two signatures agree is an
//! estimator of the Jaccard similarity of the underlying sets. Combined with
//! exact set cardinalities, the Jaccard estimate can be converted into a
//! *set containment* estimate — the asymmetric measure CMDL prefers for
//! skewed cardinalities.
//!
//! Two sketching schemes are supported (selected by [`SketchScheme`]):
//!
//! * [`SketchScheme::Classic`] — `k` independent hash functions; every item
//!   is mixed `k` times, so a signature costs `O(n·k)`. This is the
//!   textbook construction, kept as the estimator reference and for the
//!   Aurum-style baseline profiler.
//! * [`SketchScheme::OnePermutation`] — one-permutation hashing with
//!   optimal densification (Li, Owen & Zhang 2012; Shrivastava 2017): every
//!   item is hashed once and routed to one of `k` bins, and empty bins are
//!   filled by borrowing from hashed non-empty bins. A signature costs
//!   `O(n + k)`, which at the paper's 512-hash profiler setting removes the
//!   dominant profiling cost. This is the construction the CMDL profiler
//!   uses.
//!
//! Both schemes produce signatures with the same layout and estimators, but
//! signatures are only comparable when built by hashers with the same
//! scheme, seed, and length.

use serde::{Deserialize, Serialize};

/// Default number of hash permutations used across CMDL (matches the paper's
/// "512 hashes" profiler configuration for the scalability experiment, scaled
/// down by default for interactive use).
pub const DEFAULT_NUM_HASHES: usize = 128;

/// The MinHash construction used by a [`MinHasher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SketchScheme {
    /// `k` independent hash functions, `O(n·k)` per signature.
    Classic,
    /// One-permutation hashing + optimal densification, `O(n + k)`.
    #[default]
    OnePermutation,
}

/// A family of hash functions that produces MinHash signatures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinHasher {
    /// Per-permutation seeds (classic scheme only; empty for OPH).
    seeds: Vec<u64>,
    /// Signature length.
    num_hashes: usize,
    /// Base seed.
    seed: u64,
    /// Which construction `signature` uses.
    scheme: SketchScheme,
}

impl MinHasher {
    /// Create a **classic** hasher with `num_hashes` independent
    /// permutations derived from `seed`.
    pub fn new(num_hashes: usize, seed: u64) -> Self {
        Self::with_scheme(num_hashes, seed, SketchScheme::Classic)
    }

    /// Create a **one-permutation** hasher with `num_hashes` bins.
    pub fn one_permutation(num_hashes: usize, seed: u64) -> Self {
        Self::with_scheme(num_hashes, seed, SketchScheme::OnePermutation)
    }

    fn with_scheme(num_hashes: usize, seed: u64, scheme: SketchScheme) -> Self {
        assert!(num_hashes > 0, "MinHasher requires at least one hash");
        let seeds = match scheme {
            SketchScheme::Classic => {
                let mut seeds = Vec::with_capacity(num_hashes);
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                for _ in 0..num_hashes {
                    state = splitmix64(state);
                    seeds.push(state);
                }
                seeds
            }
            SketchScheme::OnePermutation => Vec::new(),
        };
        Self {
            seeds,
            num_hashes,
            seed,
            scheme,
        }
    }

    /// Create a classic hasher with the default number of permutations.
    pub fn default_with_seed(seed: u64) -> Self {
        Self::new(DEFAULT_NUM_HASHES, seed)
    }

    /// Number of hash permutations.
    pub fn num_hashes(&self) -> usize {
        self.num_hashes
    }

    /// The construction this hasher uses.
    pub fn scheme(&self) -> SketchScheme {
        self.scheme
    }

    /// Compute the signature of a set of string items.
    ///
    /// The exact cardinality of the set is stored alongside the signature so
    /// containment can be estimated later.
    pub fn signature<I, S>(&self, items: I) -> MinHash
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        match self.scheme {
            SketchScheme::Classic => self.signature_classic(items),
            SketchScheme::OnePermutation => self.signature_oph(items),
        }
    }

    fn signature_classic<I, S>(&self, items: I) -> MinHash
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut mins = vec![u64::MAX; self.num_hashes];
        let mut cardinality = 0usize;
        for item in items {
            cardinality += 1;
            let base = fnv1a(item.as_ref().as_bytes());
            for (slot, seed) in mins.iter_mut().zip(&self.seeds) {
                let h = splitmix64(base ^ seed);
                if h < *slot {
                    *slot = h;
                }
            }
        }
        MinHash {
            values: mins,
            cardinality,
        }
    }

    /// One-permutation hashing: each item is mixed once and routed to bin
    /// `⌊x·k / 2⁶⁴⌋`; the bin keeps the minimum of a second mix of `x`.
    /// Empty bins are then densified.
    fn signature_oph<I, S>(&self, items: I) -> MinHash
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let k = self.num_hashes;
        let mut bins = vec![u64::MAX; k];
        let mut cardinality = 0usize;
        for item in items {
            cardinality += 1;
            let x = splitmix64(fnv1a(item.as_ref().as_bytes()) ^ self.seed);
            let bin = fastrange(x, k);
            let value = splitmix64(x);
            if value < bins[bin] {
                bins[bin] = value;
            }
        }
        if cardinality > 0 {
            self.densify(&mut bins);
        }
        MinHash {
            values: bins,
            cardinality,
        }
    }

    /// Optimal densification (Shrivastava 2017): every empty bin `i` copies
    /// the value of the first non-empty bin on a hash sequence determined
    /// only by `(seed, i, attempt)`. Two sets with the same non-empty bins
    /// borrow identically, so densified positions still collide exactly when
    /// the borrowed positions collide, keeping the match-fraction estimator
    /// consistent.
    ///
    /// The attempt loop is capped: for sparse signatures (non-empty bins
    /// `m ≪ k`) uncapped probing costs `O(k²/m)` — worse than the classic
    /// scheme it replaces. After [`DENSIFY_MAX_ATTEMPTS`] misses the bin
    /// borrows directly from the `⌊hash·m⌋`-th non-empty bin (re-randomized
    /// densification à la Mai et al.), which is `O(1)` and still a function
    /// of `(seed, i, non-empty pattern)` only.
    fn densify(&self, bins: &mut [u64]) {
        let k = bins.len();
        if !bins.contains(&u64::MAX) {
            return;
        }
        let filled = bins.to_vec();
        let non_empty: Vec<u32> = (0..k as u32)
            .filter(|&i| filled[i as usize] != u64::MAX)
            .collect();
        debug_assert!(
            !non_empty.is_empty(),
            "densify requires at least one non-empty bin"
        );
        for (i, bin) in bins.iter_mut().enumerate() {
            if *bin != u64::MAX {
                continue;
            }
            let base = splitmix64(self.seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            let mut attempt = 1u64;
            *bin = loop {
                if attempt > DENSIFY_MAX_ATTEMPTS {
                    let j = non_empty[fastrange(base, non_empty.len())] as usize;
                    break filled[j];
                }
                let j = fastrange(splitmix64(base ^ attempt), k);
                if filled[j] != u64::MAX {
                    break filled[j];
                }
                attempt += 1;
            };
        }
    }
}

impl Default for MinHasher {
    fn default() -> Self {
        Self::new(DEFAULT_NUM_HASHES, 0x5EED_CAFE)
    }
}

/// Cap on per-bin densification probes before falling back to a direct
/// pick from the non-empty bin list.
const DENSIFY_MAX_ATTEMPTS: u64 = 4;

/// Map a uniform 64-bit value into `[0, n)` without modulo bias
/// (Lemire's fastrange).
#[inline]
fn fastrange(x: u64, n: usize) -> usize {
    ((x as u128 * n as u128) >> 64) as usize
}

/// A MinHash signature plus the exact cardinality of the summarized set.
///
/// Note: callers are expected to deduplicate items before calling
/// [`MinHasher::signature`]; CMDL always sketches *distinct* term/value sets,
/// so the stored cardinality is the distinct count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinHash {
    values: Vec<u64>,
    cardinality: usize,
}

impl MinHash {
    /// The raw signature values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of hash permutations in this signature.
    pub fn num_hashes(&self) -> usize {
        self.values.len()
    }

    /// Exact cardinality of the summarized set.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// Is this the signature of an empty set?
    pub fn is_empty(&self) -> bool {
        self.cardinality == 0
    }

    /// Estimate the Jaccard similarity with another signature.
    ///
    /// # Panics
    /// Panics if the signatures have different lengths (they must come from
    /// the same [`MinHasher`]).
    pub fn jaccard(&self, other: &MinHash) -> f64 {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "MinHash signatures must have the same length"
        );
        if self.is_empty() && other.is_empty() {
            return 0.0;
        }
        let matches = self
            .values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a == b)
            .count();
        matches as f64 / self.values.len() as f64
    }

    /// Estimate the set containment of `self` in `other`: `|A ∩ B| / |A|`.
    ///
    /// Uses the standard conversion from a Jaccard estimate `j` and the exact
    /// cardinalities `|A|`, `|B|`:
    /// `|A ∩ B| ≈ j·(|A|+|B|) / (1+j)`, so containment `≈ j·(|A|+|B|) / ((1+j)·|A|)`.
    /// The result is clamped to `[0, 1]`.
    pub fn containment_in(&self, other: &MinHash) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let j = self.jaccard(other);
        let a = self.cardinality as f64;
        let b = other.cardinality as f64;
        let inter = j * (a + b) / (1.0 + j);
        (inter / a).clamp(0.0, 1.0)
    }

    /// Merge with another signature, producing the signature of the union of
    /// the two underlying sets. The stored cardinality becomes an upper bound
    /// (sum) because exact union cardinality is unknown.
    ///
    /// Exact for [`SketchScheme::Classic`] signatures. For
    /// [`SketchScheme::OnePermutation`] signatures the result is an
    /// approximation: densified positions carry borrowed values, so the
    /// element-wise minimum can differ from the union's own densified
    /// signature in bins that were empty on one side.
    pub fn union(&self, other: &MinHash) -> MinHash {
        assert_eq!(self.values.len(), other.values.len());
        let values = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| *a.min(b))
            .collect();
        MinHash {
            values,
            cardinality: self.cardinality + other.cardinality,
        }
    }
}

/// SplitMix64 — a fast, well-distributed 64-bit mixer.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte slice.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn set(range: std::ops::Range<u32>) -> BTreeSet<String> {
        range.map(|i| format!("item{i}")).collect()
    }

    #[test]
    fn identical_sets_have_jaccard_one() {
        let h = MinHasher::new(64, 1);
        let a = h.signature(set(0..100).iter());
        let b = h.signature(set(0..100).iter());
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sets_have_low_jaccard() {
        let h = MinHasher::new(256, 2);
        let a = h.signature(set(0..200).iter());
        let b = h.signature(set(1000..1200).iter());
        assert!(a.jaccard(&b) < 0.05);
    }

    #[test]
    fn jaccard_estimate_close_to_exact() {
        let h = MinHasher::new(512, 3);
        // |A|=100, |B|=100, overlap 50 -> Jaccard = 50/150 = 1/3.
        let a = h.signature(set(0..100).iter());
        let b = h.signature(set(50..150).iter());
        let est = a.jaccard(&b);
        assert!(
            (est - 1.0 / 3.0).abs() < 0.08,
            "estimate {est} too far from 1/3"
        );
    }

    #[test]
    fn containment_of_subset_is_high() {
        let h = MinHasher::new(512, 4);
        let small = h.signature(set(0..20).iter());
        let large = h.signature(set(0..400).iter());
        let c = small.containment_in(&large);
        assert!(
            c > 0.8,
            "containment of a true subset should be close to 1, got {c}"
        );
        let reverse = large.containment_in(&small);
        assert!(
            reverse < 0.2,
            "reverse containment should be small, got {reverse}"
        );
    }

    #[test]
    fn empty_signature_behaviour() {
        let h = MinHasher::new(16, 5);
        let empty = h.signature(Vec::<String>::new());
        let full = h.signature(set(0..10).iter());
        assert!(empty.is_empty());
        assert_eq!(empty.containment_in(&full), 0.0);
        assert_eq!(empty.jaccard(&empty), 0.0);
    }

    #[test]
    fn union_signature_matches_union_set() {
        let h = MinHasher::new(256, 6);
        let a = h.signature(set(0..50).iter());
        let b = h.signature(set(50..100).iter());
        let u = a.union(&b);
        let direct = h.signature(set(0..100).iter());
        assert!((u.jaccard(&direct) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_instances() {
        let h1 = MinHasher::new(64, 42);
        let h2 = MinHasher::new(64, 42);
        let a = h1.signature(["drug", "enzyme"]);
        let b = h2.signature(["drug", "enzyme"]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let a = MinHasher::new(16, 1).signature(["x"]);
        let b = MinHasher::new(32, 1).signature(["x"]);
        let _ = a.jaccard(&b);
    }

    #[test]
    fn serde_roundtrip() {
        let h = MinHasher::new(32, 9);
        let sig = h.signature(["alpha", "beta"]);
        let json = serde_json::to_string(&sig).unwrap();
        let back: MinHash = serde_json::from_str(&json).unwrap();
        assert_eq!(sig, back);
    }

    #[test]
    fn hasher_serde_roundtrip_preserves_scheme() {
        let h = MinHasher::one_permutation(64, 3);
        let json = serde_json::to_string(&h).unwrap();
        let back: MinHasher = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scheme(), SketchScheme::OnePermutation);
        assert_eq!(back.signature(["x", "y"]), h.signature(["x", "y"]));
    }

    #[test]
    fn oph_identical_sets_have_jaccard_one() {
        let h = MinHasher::one_permutation(64, 1);
        let a = h.signature(set(0..100).iter());
        let b = h.signature(set(0..100).iter());
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oph_disjoint_sets_have_low_jaccard() {
        let h = MinHasher::one_permutation(256, 2);
        let a = h.signature(set(0..200).iter());
        let b = h.signature(set(1000..1200).iter());
        assert!(a.jaccard(&b) < 0.05);
    }

    #[test]
    fn oph_jaccard_estimate_close_to_exact() {
        let h = MinHasher::one_permutation(512, 3);
        let a = h.signature(set(0..100).iter());
        let b = h.signature(set(50..150).iter());
        let est = a.jaccard(&b);
        assert!(
            (est - 1.0 / 3.0).abs() < 0.08,
            "estimate {est} too far from 1/3"
        );
    }

    #[test]
    fn oph_containment_of_subset_is_high() {
        let h = MinHasher::one_permutation(512, 4);
        let small = h.signature(set(0..20).iter());
        let large = h.signature(set(0..400).iter());
        let c = small.containment_in(&large);
        assert!(
            c > 0.8,
            "containment of a true subset should be close to 1, got {c}"
        );
        let reverse = large.containment_in(&small);
        assert!(
            reverse < 0.2,
            "reverse containment should be small, got {reverse}"
        );
    }

    #[test]
    fn oph_empty_signature_behaviour() {
        let h = MinHasher::one_permutation(16, 5);
        let empty = h.signature(Vec::<String>::new());
        let full = h.signature(set(0..10).iter());
        assert!(empty.is_empty());
        assert_eq!(empty.containment_in(&full), 0.0);
        assert_eq!(empty.jaccard(&empty), 0.0);
        // A non-empty signature is fully densified: no MAX sentinels remain.
        assert!(full.values().iter().all(|&v| v != u64::MAX));
    }

    #[test]
    fn oph_densification_is_consistent_across_sets() {
        // Sparse sets (fewer items than bins) rely on densification; two
        // identical sparse sets must still agree on every position.
        let h = MinHasher::one_permutation(256, 6);
        let a = h.signature(set(0..5).iter());
        let b = h.signature(set(0..5).iter());
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oph_deterministic_across_instances() {
        let h1 = MinHasher::one_permutation(64, 42);
        let h2 = MinHasher::one_permutation(64, 42);
        assert_eq!(
            h1.signature(["drug", "enzyme"]),
            h2.signature(["drug", "enzyme"])
        );
    }

    #[test]
    fn oph_agrees_with_classic_estimates() {
        // The two schemes are different estimators of the same quantity;
        // with 512 hashes they should land close together.
        let classic = MinHasher::new(512, 7);
        let oph = MinHasher::one_permutation(512, 7);
        for (a_range, b_range) in [(0..300, 150..450), (0..50, 25..400), (0..80, 80..160)] {
            let exact = {
                let sa = set(a_range.clone());
                let sb = set(b_range.clone());
                let inter = sa.intersection(&sb).count() as f64;
                let union = sa.union(&sb).count() as f64;
                inter / union
            };
            let jc = classic
                .signature(set(a_range.clone()).iter())
                .jaccard(&classic.signature(set(b_range.clone()).iter()));
            let jo = oph
                .signature(set(a_range).iter())
                .jaccard(&oph.signature(set(b_range).iter()));
            assert!((jc - exact).abs() < 0.08, "classic {jc} vs exact {exact}");
            assert!((jo - exact).abs() < 0.08, "oph {jo} vs exact {exact}");
        }
    }
}
