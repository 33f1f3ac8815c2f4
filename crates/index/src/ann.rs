//! Approximate nearest-neighbour search over dense vectors.
//!
//! CMDL indexes solo and joint embeddings with an Annoy-style structure
//! (paper Section 3, "Indexing Profiler-Generated Sketches"). [`AnnIndex`]
//! implements the same algorithmic family: a forest of random-projection
//! trees. Each tree recursively splits the point set by a random hyperplane
//! through two sampled points; queries descend each tree, gather candidate
//! leaves, and rank candidates exactly by cosine similarity. A
//! [`BruteForceIndex`] provides the exact reference used in tests and for
//! small collections.
//!
//! ## Storage layout
//!
//! Vectors live in a contiguous row-major [`EmbeddingStore`] (norms
//! precomputed at insert time), so ranking a candidate run is a streak of
//! cache-local dot products. With
//! [`AnnIndexConfig::quantize`] the store keeps an `i8` scalar-quantized
//! mirror: candidate ranking then *pre-ranks* with the cheap integer
//! kernel, keeps `top_k × rerank_factor` survivors, and reranks those
//! exactly in `f32` — with a wide-enough rerank pool the returned top-k is
//! identical to the pure-`f32` scan (asserted by the parity tests on the
//! bench lake).
//!
//! ## Incremental maintenance
//!
//! Vectors added after [`build`](AnnIndex::build) land in a *delta tail*
//! that queries scan exactly (every delta vector is a candidate), so the
//! forest keeps serving without a rebuild while the tail stays small.
//! [`remove`](AnnIndex::remove) tombstones a vector in place, and
//! [`compact`](AnnIndex::compact) drops tombstoned vectors, folds the delta
//! tail into the forest, and rebuilds the trees.

use std::cell::RefCell;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use cmdl_nn::{dot_f32, norm_f32};

use crate::embedding_store::EmbeddingStore;
use crate::topk::TopK;

/// Cosine similarity between two equal-length vectors (0 when either is a
/// zero vector; panics on a length mismatch — the old implementation
/// silently truncated). Chunked 8-lane kernels, auto-vectorized; the denominator
/// is `sqrt(|a|²·|b|²)` in `f64`, which keeps the self-similarity of a
/// vector exactly `1.0` (callers compare against sharp thresholds).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    cosine_with_self_dots(a, b, dot_f32(a, a), dot_f32(b, b))
}

/// [`cosine_similarity`] with the operands' self-dots (`dot(a, a)`,
/// `dot(b, b)`) supplied by the caller — bit-identical when they were
/// computed with the same kernel, so an index can store each vector's
/// self-dot once.
pub fn cosine_with_self_dots(a: &[f32], b: &[f32], aa: f32, bb: f32) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if aa == 0.0 || bb == 0.0 {
        0.0
    } else {
        f64::from(dot_f32(a, b)) / (f64::from(aa) * f64::from(bb)).sqrt()
    }
}

/// Configuration for [`AnnIndex`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnnIndexConfig {
    /// Number of random-projection trees. More trees → better recall, more
    /// memory. Default 10.
    pub num_trees: usize,
    /// Maximum number of points in a leaf. Default 16.
    pub leaf_size: usize,
    /// RNG seed for reproducible tree construction.
    pub seed: u64,
    /// Keep an `i8` scalar-quantized mirror and pre-rank candidates with it
    /// before the exact `f32` rerank. Default off (pure `f32` scoring).
    pub quantize: bool,
    /// Rerank pool size as a multiple of `top_k` when `quantize` is on.
    /// Default 4.
    pub rerank_factor: usize,
}

impl Default for AnnIndexConfig {
    fn default() -> Self {
        Self {
            num_trees: 10,
            leaf_size: 16,
            seed: 0xA11CE,
            quantize: false,
            rerank_factor: 4,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        items: Vec<usize>,
    },
    Split {
        /// Hyperplane normal.
        normal: Vec<f32>,
        /// Offset along the normal.
        offset: f32,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Tree {
    nodes: Vec<Node>,
    root: usize,
}

thread_local! {
    /// Reusable per-thread query scratch: a seen-bitmap (cleared back to
    /// zero after every query), the deduplicated candidate list, and the
    /// quantized-query buffer. `execute_many`'s rayon workers each reuse
    /// their own copy, so batched serving allocates nothing here in steady
    /// state.
    static QUERY_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::default());
}

#[derive(Default)]
struct QueryScratch {
    /// One bit per vector position ("already a candidate").
    seen: Vec<u64>,
    candidates: Vec<usize>,
    quantized_query: Vec<i8>,
}

/// A forest of random-projection trees for approximate nearest-neighbour
/// search under cosine similarity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnnIndex {
    config: AnnIndexConfig,
    ids: Vec<u64>,
    /// Indexed vectors: contiguous row-major storage with precomputed
    /// norms (and the optional `i8` mirror).
    vectors: EmbeddingStore,
    dim: usize,
    trees: Vec<Tree>,
    built: bool,
    /// Number of leading vectors covered by the built forest; vectors at
    /// positions `built_len..` form the exactly-scanned delta tail.
    built_len: usize,
    /// Tombstone flags by position (`true` = removed). May be shorter than
    /// `ids` (older entries are implicitly live).
    dead: Vec<bool>,
    /// Number of tombstoned vectors.
    num_dead: usize,
    /// External id → position, for removal. Rebuilt lazily after
    /// deserialization.
    #[serde(skip)]
    id_to_pos: std::collections::HashMap<u64, u32>,
}

impl AnnIndex {
    /// Create an empty index for vectors of dimension `dim`.
    pub fn new(dim: usize, config: AnnIndexConfig) -> Self {
        let vectors = EmbeddingStore::new(dim, config.quantize);
        Self {
            config,
            ids: Vec::new(),
            vectors,
            dim,
            trees: Vec::new(),
            built: false,
            built_len: 0,
            dead: Vec::new(),
            num_dead: 0,
            id_to_pos: std::collections::HashMap::new(),
        }
    }

    /// Create an index with default configuration.
    pub fn with_defaults(dim: usize) -> Self {
        Self::new(dim, AnnIndexConfig::default())
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of live (non-tombstoned) vectors.
    pub fn len(&self) -> usize {
        self.ids.len() - self.num_dead
    }

    /// Is the index empty (of live vectors)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live vectors in the exactly-scanned delta tail (a
    /// tombstoned tail vector is counted by
    /// [`num_tombstoned`](Self::num_tombstoned) only, so the two never
    /// double-count).
    pub fn num_delta(&self) -> usize {
        (self.built_len..self.ids.len())
            .filter(|&pos| !self.is_dead(pos))
            .count()
    }

    /// Number of tombstoned vectors awaiting [`compact`](Self::compact).
    pub fn num_tombstoned(&self) -> usize {
        self.num_dead
    }

    /// Is the vector at `pos` tombstoned?
    #[inline]
    fn is_dead(&self, pos: usize) -> bool {
        self.dead.get(pos).copied().unwrap_or(false)
    }

    /// Add a vector under `id` (copied into the contiguous store).
    ///
    /// Before the first [`build`](Self::build) the index serves queries by
    /// brute force. After a build, added vectors join the delta tail: the
    /// forest keeps serving and the tail is scanned exactly, so no rebuild
    /// is needed until [`compact`](Self::compact).
    ///
    /// # Panics
    /// Panics if the vector dimension does not match the index dimension.
    pub fn add(&mut self, id: u64, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        self.ensure_id_map();
        self.id_to_pos.insert(id, self.ids.len() as u32);
        self.ids.push(id);
        self.vectors.push(vector);
    }

    /// Tombstone the vector indexed under `id`. Returns `false` if the id is
    /// unknown (or already removed).
    pub fn remove(&mut self, id: u64) -> bool {
        self.ensure_id_map();
        let Some(pos) = self.id_to_pos.remove(&id) else {
            return false;
        };
        let pos = pos as usize;
        if self.dead.len() <= pos {
            self.dead.resize(self.ids.len(), false);
        }
        if self.dead[pos] {
            return false;
        }
        self.dead[pos] = true;
        self.num_dead += 1;
        true
    }

    fn ensure_id_map(&mut self) {
        if self.id_to_pos.is_empty() && !self.ids.is_empty() {
            self.id_to_pos = self
                .ids
                .iter()
                .enumerate()
                .filter(|&(pos, _)| !self.dead.get(pos).copied().unwrap_or(false))
                .map(|(pos, &id)| (id, pos as u32))
                .collect();
        }
    }

    /// Build the random-projection forest over the live vectors.
    pub fn build(&mut self) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        self.trees = (0..self.config.num_trees.max(1))
            .map(|_| self.build_tree(&mut rng))
            .collect();
        self.built = true;
        self.built_len = self.ids.len();
    }

    /// Drop tombstoned vectors, fold the delta tail into the forest, and
    /// rebuild the trees.
    pub fn compact(&mut self) {
        if self.num_dead > 0 {
            let mut ids = Vec::with_capacity(self.len());
            let mut vectors = EmbeddingStore::new(self.dim, self.config.quantize);
            for pos in 0..self.ids.len() {
                if !self.is_dead(pos) {
                    ids.push(self.ids[pos]);
                    vectors.push(self.vectors.row(pos));
                }
            }
            self.ids = ids;
            self.vectors = vectors;
            self.dead.clear();
            self.num_dead = 0;
            self.id_to_pos.clear();
            self.ensure_id_map();
        }
        self.build();
    }

    /// Has the forest been built (the delta tail may still be non-empty)?
    pub fn is_built(&self) -> bool {
        self.built
    }

    fn build_tree(&self, rng: &mut ChaCha8Rng) -> Tree {
        let mut nodes = Vec::new();
        let all: Vec<usize> = (0..self.vectors.len())
            .filter(|&i| !self.is_dead(i))
            .collect();
        let root = self.build_node(&all, rng, &mut nodes, 0);
        Tree { nodes, root }
    }

    fn build_node(
        &self,
        items: &[usize],
        rng: &mut ChaCha8Rng,
        nodes: &mut Vec<Node>,
        depth: usize,
    ) -> usize {
        if items.len() <= self.config.leaf_size || depth > 40 {
            nodes.push(Node::Leaf {
                items: items.to_vec(),
            });
            return nodes.len() - 1;
        }
        // Pick two distinct points and split by the perpendicular bisector of
        // the segment between them (Annoy's strategy).
        let a = *items.choose(rng).expect("non-empty");
        let b = loop {
            let cand = *items.choose(rng).expect("non-empty");
            if cand != a || items.iter().all(|&i| i == a) {
                break cand;
            }
        };
        let va: &[f32] = self.vectors.row(a);
        let vb: &[f32] = self.vectors.row(b);
        let mut normal: Vec<f32> = va.iter().zip(vb).map(|(x, y)| x - y).collect();
        let norm: f32 = norm_f32(&normal);
        if norm < 1e-12 {
            // Degenerate split (identical points): random hyperplane.
            for n in normal.iter_mut() {
                *n = rng.gen_range(-1.0..1.0);
            }
        }
        let midpoint: Vec<f32> = va.iter().zip(vb).map(|(x, y)| (x + y) / 2.0).collect();
        let offset: f32 = dot_f32(&normal, &midpoint);

        let mut left = Vec::new();
        let mut right = Vec::new();
        for &i in items {
            let side: f32 = dot_f32(&normal, self.vectors.row(i));
            if side < offset {
                left.push(i);
            } else {
                right.push(i);
            }
        }
        // Guard against degenerate splits that would not reduce the set.
        if left.is_empty() || right.is_empty() {
            nodes.push(Node::Leaf {
                items: items.to_vec(),
            });
            return nodes.len() - 1;
        }
        let left_idx = self.build_node(&left, rng, nodes, depth + 1);
        let right_idx = self.build_node(&right, rng, nodes, depth + 1);
        nodes.push(Node::Split {
            normal,
            offset,
            left: left_idx,
            right: right_idx,
        });
        nodes.len() - 1
    }

    /// Query for the `top_k` most cosine-similar vectors. Returns
    /// `(id, similarity)` sorted descending. Falls back to brute force when
    /// the forest has not been built; vectors in the delta tail are always
    /// scanned exactly.
    pub fn query(&self, vector: &[f32], top_k: usize) -> Vec<(u64, f64)> {
        assert_eq!(vector.len(), self.dim, "query dimension mismatch");
        QUERY_SCRATCH.with_borrow_mut(|scratch| {
            scratch.candidates.clear();
            if !self.built || self.trees.is_empty() {
                // Exhaustive scan: every live row is a candidate, so use
                // the full-scan scorers (no per-row index arithmetic).
                if self.dim > 0 {
                    return self.rank_all(vector, top_k, &mut scratch.quantized_query);
                }
                scratch.candidates.extend(0..self.ids.len());
            } else {
                let words = self.ids.len().div_ceil(64);
                if scratch.seen.len() < words {
                    scratch.seen.resize(words, 0);
                }
                for tree in &self.trees {
                    self.collect_candidates(tree, tree.root, vector, scratch);
                }
                // The delta tail is not in any tree: every live tail vector
                // is a candidate, keeping post-build inserts exact. (Tail
                // positions cannot appear in tree leaves, so no dedup is
                // needed against the bitmap.)
                scratch.candidates.extend(self.built_len..self.ids.len());
                // Restore the all-zeros bitmap invariant for the next query.
                for &pos in &scratch.candidates {
                    if pos < self.built_len {
                        scratch.seen[pos / 64] &= !(1u64 << (pos % 64));
                    }
                }
            }
            self.rank_candidates(
                &scratch.candidates,
                vector,
                top_k,
                &mut scratch.quantized_query,
            )
        })
    }

    /// Rank *every* stored vector (the exhaustive/brute-force path) with
    /// the streaming full-scan scorers: same pre-rank/rerank policy as
    /// [`Self::rank_candidates`], but the hot loop walks the matrix with
    /// `chunks_exact` instead of per-row index arithmetic.
    fn rank_all(
        &self,
        vector: &[f32],
        top_k: usize,
        quantized_query: &mut Vec<i8>,
    ) -> Vec<(u64, f64)> {
        let inv_qnorm = EmbeddingStore::inv_query_norm(vector);
        let pool = top_k.saturating_mul(self.config.rerank_factor.max(1));
        if pool < self.vectors.len() {
            if let Some(q_scale) = self.vectors.quantize_query(vector, quantized_query) {
                let q_factor = q_scale * inv_qnorm;
                let scorer = self
                    .vectors
                    .quantized_scorer()
                    .expect("quantize_query succeeded");
                let mut pre = TopK::new(pool);
                if self.num_dead == 0 {
                    for (pos, score) in scorer.approx_cosines(quantized_query, q_factor).enumerate()
                    {
                        if pre.would_accept(score) {
                            pre.push(pos as u64, score);
                        }
                    }
                } else {
                    for (pos, score) in scorer.approx_cosines(quantized_query, q_factor).enumerate()
                    {
                        if !self.is_dead(pos) && pre.would_accept(score) {
                            pre.push(pos as u64, score);
                        }
                    }
                }
                let mut tk = TopK::new(top_k);
                for (pos, _) in pre.into_sorted_vec() {
                    let pos = pos as usize;
                    tk.push(self.ids[pos], self.vectors.cosine(pos, vector, inv_qnorm));
                }
                return tk.into_sorted_vec();
            }
        }
        let mut tk = TopK::new(top_k);
        if self.num_dead == 0 {
            for (pos, score) in self.vectors.cosines(vector, inv_qnorm).enumerate() {
                if tk.would_accept(score) {
                    tk.push(self.ids[pos], score);
                }
            }
        } else {
            for (pos, score) in self.vectors.cosines(vector, inv_qnorm).enumerate() {
                if !self.is_dead(pos) && tk.would_accept(score) {
                    tk.push(self.ids[pos], score);
                }
            }
        }
        tk.into_sorted_vec()
    }

    /// Rank deduplicated candidate positions: quantized pre-rank + exact
    /// rerank when the store keeps an `i8` mirror (and the pool is actually
    /// smaller than the candidate set), pure `f32` scoring otherwise.
    fn rank_candidates(
        &self,
        candidates: &[usize],
        vector: &[f32],
        top_k: usize,
        quantized_query: &mut Vec<i8>,
    ) -> Vec<(u64, f64)> {
        let inv_qnorm = EmbeddingStore::inv_query_norm(vector);
        let pool = top_k.saturating_mul(self.config.rerank_factor.max(1));
        if pool < candidates.len() {
            if let Some(q_scale) = self.vectors.quantize_query(vector, quantized_query) {
                // Pre-rank every candidate with the integer kernel, keeping
                // a pool of `top_k * rerank_factor` positions...
                let q_factor = q_scale * inv_qnorm;
                let scorer = self
                    .vectors
                    .quantized_scorer()
                    .expect("quantize_query succeeded");
                let mut pre = TopK::new(pool);
                for &pos in candidates {
                    if !self.is_dead(pos) {
                        let score = scorer.approx_cosine(pos, quantized_query, q_factor);
                        if pre.would_accept(score) {
                            pre.push(pos as u64, score);
                        }
                    }
                }
                // ...then rerank the pool exactly in f32.
                let mut tk = TopK::new(top_k);
                for (pos, _) in pre.into_sorted_vec() {
                    let pos = pos as usize;
                    tk.push(self.ids[pos], self.vectors.cosine(pos, vector, inv_qnorm));
                }
                return tk.into_sorted_vec();
            }
        }
        let mut tk = TopK::new(top_k);
        for &pos in candidates {
            if !self.is_dead(pos) {
                let score = self.vectors.cosine(pos, vector, inv_qnorm);
                if tk.would_accept(score) {
                    tk.push(self.ids[pos], score);
                }
            }
        }
        tk.into_sorted_vec()
    }

    fn collect_candidates(
        &self,
        tree: &Tree,
        node: usize,
        vector: &[f32],
        scratch: &mut QueryScratch,
    ) {
        match &tree.nodes[node] {
            Node::Leaf { items } => {
                for &pos in items {
                    let (word, bit) = (pos / 64, 1u64 << (pos % 64));
                    if scratch.seen[word] & bit == 0 {
                        scratch.seen[word] |= bit;
                        scratch.candidates.push(pos);
                    }
                }
            }
            Node::Split {
                normal,
                offset,
                left,
                right,
            } => {
                let side: f32 = dot_f32(normal, vector);
                if side < *offset {
                    self.collect_candidates(tree, *left, vector, scratch);
                } else {
                    self.collect_candidates(tree, *right, vector, scratch);
                }
            }
        }
    }
}

/// An exact nearest-neighbour index (linear scan) used as reference and for
/// small collections.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BruteForceIndex {
    ids: Vec<u64>,
    vectors: Vec<Vec<f32>>,
}

impl BruteForceIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Add a vector under `id`.
    pub fn add(&mut self, id: u64, vector: Vec<f32>) {
        self.ids.push(id);
        self.vectors.push(vector);
    }

    /// Exact top-k query by cosine similarity.
    pub fn query(&self, vector: &[f32], top_k: usize) -> Vec<(u64, f64)> {
        let mut tk = TopK::new(top_k);
        for (i, v) in self.vectors.iter().enumerate() {
            if v.len() == vector.len() {
                tk.push(self.ids[i], cosine_similarity(vector, v));
            }
        }
        tk.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dim: usize, hot: usize) -> Vec<f32> {
        let mut v = vec![0.0; dim];
        v[hot] = 1.0;
        v
    }

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-9);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-9);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn exact_neighbour_found() {
        let mut idx = AnnIndex::with_defaults(8);
        for i in 0..8u64 {
            idx.add(i, &unit(8, i as usize));
        }
        idx.build();
        let res = idx.query(&unit(8, 3), 1);
        assert_eq!(res[0].0, 3);
        assert!((res[0].1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ann_recall_reasonable() {
        let dim = 16;
        let vectors = random_vectors(500, dim, 99);
        let mut ann = AnnIndex::new(
            dim,
            AnnIndexConfig {
                num_trees: 15,
                leaf_size: 10,
                seed: 7,
                ..AnnIndexConfig::default()
            },
        );
        let mut exact = BruteForceIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            ann.add(i as u64, v);
            exact.add(i as u64, v.clone());
        }
        ann.build();
        let queries = random_vectors(20, dim, 123);
        let mut hits = 0;
        let mut total = 0;
        for q in &queries {
            let truth: std::collections::HashSet<u64> =
                exact.query(q, 10).into_iter().map(|(id, _)| id).collect();
            let approx = ann.query(q, 10);
            total += truth.len();
            hits += approx.iter().filter(|(id, _)| truth.contains(id)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.5, "ANN recall@10 too low: {recall}");
    }

    #[test]
    fn unbuilt_index_falls_back_to_exact() {
        let mut idx = AnnIndex::with_defaults(4);
        idx.add(1, &unit(4, 0));
        idx.add(2, &unit(4, 1));
        let res = idx.query(&unit(4, 1), 1);
        assert_eq!(res[0].0, 2);
    }

    #[test]
    fn empty_index_query() {
        let mut idx = AnnIndex::with_defaults(4);
        idx.build();
        assert!(idx.query(&unit(4, 0), 3).is_empty());
    }

    #[test]
    fn duplicate_vectors_handled() {
        let mut idx = AnnIndex::with_defaults(4);
        for i in 0..50u64 {
            idx.add(i, &unit(4, 0));
        }
        idx.build();
        let res = idx.query(&unit(4, 0), 5);
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn delta_tail_is_exact_after_build() {
        let mut idx = AnnIndex::with_defaults(8);
        for i in 0..6u64 {
            idx.add(i, &unit(8, i as usize));
        }
        idx.build();
        // Post-build inserts are served exactly without a rebuild.
        idx.add(7, &unit(8, 7));
        assert!(idx.is_built());
        assert_eq!(idx.num_delta(), 1);
        let res = idx.query(&unit(8, 7), 1);
        assert_eq!(res[0].0, 7);
        assert!((res[0].1 - 1.0).abs() < 1e-6);
        // Compact folds the tail into the forest.
        idx.compact();
        assert_eq!(idx.num_delta(), 0);
        assert_eq!(idx.query(&unit(8, 7), 1)[0].0, 7);
    }

    #[test]
    fn remove_tombstones_until_compact() {
        let mut idx = AnnIndex::with_defaults(4);
        idx.add(1, &unit(4, 0));
        idx.add(2, &unit(4, 1));
        idx.add(3, &unit(4, 2));
        idx.build();
        assert!(idx.remove(2));
        assert!(!idx.remove(2));
        assert!(!idx.remove(99));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.num_tombstoned(), 1);
        let res = idx.query(&unit(4, 1), 3);
        assert!(!res.iter().any(|(id, _)| *id == 2));
        idx.compact();
        assert_eq!(idx.num_tombstoned(), 0);
        assert_eq!(idx.len(), 2);
        assert!(!idx.query(&unit(4, 1), 3).iter().any(|(id, _)| *id == 2));
    }

    #[test]
    fn serde_roundtrip_preserves_delta_state() {
        let mut idx = AnnIndex::with_defaults(4);
        idx.add(1, &unit(4, 0));
        idx.add(2, &unit(4, 1));
        idx.build();
        idx.add(3, &unit(4, 2));
        idx.remove(1);
        let json = serde_json::to_string(&idx).unwrap();
        let mut back: AnnIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.num_delta(), 1);
        assert!(!back.query(&unit(4, 0), 3).iter().any(|(id, _)| *id == 1));
        assert_eq!(back.query(&unit(4, 2), 1)[0].0, 3);
        // The id map is rebuilt lazily: removing after a roundtrip works.
        assert!(back.remove(3));
        assert!(back.query(&unit(4, 2), 3).iter().all(|(id, _)| *id != 3));
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let mut idx = AnnIndex::with_defaults(4);
        idx.add(1, &[0.0; 3]);
    }

    #[test]
    fn brute_force_ordering() {
        let mut idx = BruteForceIndex::new();
        idx.add(1, vec![1.0, 0.0]);
        idx.add(2, vec![0.9, 0.1]);
        idx.add(3, vec![0.0, 1.0]);
        let res = idx.query(&[1.0, 0.0], 3);
        assert_eq!(res[0].0, 1);
        assert_eq!(res[2].0, 3);
    }

    #[test]
    fn quantized_prerank_matches_exact_on_random_vectors() {
        let dim = 32;
        let vectors = random_vectors(400, dim, 21);
        let mut exact = AnnIndex::new(
            dim,
            AnnIndexConfig {
                num_trees: 8,
                seed: 5,
                ..AnnIndexConfig::default()
            },
        );
        let mut quantized = AnnIndex::new(
            dim,
            AnnIndexConfig {
                num_trees: 8,
                seed: 5,
                quantize: true,
                rerank_factor: 4,
                ..AnnIndexConfig::default()
            },
        );
        for (i, v) in vectors.iter().enumerate() {
            exact.add(i as u64, v);
            quantized.add(i as u64, v);
        }
        exact.build();
        quantized.build();
        for q in random_vectors(25, dim, 77) {
            let a = exact.query(&q, 10);
            let b = quantized.query(&q, 10);
            assert_eq!(a, b, "i8 pre-rank + f32 rerank must match pure f32");
        }
        // Tombstones and the delta tail go through the same rank path.
        assert!(exact.remove(3) && quantized.remove(3));
        exact.add(1000, &vectors[0]);
        quantized.add(1000, &vectors[0]);
        for q in random_vectors(10, dim, 78) {
            assert_eq!(exact.query(&q, 7), quantized.query(&q, 7));
        }
    }
}
