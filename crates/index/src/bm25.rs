//! In-memory inverted index with BM25 and LM-Dirichlet ranking.
//!
//! This index plays the role of the Elastic Search / BM25 engine in the
//! paper: it is built over the bag-of-words content and over the metadata of
//! every discoverable element, serves keyword-search queries, acts as the
//! keyword-based labeling functions in the weak-supervision framework, and is
//! one of the baselines in the Doc→Table evaluation (Figure 6, labels
//! "Elastic-BM25", "Elastic-LMDirichlet", "Elastic BM25-Content Only",
//! "Elastic BM25-Schema Only").
//!
//! ## Layout
//!
//! Terms are interned to dense `u32` ids and postings reference documents by
//! a dense `u32` index (the external `u64` id is resolved only when a result
//! is emitted). The finalized portion of every posting list lives in **one
//! contiguous arena** (`Vec<Posting>`) addressed by per-term
//! `(offset, len)` spans — a query walks flat cache-local memory instead of
//! chasing one heap allocation per term. Each arena span additionally
//! carries **per-`BLOCK_POSTINGS`-posting block metadata**: the Pareto
//! frontier of the block's `(term_freq, doc_length)` pairs. Every
//! supported scoring function is monotone increasing in term frequency and
//! non-increasing in document length, so the frontier maximum — evaluated
//! at query time with the *current* IDF, average document length, and
//! scoring parameters — is the exact block-max impact: as tight as a
//! precomputed impact score, yet still a correct bound under incremental
//! mutation, re-weighted parameters, and stale-IDF serving.
//!
//! The document-at-a-time scan uses those bounds for Block-Max-WAND-style
//! skipping: once the top-k heap is full, whenever the sum of every
//! cursor's current block bound cannot beat the heap threshold, the scan
//! jumps all cursors past the earliest block boundary instead of scoring
//! the covered documents one by one. Pruning is *exact* — a skipped
//! document provably scores strictly below the threshold, so the returned
//! top-k (ids and scores) is bit-identical to the exhaustive scan.
//!
//! ## Incremental maintenance
//!
//! [`add`](InvertedIndex::add) appends postings to a small per-term *tail*
//! (dense doc indexes are append-only, so the arena-then-tail concatenation
//! stays sorted); [`finalize`](InvertedIndex::finalize) folds the tail into
//! the arena and recomputes block maxima. [`remove`](InvertedIndex::remove)
//! tombstones an element in place, and [`compact`](InvertedIndex::compact)
//! folds tombstones back into the dense layout, after which scores are
//! identical to a freshly built index over the surviving elements. Live
//! per-term document frequencies under tombstones are *memoized* per
//! mutation epoch (computed at most once per term between mutations)
//! instead of rescanning the posting list on every probe.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use cmdl_text::BagOfWords;

use crate::topk::TopK;

/// BM25 free parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bm25Params {
    /// Term-frequency saturation. Default 1.2.
    pub k1: f64,
    /// Length normalization. Default 0.75.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

/// Ranking function used by [`InvertedIndex::search`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScoringFunction {
    /// Okapi BM25 (the Elastic Search default the paper uses).
    Bm25(Bm25Params),
    /// Language model with Dirichlet smoothing (`mu` prior).
    LmDirichlet {
        /// Dirichlet prior; Elastic's default is 2000.
        mu: f64,
    },
}

impl Default for ScoringFunction {
    fn default() -> Self {
        ScoringFunction::Bm25(Bm25Params::default())
    }
}

/// Corpus-level statistics injected into
/// [`InvertedIndex::search_filtered_with_stats`] in place of the index's own.
///
/// A sharded deployment gathers these by *integer* summation across shards
/// (live document counts, live token counts, per-term live document
/// frequencies, raw per-term corpus frequencies), so the floating-point
/// values derived from them — BM25 IDF, the average document length, the
/// LM-Dirichlet background model — are bit-identical to what a single
/// unpartitioned index would compute from the same corpus.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    /// Live documents across the whole corpus ([`InvertedIndex::len`]).
    pub num_docs: usize,
    /// Live tokens across the whole corpus
    /// ([`InvertedIndex::live_total_length`]).
    pub total_length: u64,
    /// Live per-term document frequency ([`InvertedIndex::doc_freq`]),
    /// for the query's terms.
    pub doc_freq: HashMap<String, usize>,
    /// Raw per-term corpus frequency ([`InvertedIndex::term_total`]), for
    /// the query's terms.
    pub term_totals: HashMap<String, u64>,
}

impl CorpusStats {
    /// Average live document length, with the same arithmetic as
    /// [`InvertedIndex::avg_doc_length`] (subtract-free here because the
    /// inputs are already live totals).
    pub fn avg_doc_length(&self) -> f64 {
        if self.num_docs == 0 {
            0.0
        } else {
            self.total_length as f64 / self.num_docs as f64
        }
    }

    /// Fold one shard's statistics for `terms` into this accumulator.
    pub fn absorb(&mut self, index: &InvertedIndex, terms: &BagOfWords) {
        self.num_docs += index.len();
        self.total_length += index.live_total_length();
        for (term, _) in terms.iter() {
            let df = index.doc_freq(term);
            if df > 0 {
                *self.doc_freq.entry(term.to_string()).or_insert(0) += df;
            }
            let cf = index.term_total(term);
            if cf > 0 {
                *self.term_totals.entry(term.to_string()).or_insert(0) += cf;
            }
        }
    }
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Posting {
    /// Dense document index (position in `doc_ids` / `doc_lengths`).
    doc: u32,
    term_freq: u32,
}

/// Postings per block-max block. 128 packs a block into two cache lines
/// (8-byte postings) while keeping the per-block score bounds tight enough
/// to skip most of a common term's list once the top-k threshold is high.
const BLOCK_POSTINGS: usize = 128;

/// One term's span into the postings arena.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Span {
    /// First posting in the arena.
    offset: usize,
    /// Number of arena postings (the term's tail postings are *not*
    /// included).
    len: usize,
    /// First block in the block-metadata table.
    block_offset: usize,
}

impl Span {
    fn num_blocks(&self) -> usize {
        self.len.div_ceil(BLOCK_POSTINGS)
    }
}

/// One point of a block's `(term_freq, doc_length)` Pareto frontier.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct FrontierPoint {
    tf: u32,
    dl: u64,
}

/// Per-block metadata: the span of the block's Pareto frontier in the
/// shared frontier table. The frontier holds the block's postings that are
/// not dominated under (higher tf, lower dl); the maximum of any monotone
/// scoring function over the block is attained on it, so evaluating ≤
/// [`MAX_FRONTIER`] points yields the exact block-max impact.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct BlockMeta {
    frontier_offset: usize,
    frontier_len: u32,
}

/// Cap on stored frontier points per block; a longer frontier folds its
/// remainder into one conservative `(max remaining tf, min remaining dl)`
/// point (still a valid upper bound, marginally less tight).
const MAX_FRONTIER: usize = 8;

/// Append the Pareto frontier of `postings` (tf maximal, dl minimal) to
/// `out`, capped at [`MAX_FRONTIER`] points.
fn push_frontier(postings: &[Posting], doc_lengths: &[u64], out: &mut Vec<FrontierPoint>) {
    let mut pairs: Vec<(u32, u64)> = postings
        .iter()
        .map(|p| (p.term_freq, doc_lengths[p.doc as usize]))
        .collect();
    // Sort by tf descending, dl ascending; the frontier is the strictly
    // dl-decreasing prefix sweep.
    pairs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let start = out.len();
    let mut best_dl = u64::MAX;
    for &(tf, dl) in &pairs {
        if dl >= best_dl {
            continue;
        }
        if out.len() - start == MAX_FRONTIER {
            // Fold the remaining frontier into the last stored point:
            // `tf` is the largest remaining tf (descending order) and the
            // block-wide minimum dl dominates every remaining dl.
            let min_dl = pairs.iter().map(|&(_, dl)| dl).min().unwrap_or(dl);
            let last = out.last_mut().expect("cap > 0");
            *last = FrontierPoint {
                tf: last.tf.max(tf),
                dl: last.dl.min(min_dl),
            };
            break;
        }
        out.push(FrontierPoint { tf, dl });
        best_dl = dl;
    }
}

/// Per-term live-document-frequency memo, valid for one mutation epoch.
#[derive(Debug, Default)]
struct DfMemo {
    epoch: u64,
    df: HashMap<u32, usize>,
}

/// An inverted index over bag-of-words elements keyed by opaque `u64` ids.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct InvertedIndex {
    /// Term → dense term id.
    term_ids: HashMap<String, u32>,
    /// The contiguous posting arena: every term's finalized postings,
    /// term-major, each span sorted by dense doc index.
    arena: Vec<Posting>,
    /// Per-term span into `arena` / `blocks`.
    spans: Vec<Span>,
    /// Per-block frontier spans for the arena, term-major (see
    /// [`Span::block_offset`]).
    blocks: Vec<BlockMeta>,
    /// The shared Pareto-frontier table the blocks index into.
    frontier: Vec<FrontierPoint>,
    /// Per-term postings appended since the last arena rebuild. Dense doc
    /// indexes are append-only, so every tail doc is strictly greater than
    /// any arena doc of the same term.
    tail: Vec<Vec<Posting>>,
    /// Total corpus occurrences by term id (for LM-Dirichlet).
    term_totals: Vec<u64>,
    /// Dense doc index → external id.
    doc_ids: Vec<u64>,
    /// Token count by dense doc index.
    doc_lengths: Vec<u64>,
    /// Sum of all document lengths.
    total_length: u64,
    /// Tombstone flags by dense doc index (`true` = removed). May be shorter
    /// than `doc_ids` (older entries are implicitly live).
    tombstones: Vec<bool>,
    /// Number of tombstoned documents.
    dead_docs: usize,
    /// Sum of tombstoned document lengths.
    dead_length: u64,
    /// External id → dense doc index for removal. Rebuilt lazily after
    /// deserialization.
    #[serde(skip)]
    id_to_dense: HashMap<u64, u32>,
    /// Precomputed BM25 IDF by term id (valid when `idf_docs == doc_ids.len()`).
    #[serde(skip)]
    idf_cache: Vec<f64>,
    /// Document count the IDF cache was computed for.
    #[serde(skip)]
    idf_docs: usize,
    /// Mutations (adds/removes) since the last IDF refresh.
    #[serde(skip)]
    stale_ops: usize,
    /// Automatic IDF refresh policy: refresh once `stale_ops` exceeds this
    /// fraction of the live corpus. `None` (the default) never refreshes
    /// automatically, preserving the classic add-then-`finalize` behaviour.
    #[serde(skip)]
    idf_refresh_ratio: Option<f64>,
    /// Monotone mutation counter; bumping it invalidates `live_df`.
    #[serde(skip)]
    mutation_epoch: u64,
    /// Live-doc-frequency memo (per term, per mutation epoch): replaces the
    /// per-probe "rescan the posting list and count survivors" under
    /// tombstones. Never shared between clones (see the manual [`Clone`]).
    #[serde(skip)]
    live_df: Arc<Mutex<DfMemo>>,
}

impl Clone for InvertedIndex {
    fn clone(&self) -> Self {
        Self {
            term_ids: self.term_ids.clone(),
            arena: self.arena.clone(),
            spans: self.spans.clone(),
            blocks: self.blocks.clone(),
            frontier: self.frontier.clone(),
            tail: self.tail.clone(),
            term_totals: self.term_totals.clone(),
            doc_ids: self.doc_ids.clone(),
            doc_lengths: self.doc_lengths.clone(),
            total_length: self.total_length,
            tombstones: self.tombstones.clone(),
            dead_docs: self.dead_docs,
            dead_length: self.dead_length,
            id_to_dense: self.id_to_dense.clone(),
            idf_cache: self.idf_cache.clone(),
            idf_docs: self.idf_docs,
            stale_ops: self.stale_ops,
            idf_refresh_ratio: self.idf_refresh_ratio,
            mutation_epoch: self.mutation_epoch,
            // A fresh (empty) memo: the clone and the original may mutate
            // independently from here on, and their epoch counters would
            // collide if they kept sharing one memo.
            live_df: Arc::new(Mutex::new(DfMemo::default())),
        }
    }
}

impl InvertedIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (non-tombstoned) elements.
    pub fn len(&self) -> usize {
        self.doc_ids.len() - self.dead_docs
    }

    /// Is the index empty (of live elements)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tombstoned elements awaiting [`compact`](Self::compact).
    pub fn num_tombstoned(&self) -> usize {
        self.dead_docs
    }

    /// Number of distinct terms.
    pub fn vocabulary_size(&self) -> usize {
        self.spans.len()
    }

    /// Average live element length in tokens.
    pub fn avg_doc_length(&self) -> f64 {
        let live = self.len();
        if live == 0 {
            0.0
        } else {
            (self.total_length - self.dead_length) as f64 / live as f64
        }
    }

    /// Total live token count (the numerator of
    /// [`avg_doc_length`](Self::avg_doc_length)). A sharded deployment sums
    /// this across shards to reconstruct the global average document length
    /// with the same integer-sum-then-divide arithmetic a single index uses.
    pub fn live_total_length(&self) -> u64 {
        self.total_length - self.dead_length
    }

    /// Raw corpus frequency of a term (total occurrences, tombstoned
    /// occurrences *included* until the next [`compact`](Self::compact) —
    /// exactly the value the LM-Dirichlet background model reads). Sharded
    /// deployments sum this across shards for [`CorpusStats`].
    pub fn term_total(&self, term: &str) -> u64 {
        self.term_ids
            .get(term)
            .map(|&tid| self.term_totals[tid as usize])
            .unwrap_or(0)
    }

    /// All postings of a term: the arena span followed by the delta tail
    /// (sorted by dense doc index across the concatenation).
    #[inline]
    fn term_postings(&self, tid: u32) -> (&[Posting], &[Posting]) {
        let span = &self.spans[tid as usize];
        (
            &self.arena[span.offset..span.offset + span.len],
            &self.tail[tid as usize],
        )
    }

    /// Total posting count of a term (arena + tail, tombstoned included).
    #[inline]
    fn term_len(&self, tid: u32) -> usize {
        self.spans[tid as usize].len + self.tail[tid as usize].len()
    }

    /// Document frequency of a term among live elements.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.term_ids
            .get(term)
            .map(|&tid| self.live_doc_freq(tid))
            .unwrap_or(0)
    }

    /// Live document frequency of a term. With no tombstones this is the
    /// posting count; under tombstones the count is memoized per mutation
    /// epoch, so repeated probes of the same term between mutations cost
    /// one hash lookup instead of a posting-list rescan.
    fn live_doc_freq(&self, tid: u32) -> usize {
        if self.dead_docs == 0 {
            return self.term_len(tid);
        }
        {
            let mut memo = self.live_df.lock().unwrap_or_else(|p| p.into_inner());
            if memo.epoch != self.mutation_epoch {
                memo.epoch = self.mutation_epoch;
                memo.df.clear();
            }
            if let Some(&df) = memo.df.get(&tid) {
                return df;
            }
        }
        // Count outside the lock — a long posting-list rescan must not
        // convoy every other reader thread behind the memo Mutex. Two
        // threads may race to count the same term; both compute the same
        // value, so the double insert is benign.
        let (span, tail) = self.term_postings(tid);
        let df = span
            .iter()
            .chain(tail)
            .filter(|p| !self.is_dead(p.doc))
            .count();
        let mut memo = self.live_df.lock().unwrap_or_else(|p| p.into_inner());
        if memo.epoch == self.mutation_epoch {
            memo.df.insert(tid, df);
        }
        df
    }

    /// Is the dense doc index tombstoned?
    #[inline]
    fn is_dead(&self, dense: u32) -> bool {
        self.tombstones
            .get(dense as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Index an element's bag of words under `id`.
    ///
    /// Indexing the same id twice adds the new postings without removing the
    /// old ones; callers should use fresh ids.
    pub fn add(&mut self, id: u64, bow: &BagOfWords) {
        // Rebuild the (serde-skipped) id map before the first mutation after
        // deserialization — inserting into a stale-empty map would leave
        // every pre-existing document unremovable.
        self.ensure_id_map();
        let dense = self.doc_ids.len() as u32;
        self.doc_ids.push(id);
        self.id_to_dense.insert(id, dense);
        let mut length = 0u64;
        for (term, count) in bow.iter() {
            let tid = match self.term_ids.get(term) {
                Some(&tid) => tid,
                None => {
                    let tid = self.spans.len() as u32;
                    self.term_ids.insert(term.to_string(), tid);
                    self.spans.push(Span::default());
                    self.tail.push(Vec::new());
                    self.term_totals.push(0);
                    tid
                }
            };
            self.tail[tid as usize].push(Posting {
                doc: dense,
                term_freq: count,
            });
            self.term_totals[tid as usize] += u64::from(count);
            length += u64::from(count);
        }
        self.total_length += length;
        self.doc_lengths.push(length);
        self.note_mutation();
    }

    /// Tombstone the element indexed under `id`. Its postings stay in place
    /// but every scan skips them; [`compact`](Self::compact) reclaims the
    /// space. Returns `false` if the id is unknown (or already removed).
    pub fn remove(&mut self, id: u64) -> bool {
        self.ensure_id_map();
        let Some(dense) = self.id_to_dense.remove(&id) else {
            return false;
        };
        let dense = dense as usize;
        if self.tombstones.len() <= dense {
            self.tombstones.resize(self.doc_ids.len(), false);
        }
        if self.tombstones[dense] {
            return false;
        }
        self.tombstones[dense] = true;
        self.dead_docs += 1;
        self.dead_length += self.doc_lengths[dense];
        self.note_mutation();
        true
    }

    fn ensure_id_map(&mut self) {
        if self.id_to_dense.is_empty() && !self.doc_ids.is_empty() {
            self.rebuild_id_map();
        }
    }

    fn rebuild_id_map(&mut self) {
        self.id_to_dense = self
            .doc_ids
            .iter()
            .enumerate()
            .filter(|&(dense, _)| !self.is_dead(dense as u32))
            .map(|(dense, &id)| (id, dense as u32))
            .collect();
    }

    /// Record a mutation (invalidating the live-df memo) and refresh the
    /// IDF table if the configured staleness bound has been exceeded.
    fn note_mutation(&mut self) {
        self.stale_ops += 1;
        self.mutation_epoch += 1;
        if let Some(ratio) = self.idf_refresh_ratio {
            if self.stale_ops as f64 > ratio * self.len().max(1) as f64 {
                self.finalize();
            }
        }
    }

    /// Opt into automatic lazy IDF refresh: after a mutation, the IDF table
    /// is re-finalized once the number of mutations since the last refresh
    /// exceeds `ratio × live elements` (a ratio of `0.0` refreshes on every
    /// mutation; `None` — the default — never refreshes automatically).
    pub fn set_idf_refresh_ratio(&mut self, ratio: Option<f64>) {
        self.idf_refresh_ratio = ratio;
    }

    /// Mutations since the last IDF refresh (the staleness the scorer is
    /// currently operating under).
    pub fn idf_staleness(&self) -> usize {
        self.stale_ops
    }

    /// Rebuild the contiguous arena from the current arena + tails,
    /// optionally remapping dense doc indexes (`u32::MAX` drops a posting),
    /// and recompute the block maxima. `doc_lengths` must already reflect
    /// the remapped layout when a remap is given.
    fn rebuild_arena(&mut self, remap: Option<&[u32]>) {
        let old_arena = std::mem::take(&mut self.arena);
        let old_tail = std::mem::take(&mut self.tail);
        let total: usize = self.spans.iter().map(|s| s.len).sum::<usize>()
            + old_tail.iter().map(Vec::len).sum::<usize>();
        let mut arena: Vec<Posting> = Vec::with_capacity(total);
        let mut blocks: Vec<BlockMeta> = Vec::new();
        let mut frontier: Vec<FrontierPoint> = Vec::new();
        for (tid, span) in self.spans.iter_mut().enumerate() {
            let offset = arena.len();
            let old_span = &old_arena[span.offset..span.offset + span.len];
            for p in old_span.iter().chain(&old_tail[tid]) {
                let doc = match remap {
                    Some(remap) => {
                        let to = remap[p.doc as usize];
                        if to == u32::MAX {
                            continue;
                        }
                        to
                    }
                    None => p.doc,
                };
                arena.push(Posting {
                    doc,
                    term_freq: p.term_freq,
                });
            }
            let len = arena.len() - offset;
            let block_offset = blocks.len();
            for chunk in arena[offset..offset + len].chunks(BLOCK_POSTINGS) {
                let frontier_offset = frontier.len();
                push_frontier(chunk, &self.doc_lengths, &mut frontier);
                blocks.push(BlockMeta {
                    frontier_offset,
                    frontier_len: (frontier.len() - frontier_offset) as u32,
                });
            }
            if remap.is_some() {
                self.term_totals[tid] = arena[offset..offset + len]
                    .iter()
                    .map(|p| u64::from(p.term_freq))
                    .sum();
            }
            *span = Span {
                offset,
                len,
                block_offset,
            };
        }
        self.arena = arena;
        self.blocks = blocks;
        self.frontier = frontier;
        self.tail = vec![Vec::new(); self.spans.len()];
    }

    /// Fold the delta tails into the arena (recomputing block maxima) and
    /// precompute the per-term BM25 IDF table. Queries work without calling
    /// this (they fall back to computing IDF per query term), but bulk
    /// loaders should call it once after their final [`add`](Self::add).
    pub fn finalize(&mut self) {
        if self.tail.iter().any(|t| !t.is_empty()) {
            self.rebuild_arena(None);
        }
        let n = self.len() as f64;
        self.idf_cache = (0..self.spans.len() as u32)
            .map(|tid| {
                let df = if self.dead_docs == 0 {
                    self.spans[tid as usize].len
                } else {
                    let (span, tail) = self.term_postings(tid);
                    span.iter()
                        .chain(tail)
                        .filter(|p| !self.is_dead(p.doc))
                        .count()
                };
                bm25_idf(n, df as f64)
            })
            .collect();
        self.idf_docs = self.doc_ids.len();
        self.stale_ops = 0;
    }

    /// Is the precomputed IDF table in sync with the index contents?
    pub fn is_finalized(&self) -> bool {
        self.idf_docs == self.doc_ids.len()
            && self.idf_cache.len() == self.spans.len()
            && self.stale_ops == 0
    }

    /// Fold tombstones back into the dense layout: drop dead postings,
    /// remap dense indices (preserving the surviving order), recompute
    /// corpus statistics, and re-finalize. After `compact`, scores are
    /// identical to a freshly built index over the surviving elements.
    pub fn compact(&mut self) {
        if self.dead_docs > 0 {
            let mut remap: Vec<u32> = vec![u32::MAX; self.doc_ids.len()];
            let mut doc_ids = Vec::with_capacity(self.len());
            let mut doc_lengths = Vec::with_capacity(self.len());
            for (dense, slot) in remap.iter_mut().enumerate() {
                if !self.tombstones.get(dense).copied().unwrap_or(false) {
                    *slot = doc_ids.len() as u32;
                    doc_ids.push(self.doc_ids[dense]);
                    doc_lengths.push(self.doc_lengths[dense]);
                }
            }
            self.doc_ids = doc_ids;
            self.doc_lengths = doc_lengths;
            self.rebuild_arena(Some(&remap));
            self.total_length = self.doc_lengths.iter().sum();
            self.tombstones.clear();
            self.dead_docs = 0;
            self.dead_length = 0;
            self.mutation_epoch += 1;
            self.rebuild_id_map();
        }
        self.finalize();
    }

    /// Search with the default BM25 scoring.
    pub fn search(&self, query: &BagOfWords, top_k: usize) -> Vec<(u64, f64)> {
        self.search_with(query, top_k, ScoringFunction::default())
    }

    /// Search with an explicit scoring function. Returns `(id, score)` sorted
    /// by score descending.
    pub fn search_with(
        &self,
        query: &BagOfWords,
        top_k: usize,
        scoring: ScoringFunction,
    ) -> Vec<(u64, f64)> {
        self.search_filtered(query, top_k, scoring, |_| true)
    }

    /// Search restricted to documents accepted by `filter` (called with the
    /// external document id). The filter is applied *while* streaming
    /// candidates into the top-k heap, so the result contains up to `top_k`
    /// accepted documents no matter how selective the filter is — callers
    /// never need to over-fetch.
    pub fn search_filtered(
        &self,
        query: &BagOfWords,
        top_k: usize,
        scoring: ScoringFunction,
        filter: impl Fn(u64) -> bool,
    ) -> Vec<(u64, f64)> {
        if self.is_empty() || top_k == 0 {
            return Vec::new();
        }
        let cursors = self.cursors(query, scoring);
        let avgdl = self.avg_doc_length().max(1e-9);
        if self.doc_ids.len() <= TAAT_MAX_DOCS {
            self.scan_taat(cursors, top_k, scoring, filter, avgdl)
        } else {
            self.scan_daat_pruned(cursors, top_k, scoring, filter, avgdl)
        }
    }

    /// [`search_filtered`](Self::search_filtered) scoring against externally
    /// supplied corpus statistics instead of this index's own.
    ///
    /// This is the scatter half of sharded keyword search: each shard holds
    /// only its partition of the corpus, so its local document counts,
    /// document frequencies, and average document length would skew BM25 IDF
    /// and length normalization. The router sums the integer statistics
    /// across shards into one [`CorpusStats`] and every shard scores its own
    /// postings with the *global* values — per-document scores then come out
    /// bit-identical to a single unpartitioned index (term weights and the
    /// average document length are derived here with the same arithmetic the
    /// local path uses). Block-max pruning stays exact: block bounds are
    /// evaluated with the injected term weights.
    pub fn search_filtered_with_stats(
        &self,
        query: &BagOfWords,
        top_k: usize,
        scoring: ScoringFunction,
        filter: impl Fn(u64) -> bool,
        stats: &CorpusStats,
    ) -> Vec<(u64, f64)> {
        if self.is_empty() || top_k == 0 {
            return Vec::new();
        }
        let cursors = self.cursors_with_stats(query, scoring, stats);
        let avgdl = stats.avg_doc_length().max(1e-9);
        if self.doc_ids.len() <= TAAT_MAX_DOCS {
            self.scan_taat(cursors, top_k, scoring, filter, avgdl)
        } else {
            self.scan_daat_pruned(cursors, top_k, scoring, filter, avgdl)
        }
    }

    /// Force the block-max-pruned document-at-a-time scan regardless of
    /// corpus size (production queries via
    /// [`search_with`](Self::search_with) use the TAAT strategy below
    /// `TAAT_MAX_DOCS` documents). A parity-testing and benchmarking
    /// surface: must return exactly what
    /// [`search_unpruned`](Self::search_unpruned) returns.
    pub fn search_pruned(
        &self,
        query: &BagOfWords,
        top_k: usize,
        scoring: ScoringFunction,
    ) -> Vec<(u64, f64)> {
        if self.is_empty() || top_k == 0 {
            return Vec::new();
        }
        let cursors = self.cursors(query, scoring);
        let avgdl = self.avg_doc_length().max(1e-9);
        self.scan_daat_pruned(cursors, top_k, scoring, |_| true, avgdl)
    }

    /// The pre-block-max document-at-a-time scan: identical ranking, no
    /// pruning. Kept as the reference the block-max parity tests compare
    /// against.
    pub fn search_unpruned(
        &self,
        query: &BagOfWords,
        top_k: usize,
        scoring: ScoringFunction,
    ) -> Vec<(u64, f64)> {
        if self.is_empty() || top_k == 0 {
            return Vec::new();
        }
        let cursors = self.cursors(query, scoring);
        let avgdl = self.avg_doc_length().max(1e-9);
        self.scan_daat(cursors, top_k, scoring, |_| true, avgdl)
    }

    fn cursors(&self, query: &BagOfWords, scoring: ScoringFunction) -> Vec<Cursor<'_>> {
        match scoring {
            ScoringFunction::Bm25(params) => self.bm25_cursors(query, params),
            ScoringFunction::LmDirichlet { mu } => self.lm_cursors(query, mu),
        }
    }

    /// Build one scoring cursor per query term that the index knows.
    ///
    /// IDF comes from the precomputed table when it is fresh, or — in the
    /// incremental-ingestion mode (an automatic refresh ratio is set) — from
    /// the *stale* table for terms it covers: the refresh policy bounds how
    /// far the cached values can drift, and terms added since the last
    /// refresh fall back to an exact on-the-fly computation.
    fn bm25_cursors(&self, query: &BagOfWords, _params: Bm25Params) -> Vec<Cursor<'_>> {
        let n = self.len() as f64;
        let finalized = self.is_finalized();
        let use_stale = self.idf_refresh_ratio.is_some();
        query
            .iter()
            .filter_map(|(term, _qf)| {
                let &tid = self.term_ids.get(term)?;
                if self.term_len(tid) == 0 {
                    return None;
                }
                let idf = if finalized || (use_stale && (tid as usize) < self.idf_cache.len()) {
                    self.idf_cache[tid as usize]
                } else {
                    let df = self.live_doc_freq(tid);
                    if df == 0 {
                        return None;
                    }
                    bm25_idf(n, df as f64)
                };
                let (arena, tail) = self.term_postings(tid);
                Some(Cursor {
                    arena,
                    tail,
                    blocks: self.term_blocks(tid),
                    frontier: &self.frontier,
                    pos: 0,
                    weight: idf,
                    background: 0.0,
                })
            })
            .collect()
    }

    /// Build scoring cursors whose term weights come from an injected
    /// [`CorpusStats`] instead of this index's own statistics. BM25 IDF is
    /// recomputed from the global `(num_docs, doc_freq)` pair with the same
    /// formula [`bm25_cursors`](Self::bm25_cursors) uses on the exact path;
    /// the LM-Dirichlet background model reads the global corpus frequency
    /// and live token count.
    fn cursors_with_stats(
        &self,
        query: &BagOfWords,
        scoring: ScoringFunction,
        stats: &CorpusStats,
    ) -> Vec<Cursor<'_>> {
        let n = stats.num_docs as f64;
        let corpus_len = stats.total_length.max(1) as f64;
        query
            .iter()
            .filter_map(|(term, qf)| {
                let &tid = self.term_ids.get(term)?;
                if self.term_len(tid) == 0 {
                    return None;
                }
                let (weight, background) = match scoring {
                    ScoringFunction::Bm25(_) => {
                        let df = stats.doc_freq.get(term).copied().unwrap_or(0);
                        if df == 0 {
                            return None;
                        }
                        (bm25_idf(n, df as f64), 0.0)
                    }
                    ScoringFunction::LmDirichlet { mu } => {
                        let cf = stats.term_totals.get(term).copied().unwrap_or(0) as f64;
                        if cf == 0.0 {
                            return None;
                        }
                        (f64::from(qf), mu * (cf / corpus_len))
                    }
                };
                let (arena, tail) = self.term_postings(tid);
                Some(Cursor {
                    arena,
                    tail,
                    blocks: self.term_blocks(tid),
                    frontier: &self.frontier,
                    pos: 0,
                    weight,
                    background,
                })
            })
            .collect()
    }

    fn lm_cursors(&self, query: &BagOfWords, mu: f64) -> Vec<Cursor<'_>> {
        // `term_totals` still includes tombstoned occurrences until the next
        // `compact()`; the background model is therefore as stale as the
        // tombstone count, which the compaction policy bounds.
        let corpus_len = (self.total_length - self.dead_length).max(1) as f64;
        query
            .iter()
            .filter_map(|(term, qf)| {
                let &tid = self.term_ids.get(term)?;
                let cf = self.term_totals[tid as usize] as f64;
                if self.term_len(tid) == 0 || cf == 0.0 {
                    return None;
                }
                let (arena, tail) = self.term_postings(tid);
                Some(Cursor {
                    arena,
                    tail,
                    blocks: self.term_blocks(tid),
                    frontier: &self.frontier,
                    pos: 0,
                    weight: f64::from(qf),
                    background: mu * (cf / corpus_len),
                })
            })
            .collect()
    }

    /// The block-maxima of a term's arena span.
    #[inline]
    fn term_blocks(&self, tid: u32) -> &[BlockMeta] {
        let span = &self.spans[tid as usize];
        &self.blocks[span.block_offset..span.block_offset + span.num_blocks()]
    }

    /// Reference implementation of the pre-optimization query path: score
    /// every touched document into a `HashMap`, then sort. Kept as the
    /// oracle of the parity tests; production queries use
    /// [`search_with`](Self::search_with).
    pub fn search_exhaustive(
        &self,
        query: &BagOfWords,
        top_k: usize,
        scoring: ScoringFunction,
    ) -> Vec<(u64, f64)> {
        if self.is_empty() {
            return Vec::new();
        }
        let avgdl = self.avg_doc_length().max(1e-9);
        let cursors = self.cursors(query, scoring);
        let mut scores: HashMap<u64, f64> = HashMap::new();
        for cursor in &cursors {
            for posting in cursor.arena.iter().chain(cursor.tail) {
                if self.is_dead(posting.doc) {
                    continue;
                }
                let doc = posting.doc as usize;
                let dl = self.doc_lengths[doc] as f64;
                let tf = f64::from(posting.term_freq);
                let add = contribution(scoring, cursor.weight, cursor.background, tf, dl, avgdl);
                *scores.entry(self.doc_ids[doc]).or_insert(0.0) += add;
            }
        }
        let mut tk = TopK::new(top_k);
        for (id, score) in scores {
            if score > 0.0 {
                tk.push(id, score);
            }
        }
        tk.into_sorted_vec()
    }

    /// Term-at-a-time scan: accumulate every term's contributions into a
    /// dense per-document score array, then stream the touched documents
    /// into the top-k heap. One branch-free addition per posting — the
    /// fastest strategy while the score array fits comfortably in memory
    /// (up to `TAAT_MAX_DOCS` documents); larger corpora use the
    /// document-at-a-time merge instead. The score array and touched list
    /// are reused from a thread-local scratch (zeroed back after each
    /// query), so a serving thread — including every rayon worker inside
    /// `execute_many` — allocates nothing here in steady state.
    fn scan_taat(
        &self,
        cursors: Vec<Cursor<'_>>,
        top_k: usize,
        scoring: ScoringFunction,
        filter: impl Fn(u64) -> bool,
        avgdl: f64,
    ) -> Vec<(u64, f64)> {
        // The user-supplied filter runs while the scratch is borrowed, so a
        // filter that itself searches (reentrancy) must not double-borrow:
        // the inner call simply falls back to a fresh local scratch.
        TAAT_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => {
                let (scores, touched) = &mut *scratch;
                self.scan_taat_with(scores, touched, &cursors, top_k, scoring, &filter, avgdl)
            }
            Err(_) => {
                let (mut scores, mut touched) = (Vec::new(), Vec::new());
                self.scan_taat_with(
                    &mut scores,
                    &mut touched,
                    &cursors,
                    top_k,
                    scoring,
                    &filter,
                    avgdl,
                )
            }
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_taat_with(
        &self,
        scores: &mut Vec<f64>,
        touched: &mut Vec<u32>,
        cursors: &[Cursor<'_>],
        top_k: usize,
        scoring: ScoringFunction,
        filter: &impl Fn(u64) -> bool,
        avgdl: f64,
    ) -> Vec<(u64, f64)> {
        if scores.len() < self.doc_ids.len() {
            scores.resize(self.doc_ids.len(), 0.0);
        }
        touched.clear();
        // Drop-guard over the scratch: the all-zeros invariant is restored
        // on every exit path — including a panicking filter closure, which
        // would otherwise leave stale scores behind for the next query on
        // this thread (rayon workers survive propagated panics).
        struct Scratch<'a> {
            scores: &'a mut Vec<f64>,
            touched: &'a mut Vec<u32>,
        }
        impl Drop for Scratch<'_> {
            fn drop(&mut self) {
                for &doc in self.touched.iter() {
                    self.scores[doc as usize] = 0.0;
                }
                self.touched.clear();
            }
        }
        let scratch = Scratch { scores, touched };
        for cursor in cursors {
            for posting in cursor.arena.iter().chain(cursor.tail) {
                let doc = posting.doc as usize;
                let dl = self.doc_lengths[doc] as f64;
                let tf = f64::from(posting.term_freq);
                let add = contribution(scoring, cursor.weight, cursor.background, tf, dl, avgdl);
                // Both scoring functions only produce positive
                // contributions, so a zero score means "untouched".
                if scratch.scores[doc] == 0.0 {
                    scratch.touched.push(posting.doc);
                }
                scratch.scores[doc] += add;
            }
        }
        let mut tk = TopK::new(top_k);
        for &doc in scratch.touched.iter() {
            if self.is_dead(doc) {
                continue;
            }
            let score = scratch.scores[doc as usize];
            if score > 0.0 && tk.would_accept(score) {
                let id = self.doc_ids[doc as usize];
                if filter(id) {
                    tk.push(id, score);
                }
            }
        }
        tk.into_sorted_vec()
    }

    /// Document-at-a-time scan: merge the posting cursors in dense-doc
    /// order, score each touched document once, and keep the best `top_k`.
    /// No pruning — this is the reference the block-max scan is
    /// parity-tested (and benchmarked) against.
    fn scan_daat(
        &self,
        mut cursors: Vec<Cursor<'_>>,
        top_k: usize,
        scoring: ScoringFunction,
        filter: impl Fn(u64) -> bool,
        avgdl: f64,
    ) -> Vec<(u64, f64)> {
        let mut tk = TopK::new(top_k);
        // Min-heap of (dense doc, cursor index) — postings are sorted by
        // dense doc, so repeatedly draining the minimum visits each touched
        // document exactly once, in order.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, usize)>> = cursors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.pos < c.len())
            .map(|(ci, c)| std::cmp::Reverse((c.doc_at(c.pos), ci)))
            .collect();
        while let Some(&std::cmp::Reverse((doc, _))) = heap.peek() {
            let dl = self.doc_lengths[doc as usize] as f64;
            let mut score = 0.0;
            while let Some(&std::cmp::Reverse((d, ci))) = heap.peek() {
                if d != doc {
                    break;
                }
                heap.pop();
                let cursor = &mut cursors[ci];
                let tf = f64::from(cursor.posting_at(cursor.pos).term_freq);
                score += contribution(scoring, cursor.weight, cursor.background, tf, dl, avgdl);
                cursor.pos += 1;
                if cursor.pos < cursor.len() {
                    heap.push(std::cmp::Reverse((cursor.doc_at(cursor.pos), ci)));
                }
            }
            if score > 0.0 && !self.is_dead(doc) {
                let id = self.doc_ids[doc as usize];
                if tk.would_accept(score) && filter(id) {
                    tk.push(id, score);
                }
            }
        }
        tk.into_sorted_vec()
    }

    /// The block-max-pruned document-at-a-time scan: identical output to
    /// [`scan_daat`](Self::scan_daat), but once the top-k heap is full,
    /// whenever the sum of every cursor's *current-block* upper bound (the
    /// frontier maximum, cached per cursor and refreshed only on block
    /// transitions) cannot reach the heap threshold, no document covered by
    /// all current blocks can be admitted — every cursor jumps past the
    /// earliest current-block boundary by binary search instead of scoring
    /// the covered documents one at a time. Pruning is exact: a skipped
    /// document provably scores strictly below the threshold, which
    /// [`TopK::would_accept`] rejects anyway.
    fn scan_daat_pruned(
        &self,
        mut cursors: Vec<Cursor<'_>>,
        top_k: usize,
        scoring: ScoringFunction,
        filter: impl Fn(u64) -> bool,
        avgdl: f64,
    ) -> Vec<(u64, f64)> {
        if cursors.len() == 1 {
            let cursor = cursors.pop().expect("one cursor");
            return self.scan_single_pruned(cursor, top_k, scoring, filter, avgdl);
        }
        let mut tk = TopK::new(top_k);
        let mut states: Vec<BoundState> = cursors
            .iter()
            .map(|c| {
                let mut state = BoundState::new(c, &self.doc_lengths);
                state.refresh(c, scoring, avgdl);
                state
            })
            .collect();
        // Term-level upper bounds (max block bound over the whole run)
        // for the WAND pivot — computed lazily on the first pivot check,
        // so queries whose heap never fills (huge top_k, tiny result sets)
        // never pay the full frontier walk.
        let mut term_bounds: Option<Vec<f64>> = None;
        // Maintained incrementally as cursors cross block boundaries; the
        // exact sum is recomputed before any skip actually fires, so
        // accumulated float drift can only ever *delay* a skip.
        let mut bound_sum: f64 = states.iter().map(|s| s.bound).sum();
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, usize)>> = cursors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.pos < c.len())
            .map(|(ci, c)| std::cmp::Reverse((c.doc_at(c.pos), ci)))
            .collect();
        // The WAND pivot check runs every WAND_PERIOD iterations: frequent
        // enough that a sparse high-impact term drags the scan straight
        // from one of its postings to the next (the dense partners are
        // *sorted past* the gap), rare enough that dense-only queries pay
        // ~1/WAND_PERIOD of a sort per document.
        let mut wand_countdown = 1usize;
        let mut order: Vec<(u32, usize)> = Vec::with_capacity(cursors.len());
        while let Some(&std::cmp::Reverse((doc, _))) = heap.peek() {
            if let Some(threshold) = tk.threshold() {
                wand_countdown -= 1;
                if wand_countdown == 0 {
                    wand_countdown = WAND_PERIOD;
                    let term_bounds = term_bounds.get_or_insert_with(|| {
                        cursors
                            .iter()
                            .zip(&states)
                            .map(|(c, state)| state.term_bound(c, scoring, avgdl))
                            .collect()
                    });
                    // Sort the live cursors by current doc and find the
                    // pivot: the first prefix whose summed *term* bounds
                    // can reach the threshold. Docs before the pivot's
                    // current doc are reachable only by cursors whose
                    // total possible contribution falls short — skip them.
                    order.clear();
                    order.extend(
                        cursors
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| c.pos < c.len())
                            .map(|(ci, c)| (c.doc_at(c.pos), ci)),
                    );
                    order.sort_unstable();
                    let mut acc = 0.0;
                    let mut pivot_doc = None;
                    for &(cursor_doc, ci) in &order {
                        acc += term_bounds[ci];
                        if acc * (1.0 + BOUND_SLACK) >= threshold {
                            pivot_doc = Some(cursor_doc);
                            break;
                        }
                    }
                    let Some(pivot_doc) = pivot_doc else {
                        // Even all terms together cannot reach the
                        // threshold any more: nothing left to admit.
                        break;
                    };
                    if pivot_doc > doc {
                        heap.clear();
                        for (ci, cursor) in cursors.iter_mut().enumerate() {
                            if cursor.pos < cursor.len() && cursor.doc_at(cursor.pos) < pivot_doc {
                                cursor.seek_past(pivot_doc - 1);
                                states[ci].refresh(cursor, scoring, avgdl);
                            }
                            if cursor.pos < cursor.len() {
                                heap.push(std::cmp::Reverse((cursor.doc_at(cursor.pos), ci)));
                            }
                        }
                        bound_sum = states.iter().map(|s| s.bound).sum();
                        continue;
                    }
                }
                if bound_sum * (1.0 + BOUND_SLACK) < threshold {
                    let exact: f64 = states.iter().map(|s| s.bound).sum();
                    if exact * (1.0 + BOUND_SLACK) < threshold {
                        // Skip every document up to the earliest current
                        // block boundary and re-seed the merge heap.
                        let earliest = cursors
                            .iter()
                            .filter(|c| c.pos < c.len())
                            .map(Cursor::block_end_doc)
                            .min()
                            .expect("heap non-empty implies a live cursor");
                        heap.clear();
                        for (ci, cursor) in cursors.iter_mut().enumerate() {
                            cursor.seek_past(earliest);
                            states[ci].refresh(cursor, scoring, avgdl);
                            if cursor.pos < cursor.len() {
                                heap.push(std::cmp::Reverse((cursor.doc_at(cursor.pos), ci)));
                            }
                        }
                        bound_sum = states.iter().map(|s| s.bound).sum();
                        continue;
                    }
                    bound_sum = exact;
                }
            }
            let dl = self.doc_lengths[doc as usize] as f64;
            let mut score = 0.0;
            while let Some(&std::cmp::Reverse((d, ci))) = heap.peek() {
                if d != doc {
                    break;
                }
                heap.pop();
                let cursor = &mut cursors[ci];
                let tf = f64::from(cursor.posting_at(cursor.pos).term_freq);
                score += contribution(scoring, cursor.weight, cursor.background, tf, dl, avgdl);
                cursor.pos += 1;
                let old = states[ci].bound;
                if states[ci].refresh(cursor, scoring, avgdl) {
                    bound_sum += states[ci].bound - old;
                }
                if cursor.pos < cursor.len() {
                    heap.push(std::cmp::Reverse((cursor.doc_at(cursor.pos), ci)));
                }
            }
            if score > 0.0 && !self.is_dead(doc) {
                let id = self.doc_ids[doc as usize];
                if tk.would_accept(score) && filter(id) {
                    tk.push(id, score);
                }
            }
        }
        tk.into_sorted_vec()
    }

    /// Single-cursor specialization of the pruned scan (the common
    /// single-term query): no merge heap at all — walk the posting run,
    /// and once the top-k heap is full skip whole blocks whose bound
    /// cannot beat the threshold.
    fn scan_single_pruned(
        &self,
        mut cursor: Cursor<'_>,
        top_k: usize,
        scoring: ScoringFunction,
        filter: impl Fn(u64) -> bool,
        avgdl: f64,
    ) -> Vec<(u64, f64)> {
        let mut tk = TopK::new(top_k);
        let mut state = BoundState::new(&cursor, &self.doc_lengths);
        state.refresh(&cursor, scoring, avgdl);
        while cursor.pos < cursor.len() {
            if let Some(threshold) = tk.threshold() {
                if state.bound * (1.0 + BOUND_SLACK) < threshold {
                    cursor.seek_past(cursor.block_end_doc());
                    state.refresh(&cursor, scoring, avgdl);
                    continue;
                }
            }
            let posting = *cursor.posting_at(cursor.pos);
            cursor.pos += 1;
            state.refresh(&cursor, scoring, avgdl);
            let dl = self.doc_lengths[posting.doc as usize] as f64;
            let score = contribution(
                scoring,
                cursor.weight,
                cursor.background,
                f64::from(posting.term_freq),
                dl,
                avgdl,
            );
            if score > 0.0 && !self.is_dead(posting.doc) {
                let id = self.doc_ids[posting.doc as usize];
                if tk.would_accept(score) && filter(id) {
                    tk.push(id, score);
                }
            }
        }
        tk.into_sorted_vec()
    }
}

/// Largest corpus for which queries use the dense term-at-a-time score
/// array (8 bytes per document, reused from a thread-local scratch). Above
/// this the index switches to the allocation-light document-at-a-time merge
/// with block-max pruning.
const TAAT_MAX_DOCS: usize = 1 << 16;

thread_local! {
    /// Reusable TAAT scratch (dense score array + touched list). The score
    /// array upholds an all-zeros-between-queries invariant: only touched
    /// entries are re-zeroed after each scan.
    static TAAT_SCRATCH: RefCell<(Vec<f64>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// BM25+-style IDF, never negative.
#[inline]
fn bm25_idf(n: f64, df: f64) -> f64 {
    ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
}

/// One term's score contribution for a posting with `tf` occurrences in a
/// document of length `dl` — the single formula every scan strategy (and
/// the block-bound evaluation) shares. `weight` is the cursor's
/// query-independent factor (BM25 IDF / LM query-tf); `background` is the
/// LM-Dirichlet `mu·P(t|corpus)` term.
#[inline]
fn contribution(
    scoring: ScoringFunction,
    weight: f64,
    background: f64,
    tf: f64,
    dl: f64,
    avgdl: f64,
) -> f64 {
    match scoring {
        ScoringFunction::Bm25(params) => {
            let denom = tf + params.k1 * (1.0 - params.b + params.b * dl / avgdl);
            weight * tf * (params.k1 + 1.0) / denom
        }
        ScoringFunction::LmDirichlet { mu } => {
            // log P(t|d) with Dirichlet smoothing, weighted by query tf and
            // normalized against the pure-background score so only matching
            // terms contribute.
            let smoothed = (tf + background) / (dl + mu);
            let bg = background / (dl + mu);
            weight * (smoothed / bg).ln()
        }
    }
}

/// Relative slack applied when comparing a block-bound sum against the
/// top-k threshold: the bound is mathematically an upper bound, but its
/// floating-point evaluation can sit an ulp below a posting's actually
/// computed score (e.g. the LM formula's dl cancels algebraically, not
/// numerically). Requiring `bound · (1 + SLACK) < threshold` keeps pruning
/// strictly conservative; the lost pruning opportunity is negligible.
const BOUND_SLACK: f64 = 1e-9;

/// Iterations of the pruned document-at-a-time merge between WAND pivot
/// checks. The check costs one small sort; amortizing it keeps dense
/// multi-term queries (where the pivot never skips) at full merge speed
/// while still letting a sparse high-impact term skip the gaps between
/// its postings within at most this many scored documents.
const WAND_PERIOD: usize = 16;

/// A scoring cursor over one query term's posting list: the contiguous
/// arena span followed by the (strictly newer) delta tail.
///
/// `weight` is the term's precomputed query-independent factor (IDF for
/// BM25, query term frequency for LM-Dirichlet); `background` is the
/// LM-Dirichlet `mu·P(t|corpus)` term (unused by BM25).
struct Cursor<'a> {
    arena: &'a [Posting],
    tail: &'a [Posting],
    blocks: &'a [BlockMeta],
    frontier: &'a [FrontierPoint],
    pos: usize,
    weight: f64,
    background: f64,
}

impl Cursor<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.arena.len() + self.tail.len()
    }

    #[inline]
    fn posting_at(&self, pos: usize) -> &Posting {
        if pos < self.arena.len() {
            &self.arena[pos]
        } else {
            &self.tail[pos - self.arena.len()]
        }
    }

    #[inline]
    fn doc_at(&self, pos: usize) -> u32 {
        self.posting_at(pos).doc
    }

    /// The last document covered by the current block (the whole tail acts
    /// as one block).
    #[inline]
    fn block_end_doc(&self) -> u32 {
        if self.pos < self.arena.len() {
            let block_end = ((self.pos / BLOCK_POSTINGS) + 1) * BLOCK_POSTINGS;
            self.arena[block_end.min(self.arena.len()) - 1].doc
        } else {
            self.tail.last().map(|p| p.doc).unwrap_or(u32::MAX)
        }
    }

    /// Advance to the first posting with `doc > bound` (binary search in
    /// the arena remainder, then in the tail).
    fn seek_past(&mut self, bound: u32) {
        if self.pos < self.arena.len() {
            self.pos += self.arena[self.pos..].partition_point(|p| p.doc <= bound);
        }
        if self.pos >= self.arena.len() {
            let tail_pos = self.pos - self.arena.len();
            if tail_pos < self.tail.len() {
                self.pos += self.tail[tail_pos..].partition_point(|p| p.doc <= bound);
            }
        }
    }
}

/// The tail pseudo-block id in [`BoundState::cached_block`].
const TAIL_BLOCK: usize = usize::MAX;
/// "No block" sentinel (exhausted cursor, or bound not yet computed).
const NO_BLOCK: usize = usize::MAX - 1;

/// Query-time pruning state of one cursor: the delta tail's frontier
/// (computed at query start — the tail has no precomputed blocks) and the
/// cached upper bound of the cursor's *current* block, refreshed only when
/// the cursor crosses a block boundary.
struct BoundState {
    tail_frontier: Vec<FrontierPoint>,
    /// Block the cached bound belongs to ([`TAIL_BLOCK`] / [`NO_BLOCK`]).
    cached_block: usize,
    /// Upper bound of the cursor's contribution within its current block.
    bound: f64,
}

impl BoundState {
    fn new(cursor: &Cursor<'_>, doc_lengths: &[u64]) -> Self {
        let mut tail_frontier = Vec::new();
        push_frontier(cursor.tail, doc_lengths, &mut tail_frontier);
        Self {
            tail_frontier,
            cached_block: NO_BLOCK,
            bound: 0.0,
        }
    }

    #[inline]
    fn block_of(cursor: &Cursor<'_>) -> usize {
        if cursor.pos < cursor.arena.len() {
            cursor.pos / BLOCK_POSTINGS
        } else if cursor.pos < cursor.len() {
            TAIL_BLOCK
        } else {
            NO_BLOCK
        }
    }

    /// Re-evaluate the cached bound if the cursor moved to a different
    /// block; returns whether the bound changed. The bound is the maximum
    /// of the shared [`contribution`] formula over the block's frontier —
    /// valid for any tombstone state because dropping postings can only
    /// lower the true maximum, and consistent with stale-IDF serving
    /// because it uses the same `weight` the actual scoring uses.
    #[inline]
    fn refresh(&mut self, cursor: &Cursor<'_>, scoring: ScoringFunction, avgdl: f64) -> bool {
        let block = Self::block_of(cursor);
        if block == self.cached_block {
            return false;
        }
        self.cached_block = block;
        let points: &[FrontierPoint] = match block {
            NO_BLOCK => &[],
            TAIL_BLOCK => &self.tail_frontier,
            b => {
                let meta = &cursor.blocks[b];
                &cursor.frontier
                    [meta.frontier_offset..meta.frontier_offset + meta.frontier_len as usize]
            }
        };
        self.bound = frontier_bound(points, cursor, scoring, avgdl);
        true
    }

    /// The cursor's *term-level* upper bound: the maximum block bound over
    /// the whole posting run (every arena block plus the tail). Drives the
    /// WAND pivot — docs reachable only by cursors whose term bounds sum
    /// below the threshold can be skipped outright.
    fn term_bound(&self, cursor: &Cursor<'_>, scoring: ScoringFunction, avgdl: f64) -> f64 {
        let mut bound = frontier_bound(&self.tail_frontier, cursor, scoring, avgdl);
        for meta in cursor.blocks {
            let points = &cursor.frontier
                [meta.frontier_offset..meta.frontier_offset + meta.frontier_len as usize];
            bound = bound.max(frontier_bound(points, cursor, scoring, avgdl));
        }
        bound
    }
}

/// Maximum of the scoring contribution over a frontier (the exact block
/// maximum — see [`BlockMeta`]).
#[inline]
fn frontier_bound(
    points: &[FrontierPoint],
    cursor: &Cursor<'_>,
    scoring: ScoringFunction,
    avgdl: f64,
) -> f64 {
    points
        .iter()
        .map(|pt| {
            contribution(
                scoring,
                cursor.weight,
                cursor.background,
                f64::from(pt.tf),
                pt.dl as f64,
                avgdl,
            )
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bow(words: &[&str]) -> BagOfWords {
        BagOfWords::from_tokens(words.iter().copied())
    }

    fn sample_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add(
            1,
            &bow(&["pemetrexed", "antifolate", "synthase", "inhibitor"]),
        );
        idx.add(2, &bow(&["citric", "acid", "anticoagulant"]));
        idx.add(3, &bow(&["geneticin", "aminoglycoside", "antibiotic"]));
        idx.add(4, &bow(&["synthase", "enzyme", "target", "reductase"]));
        idx
    }

    #[test]
    fn bm25_ranks_matching_docs_first() {
        let idx = sample_index();
        let results = idx.search(&bow(&["synthase", "inhibitor"]), 4);
        assert_eq!(results[0].0, 1, "doc 1 matches both terms");
        assert!(results.iter().any(|(id, _)| *id == 4));
        assert!(!results.iter().any(|(id, _)| *id == 2));
    }

    #[test]
    fn bm25_scores_positive_and_sorted() {
        let idx = sample_index();
        let results = idx.search(&bow(&["synthase"]), 10);
        assert!(!results.is_empty());
        for w in results.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(results.iter().all(|(_, s)| *s > 0.0));
    }

    #[test]
    fn rare_term_scores_higher_than_common() {
        let mut idx = InvertedIndex::new();
        for i in 0..20 {
            idx.add(i, &bow(&["common", "filler"]));
        }
        idx.add(100, &bow(&["common", "rare"]));
        let common = idx.search(&bow(&["common"]), 1)[0].1;
        let rare = idx.search(&bow(&["rare"]), 1)[0].1;
        assert!(rare > common, "IDF should boost the rare term");
    }

    #[test]
    fn lm_dirichlet_ranks_matching_docs() {
        let idx = sample_index();
        let results = idx.search_with(
            &bow(&["synthase", "enzyme"]),
            4,
            ScoringFunction::LmDirichlet { mu: 100.0 },
        );
        assert_eq!(results[0].0, 4);
        assert!(results.iter().all(|(_, s)| *s > 0.0));
    }

    #[test]
    fn empty_query_and_unknown_terms() {
        let idx = sample_index();
        assert!(idx.search(&BagOfWords::new(), 5).is_empty());
        assert!(idx.search(&bow(&["zzzznotaword"]), 5).is_empty());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = InvertedIndex::new();
        assert!(idx.search(&bow(&["anything"]), 5).is_empty());
        assert_eq!(idx.avg_doc_length(), 0.0);
    }

    #[test]
    fn term_frequency_increases_score() {
        let mut idx = InvertedIndex::new();
        idx.add(
            1,
            &BagOfWords::from_tokens(["drug", "drug", "drug", "other"]),
        );
        idx.add(
            2,
            &BagOfWords::from_tokens(["drug", "other", "filler", "words"]),
        );
        let results = idx.search(&bow(&["drug"]), 2);
        assert_eq!(results[0].0, 1);
    }

    #[test]
    fn statistics() {
        let idx = sample_index();
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.doc_freq("synthase"), 2);
        assert_eq!(idx.doc_freq("missing"), 0);
        assert!(idx.vocabulary_size() >= 10);
        assert!(idx.avg_doc_length() > 3.0);
    }

    #[test]
    fn top_k_truncates() {
        let idx = sample_index();
        let results = idx.search(&bow(&["synthase"]), 1);
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn serde_roundtrip() {
        let idx = sample_index();
        let json = serde_json::to_string(&idx).unwrap();
        let back: InvertedIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 4);
        let results = back.search(&bow(&["synthase"]), 2);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn finalize_does_not_change_scores() {
        let mut idx = sample_index();
        let before = idx.search(&bow(&["synthase", "inhibitor"]), 4);
        idx.finalize();
        assert!(idx.is_finalized());
        let after = idx.search(&bow(&["synthase", "inhibitor"]), 4);
        assert_eq!(before, after);
        // Adding after finalize invalidates the cache but keeps correctness.
        idx.add(9, &bow(&["synthase"]));
        assert!(!idx.is_finalized());
        assert!(idx
            .search(&bow(&["synthase"]), 5)
            .iter()
            .any(|(id, _)| *id == 9));
    }

    #[test]
    fn finalize_folds_tail_into_arena() {
        let mut idx = sample_index();
        assert!(idx.arena.is_empty(), "pre-finalize postings live in tails");
        idx.finalize();
        assert!(idx.tail.iter().all(Vec::is_empty));
        assert_eq!(
            idx.arena.len(),
            idx.spans.iter().map(|s| s.len).sum::<usize>()
        );
        // Every span's blocks cover its postings.
        for span in &idx.spans {
            assert_eq!(span.num_blocks(), span.len.div_ceil(BLOCK_POSTINGS));
        }
        // Post-finalize adds land in the tail and keep doc order sorted.
        idx.add(9, &bow(&["synthase"]));
        let (span, tail) = idx.term_postings(idx.term_ids["synthase"]);
        assert_eq!(tail.len(), 1);
        assert!(span.last().unwrap().doc < tail[0].doc);
    }

    #[test]
    fn filtered_search_fills_top_k() {
        // 30 even docs about "alpha", 5 odd docs about "alpha" with lower
        // term frequency: a filter for odd ids must still return all 5 odd
        // matches even though the top of the unfiltered ranking is even.
        let mut idx = InvertedIndex::new();
        for i in 0..30u64 {
            idx.add(i * 2, &BagOfWords::from_tokens(["alpha", "alpha", "alpha"]));
        }
        for i in 0..5u64 {
            idx.add(
                i * 2 + 1,
                &BagOfWords::from_tokens(["alpha", "pad", "pad", "pad"]),
            );
        }
        let odd = idx.search_filtered(&bow(&["alpha"]), 5, ScoringFunction::default(), |id| {
            id % 2 == 1
        });
        assert_eq!(odd.len(), 5, "filter-aware search must fill top_k");
        assert!(odd.iter().all(|(id, _)| id % 2 == 1));
    }

    #[test]
    fn taat_and_daat_strategies_agree() {
        let mut idx = InvertedIndex::new();
        for i in 0..50u64 {
            let mut words = vec!["common"];
            if i % 3 == 0 {
                words.push("fizz");
            }
            if i % 5 == 0 {
                words.push("buzz");
            }
            if i % 7 == 0 {
                words.extend(["rare", "rare"]);
            }
            idx.add(i, &BagOfWords::from_tokens(words));
        }
        idx.finalize();
        for scoring in [
            ScoringFunction::default(),
            ScoringFunction::LmDirichlet { mu: 50.0 },
        ] {
            let query = bow(&["common", "fizz", "rare"]);
            let avgdl = idx.avg_doc_length().max(1e-9);
            let taat = idx.scan_taat(idx.cursors(&query, scoring), 8, scoring, |_| true, avgdl);
            let daat = idx.scan_daat(idx.cursors(&query, scoring), 8, scoring, |_| true, avgdl);
            let pruned =
                idx.scan_daat_pruned(idx.cursors(&query, scoring), 8, scoring, |_| true, avgdl);
            assert_eq!(taat, daat, "scan strategies must rank identically");
            assert_eq!(daat, pruned, "block-max pruning must be exact");
        }
    }

    #[test]
    fn pruned_scan_matches_baseline_on_multi_block_lists() {
        // > BLOCK_POSTINGS docs per term so the arena has real blocks, with
        // a skewed tf distribution so the threshold climbs early and the
        // pruning path actually triggers.
        let mut idx = InvertedIndex::new();
        for i in 0..1000u64 {
            let mut words = vec!["common"; 1 + (i % 4) as usize];
            if i % 10 == 0 {
                words.push("decade");
            }
            if i % 97 == 0 {
                words.extend(["rare"; 3]);
            }
            idx.add(i, &BagOfWords::from_tokens(words.iter().copied()));
        }
        idx.finalize();
        // Tombstone some and leave a delta tail behind.
        for id in [3, 97, 500, 501] {
            assert!(idx.remove(id));
        }
        for i in 1000..1040u64 {
            idx.add(i, &bow(&["common", "decade"]));
        }
        for scoring in [
            ScoringFunction::default(),
            ScoringFunction::Bm25(Bm25Params { k1: 0.9, b: 0.4 }),
            ScoringFunction::LmDirichlet { mu: 200.0 },
        ] {
            for query in [
                &["common"][..],
                &["common", "decade"],
                &["common", "decade", "rare"],
            ] {
                for k in [1, 5, 17] {
                    let avgdl = idx.avg_doc_length().max(1e-9);
                    let baseline = idx.scan_daat(
                        idx.cursors(&bow(query), scoring),
                        k,
                        scoring,
                        |_| true,
                        avgdl,
                    );
                    let pruned = idx.scan_daat_pruned(
                        idx.cursors(&bow(query), scoring),
                        k,
                        scoring,
                        |_| true,
                        avgdl,
                    );
                    assert_eq!(
                        baseline, pruned,
                        "query {query:?} k={k} scoring {scoring:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn remove_tombstones_until_compact() {
        let mut idx = sample_index();
        idx.finalize();
        assert!(idx.remove(4));
        assert!(!idx.remove(4), "double removal is a no-op");
        assert!(!idx.remove(99), "unknown id is a no-op");
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.num_tombstoned(), 1);
        // Doc 4 no longer surfaces, for any scan strategy.
        let results = idx.search(&bow(&["synthase"]), 10);
        assert!(!results.iter().any(|(id, _)| *id == 4));
        assert!(results.iter().any(|(id, _)| *id == 1));
        let exhaustive = idx.search_exhaustive(&bow(&["synthase"]), 10, ScoringFunction::default());
        assert!(!exhaustive.iter().any(|(id, _)| *id == 4));
        // Live document frequency excludes the tombstoned doc.
        assert_eq!(idx.doc_freq("synthase"), 1);
        idx.compact();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.num_tombstoned(), 0);
        assert!(idx.is_finalized());
        assert!(!idx.search(&bow(&["synthase"]), 10).is_empty());
    }

    #[test]
    fn live_df_memo_tracks_mutations() {
        let mut idx = sample_index();
        idx.finalize();
        assert_eq!(idx.doc_freq("synthase"), 2);
        idx.remove(1);
        // First probe under tombstones computes and memoizes; the second
        // hits the memo. Both must see the live count.
        assert_eq!(idx.doc_freq("synthase"), 1);
        assert_eq!(idx.doc_freq("synthase"), 1);
        // A mutation invalidates the memo.
        idx.add(10, &bow(&["synthase", "synthase"]));
        assert_eq!(idx.doc_freq("synthase"), 2);
        idx.remove(4);
        assert_eq!(idx.doc_freq("synthase"), 1);
        idx.compact();
        assert_eq!(idx.doc_freq("synthase"), 1);
        // A clone never shares its parent's memo.
        let cloned = idx.clone();
        idx.remove(10);
        assert_eq!(idx.doc_freq("synthase"), 0);
        assert_eq!(cloned.doc_freq("synthase"), 1);
    }

    #[test]
    fn compact_matches_fresh_build_of_survivors() {
        // Incremental adds + removes, then compact: scores must be
        // identical to an index built over only the surviving elements.
        let mut incremental = InvertedIndex::new();
        let corpora: Vec<(u64, Vec<&str>)> = vec![
            (1, vec!["alpha", "beta", "gamma"]),
            (2, vec!["beta", "beta", "delta"]),
            (3, vec!["alpha", "delta", "epsilon"]),
            (4, vec!["gamma", "gamma", "zeta"]),
            (5, vec!["alpha", "zeta"]),
        ];
        for (id, words) in &corpora {
            incremental.add(*id, &BagOfWords::from_tokens(words.iter().copied()));
        }
        incremental.remove(2);
        incremental.remove(4);
        incremental.compact();

        let mut fresh = InvertedIndex::new();
        for (id, words) in &corpora {
            if *id != 2 && *id != 4 {
                fresh.add(*id, &BagOfWords::from_tokens(words.iter().copied()));
            }
        }
        fresh.finalize();

        for query in [&["alpha"][..], &["beta", "delta"], &["zeta", "gamma"]] {
            for scoring in [
                ScoringFunction::default(),
                ScoringFunction::LmDirichlet { mu: 100.0 },
            ] {
                let a = incremental.search_with(&bow(query), 5, scoring);
                let b = fresh.search_with(&bow(query), 5, scoring);
                assert_eq!(a.len(), b.len(), "query {query:?}");
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.0, y.0, "query {query:?}");
                    assert!((x.1 - y.1).abs() < 1e-12, "query {query:?}: {x:?} vs {y:?}");
                }
            }
        }
    }

    #[test]
    fn lazy_idf_refresh_bounds_staleness() {
        let mut idx = sample_index();
        idx.set_idf_refresh_ratio(Some(0.3));
        idx.finalize();
        assert_eq!(idx.idf_staleness(), 0);
        // One mutation: 1 <= 0.3 * 5 live docs, so the cache stays stale.
        idx.add(10, &bow(&["synthase", "novel"]));
        assert_eq!(idx.idf_staleness(), 1);
        assert!(!idx.is_finalized());
        // Queries still see the new doc (stale IDF, exact postings).
        assert!(idx
            .search(&bow(&["synthase"]), 10)
            .iter()
            .any(|(id, _)| *id == 10));
        // Crossing the ratio (2 > 0.3 × 6) triggers the automatic refresh.
        idx.add(11, &bow(&["synthase"]));
        assert!(idx.is_finalized(), "refresh should have fired");
        assert_eq!(idx.idf_staleness(), 0);
    }

    #[test]
    fn serde_roundtrip_preserves_tombstones() {
        let mut idx = sample_index();
        idx.remove(2);
        let json = serde_json::to_string(&idx).unwrap();
        let back: InvertedIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.num_tombstoned(), 1);
        assert!(!back
            .search(&bow(&["citric", "acid"]), 5)
            .iter()
            .any(|(id, _)| *id == 2));
        // The id map is rebuilt lazily: removing after a roundtrip works.
        let mut back = back;
        assert!(back.remove(3));
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn remove_preexisting_doc_after_roundtrip_and_add() {
        // `add` must rebuild the serde-skipped id map before inserting, or
        // pre-roundtrip documents become unremovable once anything new has
        // been indexed.
        let idx = sample_index();
        let json = serde_json::to_string(&idx).unwrap();
        let mut back: InvertedIndex = serde_json::from_str(&json).unwrap();
        back.add(50, &bow(&["fresh", "doc"]));
        assert!(back.remove(1), "pre-roundtrip doc must be removable");
        assert!(!back
            .search(&bow(&["pemetrexed"]), 5)
            .iter()
            .any(|(id, _)| *id == 1));
    }

    #[test]
    fn taat_scratch_survives_reentrant_and_panicking_filters() {
        let idx = sample_index();
        let query = bow(&["synthase", "enzyme"]);
        let clean = idx.search(&query, 10);
        // A filter that itself searches the index (reentrant borrow of the
        // thread-local scratch) must work, not panic.
        let reentrant = idx.search_filtered(&query, 10, ScoringFunction::default(), |_| {
            !idx.search(&bow(&["citric"]), 1).is_empty()
        });
        assert_eq!(reentrant, clean);
        // A panicking filter must not corrupt the scratch for later
        // queries on this thread.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.search_filtered(&query, 10, ScoringFunction::default(), |_| {
                panic!("filter exploded")
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(idx.search(&query, 10), clean, "scratch left dirty");
    }

    #[test]
    fn filtered_matches_postfilter_of_exhaustive() {
        let idx = sample_index();
        let all = idx.search(&bow(&["synthase", "enzyme", "acid"]), 10);
        let filtered = idx.search_filtered(
            &bow(&["synthase", "enzyme", "acid"]),
            10,
            ScoringFunction::default(),
            |id| id != 2,
        );
        let expected: Vec<(u64, f64)> = all.into_iter().filter(|(id, _)| *id != 2).collect();
        assert_eq!(filtered, expected);
    }
}
