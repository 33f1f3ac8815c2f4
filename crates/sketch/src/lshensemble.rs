//! LSH Ensemble: approximate set-containment search.
//!
//! Plain MinHash LSH targets Jaccard similarity, which degrades badly when
//! the query and the indexed sets have very different cardinalities — the
//! exact situation that arises in CMDL's cross-modality discovery (a short
//! document queried against large columns). The LSH Ensemble of Zhu et al.
//! (PVLDB 2016) fixes this by partitioning the indexed sets by cardinality
//! and, at query time, converting the containment threshold into a
//! per-partition Jaccard threshold using the partition's upper cardinality
//! bound:
//!
//! `J ≥ t·|Q| / (|Q| + u − t·|Q|)` where `u` is the partition's upper bound.
//!
//! ## Query path
//!
//! Signatures are inserted behind `Arc` (the profiler keeps ownership; the
//! index shares them without deep-cloning). [`build`](LshEnsemble::build)
//! additionally constructs a *position-postings* structure — for every
//! signature position, a radix-bucketed table from signature value to the
//! rows holding that value (banded LSH with one-row bands). A probe then
//! performs one bucket lookup per position and increments sparse per-row
//! match counters, touching only rows that share at least one position with
//! the query instead of scanning every signature. Match counts obtained
//! this way are *identical* to a full scan (the tables compare 32-bit
//! truncations of the values; a truncation collision has probability 2⁻³²
//! per position, far below the estimator's own error), so `query` and
//! `query_top_k` return exactly what the brute-force path would.
//!
//! ## Incremental maintenance
//!
//! Inserts after [`build`](LshEnsemble::build) accumulate in an
//! update-optimized *pending delta*: queries keep probing the radix-bucketed
//! postings over the built rows and scan the (small) delta exactly, so the
//! accelerator never disarms during ingestion. [`remove`](LshEnsemble::remove)
//! tombstones built rows in place (pending entries are dropped directly), and
//! [`compact`](LshEnsemble::compact) folds tombstones and the delta back into
//! the partitioned dense layout ([`needs_compaction`](LshEnsemble::needs_compaction)
//! implements the periodic-compaction policy).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::lsh::optimal_params;
use crate::minhash::MinHash;

/// Configuration for [`LshEnsemble`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshEnsembleConfig {
    /// Number of cardinality partitions. Default 8.
    pub num_partitions: usize,
    /// Number of MinHash values per signature (must match the hasher).
    pub num_hashes: usize,
    /// Default containment threshold for `query` (can be overridden per call).
    pub default_threshold: f64,
}

impl Default for LshEnsembleConfig {
    fn default() -> Self {
        Self {
            num_partitions: 8,
            num_hashes: crate::minhash::DEFAULT_NUM_HASHES,
            default_threshold: 0.5,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    id: u64,
    signature: Arc<MinHash>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Partition {
    lower: usize,
    upper: usize,
    entries: Vec<Entry>,
}

/// Per-position postings: for each signature position, a radix-bucketed,
/// value-sorted table of `(value, row)` pairs. Probing costs one bucket
/// lookup per position instead of one comparison per row×position.
///
/// Values are stored as 32-bit truncations; see the module docs for why
/// this is safe. Rebuilt by [`LshEnsemble::build`]; not serialized.
#[derive(Debug, Clone, Default)]
struct PositionPostings {
    /// Signature length.
    width: usize,
    /// Number of indexed rows.
    rows: usize,
    /// log₂ of the per-position bucket count.
    bucket_bits: u32,
    /// CSR bucket offsets: `width × (buckets + 1)` entries; the segment for
    /// position `p` starts at `p × (buckets + 1)`.
    offsets: Vec<u32>,
    /// Truncated values grouped by position, then bucket: `width × rows`.
    values: Vec<u32>,
    /// Row index parallel to `values`.
    row_ids: Vec<u32>,
}

impl PositionPostings {
    fn build(signatures: &[&MinHash]) -> Self {
        let rows = signatures.len();
        let width = signatures.first().map(|s| s.num_hashes()).unwrap_or(0);
        // ~1 expected entry per bucket, capped for memory sanity.
        let bucket_bits = (rows.max(2).next_power_of_two().trailing_zeros()).clamp(1, 16);
        let buckets = 1usize << bucket_bits;
        let mut offsets = vec![0u32; width * (buckets + 1)];
        let mut values = vec![0u32; width * rows];
        let mut row_ids = vec![0u32; width * rows];
        let shift = 32 - bucket_bits;
        for p in 0..width {
            let off = &mut offsets[p * (buckets + 1)..(p + 1) * (buckets + 1)];
            // Counting sort of this position's values into buckets.
            for sig in signatures.iter() {
                let v = sig.values()[p] as u32;
                off[(v >> shift) as usize + 1] += 1;
            }
            for b in 0..buckets {
                off[b + 1] += off[b];
            }
            let mut cursor: Vec<u32> = off[..buckets].to_vec();
            let seg = p * rows;
            for (row, sig) in signatures.iter().enumerate() {
                let v = sig.values()[p] as u32;
                let slot = &mut cursor[(v >> shift) as usize];
                values[seg + *slot as usize] = v;
                row_ids[seg + *slot as usize] = row as u32;
                *slot += 1;
            }
        }
        Self {
            width,
            rows,
            bucket_bits,
            offsets,
            values,
            row_ids,
        }
    }

    fn matches_rows(&self) -> bool {
        self.values.len() == self.width * self.rows
    }

    /// Count, for every row sharing at least one position value with the
    /// query, how many positions match. Returns the touched rows; counts
    /// are left in `counts` (callers reset them via the touched list).
    fn count_matches(&self, query_values: &[u64], counts: &mut [u16], touched: &mut Vec<u32>) {
        if self.rows == 0 || self.width == 0 {
            return;
        }
        let buckets = 1usize << self.bucket_bits;
        let shift = 32 - self.bucket_bits;
        for (p, &qv) in query_values.iter().take(self.width).enumerate() {
            let q = qv as u32;
            let off = &self.offsets[p * (buckets + 1)..(p + 1) * (buckets + 1)];
            let bucket = (q >> shift) as usize;
            let seg = p * self.rows;
            let (start, end) = (off[bucket] as usize, off[bucket + 1] as usize);
            for i in start..end {
                if self.values[seg + i] == q {
                    let row = self.row_ids[seg + i] as usize;
                    if counts[row] == 0 {
                        touched.push(row as u32);
                    }
                    counts[row] += 1;
                }
            }
        }
    }
}

/// An LSH Ensemble index for containment queries, keyed by opaque `u64` ids.
///
/// The index is built in two phases: [`insert`](LshEnsemble::insert) all
/// elements, then [`build`](LshEnsemble::build) to create the cardinality
/// partitions and the position-postings probe structure. Queries before
/// `build` (or after deserialization, until the next `build`) fall back to
/// a brute-force scan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshEnsemble {
    config: LshEnsembleConfig,
    pending: Vec<Entry>,
    partitions: Vec<Partition>,
    built: bool,
    /// Tombstoned external ids (still present in `partitions` until the next
    /// [`compact`](Self::compact)).
    dead: std::collections::HashSet<u64>,
    /// Probe accelerator over all partitioned entries, in partition order.
    #[serde(skip)]
    postings: PositionPostings,
    /// Row → external id, parallel to the postings' row numbering.
    #[serde(skip)]
    row_ids: Vec<u64>,
    /// Row → set cardinality.
    #[serde(skip)]
    row_cards: Vec<u32>,
    /// Row → tombstone flag, parallel to `row_ids`.
    #[serde(skip)]
    row_dead: Vec<bool>,
    /// External id → row, for tombstoning built rows.
    #[serde(skip)]
    id_to_row: std::collections::HashMap<u64, u32>,
}

impl LshEnsemble {
    /// Create an empty ensemble with the given configuration.
    pub fn new(config: LshEnsembleConfig) -> Self {
        Self {
            config,
            pending: Vec::new(),
            partitions: Vec::new(),
            built: false,
            dead: std::collections::HashSet::new(),
            postings: PositionPostings::default(),
            row_ids: Vec::new(),
            row_cards: Vec::new(),
            row_dead: Vec::new(),
            id_to_row: std::collections::HashMap::new(),
        }
    }

    /// Create an ensemble with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(LshEnsembleConfig::default())
    }

    /// Number of live indexed elements.
    pub fn len(&self) -> usize {
        self.pending.len()
            + self
                .partitions
                .iter()
                .map(|p| p.entries.len())
                .sum::<usize>()
            - self.dead.len()
    }

    /// Is the ensemble empty (of live elements)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries in the pending (unpartitioned) delta.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// Number of tombstoned entries awaiting [`compact`](Self::compact).
    pub fn num_tombstoned(&self) -> usize {
        self.dead.len()
    }

    /// Insert an element signature.
    ///
    /// Before the first [`build`](Self::build), inserted entries wait in the
    /// pending list and queries fall back to a full scan. After a build,
    /// inserts land in the pending *delta*: the radix-bucket probe keeps
    /// serving the built rows and the delta is scanned exactly, so no
    /// rebuild is needed until [`compact`](Self::compact).
    ///
    /// Accepts either an owned `MinHash` or an `Arc<MinHash>`; passing the
    /// `Arc` shares the profiler's signature without copying its values.
    pub fn insert(&mut self, id: u64, signature: impl Into<Arc<MinHash>>) {
        self.pending.push(Entry {
            id,
            signature: signature.into(),
        });
    }

    /// Tombstone the element indexed under `id`: pending entries are dropped
    /// directly, built rows are skipped by every probe until the next
    /// [`compact`](Self::compact). Returns `false` for unknown ids.
    pub fn remove(&mut self, id: u64) -> bool {
        if let Some(pos) = self.pending.iter().position(|e| e.id == id) {
            self.pending.remove(pos);
            return true;
        }
        if self.dead.contains(&id) {
            return false;
        }
        let known = if let Some(&row) = self.id_to_row.get(&id) {
            if let Some(flag) = self.row_dead.get_mut(row as usize) {
                *flag = true;
            }
            true
        } else {
            // No probe structure (e.g. after deserialization): fall back to
            // scanning the partitions.
            self.partitions
                .iter()
                .any(|p| p.entries.iter().any(|e| e.id == id))
        };
        if known {
            self.dead.insert(id);
        }
        known
    }

    /// Does the delta state (pending inserts + tombstones) exceed `ratio` of
    /// the total entry count? The ingestion layer uses this as the periodic
    /// compaction trigger.
    pub fn needs_compaction(&self, ratio: f64) -> bool {
        let total = self.len() + self.dead.len();
        total > 0 && (self.pending.len() + self.dead.len()) as f64 > ratio * total as f64
    }

    /// Fold tombstones and the pending delta back into the partitioned dense
    /// layout (equivalent to [`build`](Self::build)).
    pub fn compact(&mut self) {
        self.build();
    }

    /// Partition the inserted elements by cardinality (equi-depth partitions,
    /// as in the original paper's optimal partitioning under a power-law
    /// assumption) and build the position-postings probe structure.
    pub fn build(&mut self) {
        let mut all: Vec<Entry> = self.partitions.drain(..).flat_map(|p| p.entries).collect();
        all.append(&mut self.pending);
        if !self.dead.is_empty() {
            all.retain(|e| !self.dead.contains(&e.id));
            self.dead.clear();
        }
        self.postings = PositionPostings::default();
        self.row_ids.clear();
        self.row_cards.clear();
        self.row_dead.clear();
        self.id_to_row.clear();
        if all.is_empty() {
            self.built = true;
            return;
        }
        all.sort_by_key(|e| e.signature.cardinality());
        let n = all.len();
        let parts = self.config.num_partitions.max(1).min(n);
        let chunk = n.div_ceil(parts);
        self.partitions = all
            .chunks(chunk)
            .map(|entries| Partition {
                lower: entries
                    .first()
                    .map(|e| e.signature.cardinality())
                    .unwrap_or(0),
                upper: entries
                    .last()
                    .map(|e| e.signature.cardinality())
                    .unwrap_or(0),
                entries: entries.to_vec(),
            })
            .collect();
        self.rebuild_postings();
        self.built = true;
    }

    /// (Re)build the probe structure from the current partitions. Split out
    /// so deserialized indexes can be re-armed without re-partitioning.
    pub fn rebuild_postings(&mut self) {
        let entries: Vec<&Entry> = self.partitions.iter().flat_map(|p| &p.entries).collect();
        let signatures: Vec<&MinHash> = entries.iter().map(|e| e.signature.as_ref()).collect();
        self.postings = PositionPostings::build(&signatures);
        self.row_ids = entries.iter().map(|e| e.id).collect();
        self.row_cards = entries
            .iter()
            .map(|e| e.signature.cardinality() as u32)
            .collect();
        // `dead` is non-empty here only on the standalone re-arm path (a
        // deserialized ensemble whose tombstones were serialized); `build`
        // clears it before calling in, so this lookup is all-false there.
        self.row_dead = self
            .row_ids
            .iter()
            .map(|id| self.dead.contains(id))
            .collect();
        self.id_to_row = self
            .row_ids
            .iter()
            .enumerate()
            .map(|(row, &id)| (id, row as u32))
            .collect();
    }

    /// Is the index fully folded (built, with no pending delta)?
    pub fn is_built(&self) -> bool {
        self.built && self.pending.is_empty()
    }

    /// Can queries use the postings accelerator (over the built rows)?
    fn probe_ready(&self) -> bool {
        self.built
            && self.postings.matches_rows()
            && self.postings.rows == self.row_ids.len()
            && self.postings.rows == self.row_dead.len()
            && self.postings.rows
                == self
                    .partitions
                    .iter()
                    .map(|p| p.entries.len())
                    .sum::<usize>()
    }

    /// All live entries, partitioned first then pending, for fallback scans.
    fn all_entries(&self) -> impl Iterator<Item = &Entry> {
        self.partitions
            .iter()
            .flat_map(|p| &p.entries)
            .chain(self.pending.iter())
            .filter(|e| !self.dead.contains(&e.id))
    }

    /// Is a built row tombstoned?
    #[inline]
    fn is_row_dead(&self, row: usize) -> bool {
        self.row_dead.get(row).copied().unwrap_or(false)
    }

    /// Query for elements whose estimated containment of `query` (i.e.
    /// `|Q ∩ X| / |Q|`) is at least `threshold`. Returns `(id, containment)`
    /// sorted by containment descending.
    pub fn query(&self, query: &MinHash, threshold: f64) -> Vec<(u64, f64)> {
        let mut results: Vec<(u64, f64)> = Vec::new();
        if !self.probe_ready() {
            for e in self.all_entries() {
                let c = query.containment_in(&e.signature);
                if c >= threshold {
                    results.push((e.id, c));
                }
            }
        } else {
            self.probe(query, |ensemble, counts, touched| {
                if threshold > 0.0 {
                    // Untouched rows have zero matching positions and
                    // therefore zero estimated containment: only touched
                    // rows can qualify.
                    for &row in touched.iter() {
                        if ensemble.is_row_dead(row as usize) {
                            continue;
                        }
                        let c = ensemble.row_containment(query, row as usize, counts[row as usize]);
                        if c >= threshold {
                            results.push((ensemble.row_ids[row as usize], c));
                        }
                    }
                } else {
                    for (row, &count) in counts.iter().enumerate().take(ensemble.postings.rows) {
                        if ensemble.is_row_dead(row) {
                            continue;
                        }
                        let c = ensemble.row_containment(query, row, count);
                        results.push((ensemble.row_ids[row], c));
                    }
                }
                // Exact scan of the pending delta.
                for e in &ensemble.pending {
                    let c = query.containment_in(&e.signature);
                    if threshold <= 0.0 || c >= threshold {
                        results.push((e.id, c));
                    }
                }
            });
        }
        results.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        results
    }

    /// Query for the `top_k` elements with the highest estimated containment
    /// of `query`, regardless of threshold.
    ///
    /// Exact with respect to the estimator: equivalent to scoring every
    /// indexed element and keeping the best `top_k`, but only rows sharing
    /// at least one signature position with the query are actually scored
    /// (rows sharing none have containment 0 and are used only to pad an
    /// underfull result).
    pub fn query_top_k(&self, query: &MinHash, top_k: usize) -> Vec<(u64, f64)> {
        if top_k == 0 {
            return Vec::new();
        }
        if !self.probe_ready() {
            let mut results: Vec<(u64, f64)> = self
                .all_entries()
                .map(|e| (e.id, query.containment_in(&e.signature)))
                .collect();
            results.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            results.truncate(top_k);
            return results;
        }
        let mut heap = BoundedMinHeap::new(top_k);
        self.probe(query, |ensemble, counts, touched| {
            for &row in touched.iter() {
                if ensemble.is_row_dead(row as usize) {
                    continue;
                }
                let c = ensemble.row_containment(query, row as usize, counts[row as usize]);
                heap.offer(c, ensemble.row_ids[row as usize]);
            }
            // Exact scan of the pending delta.
            for e in &ensemble.pending {
                heap.offer(query.containment_in(&e.signature), e.id);
            }
            if heap.len() < top_k {
                // Fewer scored rows than requested: pad with
                // zero-containment rows in deterministic (partition) order,
                // as a full scan would.
                for (row, &count) in counts.iter().enumerate().take(ensemble.postings.rows) {
                    if heap.len() >= top_k {
                        break;
                    }
                    if count == 0 && !ensemble.is_row_dead(row) {
                        heap.offer(0.0, ensemble.row_ids[row]);
                    }
                }
            }
        });
        heap.into_sorted_desc()
    }

    /// Reference implementation of the pre-optimization top-k query: score
    /// every indexed signature with [`MinHash::containment_in`], sort, and
    /// truncate. Kept as the oracle of the estimator-parity tests and of
    /// the benchmark's recall metric; production queries use
    /// [`query_top_k`](Self::query_top_k).
    pub fn query_top_k_brute(&self, query: &MinHash, top_k: usize) -> Vec<(u64, f64)> {
        let mut results: Vec<(u64, f64)> = self
            .all_entries()
            .map(|e| (e.id, query.containment_in(&e.signature)))
            .collect();
        results.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        results.truncate(top_k);
        results
    }

    /// Run the position probe, returning per-row match counts and the
    /// touched row list.
    /// The per-row match-count buffer and touched-row list are kept in
    /// thread-local scratch (grown to the index size, reset sparsely via
    /// the touched list) so probes allocate nothing on the steady state.
    fn probe(&self, query: &MinHash, handle: impl FnOnce(&Self, &[u16], &[u32])) {
        PROBE_SCRATCH.with(|scratch| {
            let (counts, touched) = &mut *scratch.borrow_mut();
            if counts.len() < self.postings.rows {
                counts.resize(self.postings.rows, 0);
            }
            touched.clear();
            self.postings.count_matches(query.values(), counts, touched);
            handle(self, counts, touched);
            for &row in touched.iter() {
                counts[row as usize] = 0;
            }
        });
    }

    /// Containment estimate for a probed row from its match count (the same
    /// formula as [`MinHash::containment_in`]).
    fn row_containment(&self, query: &MinHash, row: usize, matches: u16) -> f64 {
        containment_from_matches(
            matches as usize,
            self.postings.width,
            query.cardinality(),
            self.row_cards[row] as usize,
        )
    }

    /// The Jaccard threshold a partition with upper bound `upper` would use
    /// for a containment threshold `t` and query cardinality `q` (exposed for
    /// testing and for the paper's discussion of why containment is more
    /// robust than Jaccard under skew).
    pub fn containment_to_jaccard(t: f64, q: usize, upper: usize) -> f64 {
        let q = q as f64;
        let u = upper as f64;
        let denom = q + u - t * q;
        if denom <= 0.0 {
            1.0
        } else {
            (t * q / denom).clamp(0.0, 1.0)
        }
    }

    /// Band parameters that would target the given Jaccard threshold with the
    /// configured signature length.
    pub fn band_params_for(&self, jaccard_threshold: f64) -> (usize, usize) {
        optimal_params(self.config.num_hashes, jaccard_threshold)
    }
}

thread_local! {
    /// Reusable probe scratch: per-row match counts and touched-row list.
    static PROBE_SCRATCH: std::cell::RefCell<(Vec<u16>, Vec<u32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// A bounded min-heap over `(containment, id)` keeping the `k` largest,
/// implemented as a sorted array (ascending by containment) — optimal for
/// the small `k` of index probes.
struct BoundedMinHeap {
    k: usize,
    items: Vec<(f64, u64)>,
}

impl BoundedMinHeap {
    fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k + 1),
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn offer(&mut self, score: f64, id: u64) {
        if self.items.len() < self.k {
            self.items.push((score, id));
            if self.items.len() == self.k {
                self.items
                    .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            }
        } else if score > self.items[0].0 {
            self.items[0] = (score, id);
            let mut i = 0;
            while i + 1 < self.items.len() && self.items[i].0 > self.items[i + 1].0 {
                self.items.swap(i, i + 1);
                i += 1;
            }
        }
    }

    fn into_sorted_desc(self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self.items.into_iter().map(|(c, id)| (id, c)).collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        out
    }
}

/// Containment estimate from a raw signature match count (the same formula
/// as [`MinHash::containment_in`], without re-deriving the match count).
fn containment_from_matches(matches: usize, width: usize, q_card: usize, e_card: usize) -> f64 {
    if q_card == 0 || width == 0 {
        return 0.0;
    }
    let j = matches as f64 / width as f64;
    let a = q_card as f64;
    let b = e_card as f64;
    let inter = j * (a + b) / (1.0 + j);
    (inter / a).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;

    fn items(range: std::ops::Range<u32>) -> Vec<String> {
        range.map(|i| format!("v{i}")).collect()
    }

    #[test]
    fn finds_containing_sets() {
        let hasher = MinHasher::new(256, 11);
        let mut ens = LshEnsemble::with_defaults();
        // Column 1 contains the query entirely; column 2 partially; column 3 not at all.
        ens.insert(1, hasher.signature(items(0..500).iter()));
        ens.insert(2, hasher.signature(items(0..10).iter()));
        ens.insert(3, hasher.signature(items(5000..5500).iter()));
        ens.build();

        let query = hasher.signature(items(0..20).iter());
        let results = ens.query(&query, 0.5);
        assert_eq!(results[0].0, 1, "fully-containing set should rank first");
        assert!(!results.iter().any(|(id, _)| *id == 3));
    }

    #[test]
    fn top_k_ordering() {
        let hasher = MinHasher::new(256, 12);
        let mut ens = LshEnsemble::with_defaults();
        for i in 0..10u64 {
            // set i covers items 0..(10 + i*30), so higher i contains more of the query
            ens.insert(i, hasher.signature(items(0..(10 + i as u32 * 30)).iter()));
        }
        ens.build();
        let query = hasher.signature(items(0..100).iter());
        let top = ens.query_top_k(&query, 3);
        assert_eq!(top.len(), 3);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
        assert!(top.iter().any(|(id, _)| *id == 9));
    }

    #[test]
    fn top_k_matches_full_scan() {
        // The probe-accelerated scan must be exactly equivalent to brute
        // force over the containment estimator.
        let hasher = MinHasher::one_permutation(128, 21);
        let mut ens = LshEnsemble::with_defaults();
        let mut signatures = Vec::new();
        for i in 0..40u64 {
            let lo = (i as u32 * 7) % 60;
            let sig = hasher.signature(items(lo..lo + 20 + (i as u32 % 50)).iter());
            ens.insert(i, sig.clone());
            signatures.push((i, sig));
        }
        ens.build();
        let query = hasher.signature(items(10..60).iter());
        let top = ens.query_top_k(&query, 5);
        let mut brute: Vec<(u64, f64)> = signatures
            .iter()
            .map(|(id, sig)| (*id, query.containment_in(sig)))
            .collect();
        brute.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        assert_eq!(top.len(), 5);
        for (got, want) in top.iter().zip(brute.iter()) {
            assert!(
                (got.1 - want.1).abs() < 1e-12,
                "scores diverge: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn thresholded_query_matches_full_scan() {
        let hasher = MinHasher::one_permutation(128, 22);
        let mut ens = LshEnsemble::with_defaults();
        let mut signatures = Vec::new();
        for i in 0..30u64 {
            let lo = (i as u32 * 11) % 40;
            let sig = hasher.signature(items(lo..lo + 15 + (i as u32 % 30)).iter());
            ens.insert(i, sig.clone());
            signatures.push((i, sig));
        }
        ens.build();
        let query = hasher.signature(items(5..35).iter());
        for threshold in [0.0, 0.2, 0.5, 0.9] {
            let got = ens.query(&query, threshold);
            let mut want: Vec<(u64, f64)> = signatures
                .iter()
                .map(|(id, sig)| (*id, query.containment_in(sig)))
                .filter(|(_, c)| *c >= threshold)
                .collect();
            want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            assert_eq!(
                got.len(),
                want.len(),
                "cardinality mismatch at threshold {threshold}"
            );
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.1 - w.1).abs() < 1e-12, "{g:?} vs {w:?} at {threshold}");
            }
        }
    }

    #[test]
    fn unbuilt_query_still_works() {
        let hasher = MinHasher::new(128, 13);
        let mut ens = LshEnsemble::with_defaults();
        ens.insert(1, hasher.signature(items(0..50).iter()));
        assert!(!ens.is_built());
        let res = ens.query_top_k(&hasher.signature(items(0..50).iter()), 1);
        assert_eq!(res[0].0, 1);
    }

    #[test]
    fn containment_to_jaccard_conversion() {
        // Query of 10 items, upper bound 1000, containment threshold 0.9:
        // Jaccard threshold should be small (~0.009).
        let j = LshEnsemble::containment_to_jaccard(0.9, 10, 1000);
        assert!(j < 0.02);
        // Equal cardinalities: containment 1.0 -> Jaccard 1.0.
        let j2 = LshEnsemble::containment_to_jaccard(1.0, 100, 100);
        assert!((j2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_ensemble() {
        let hasher = MinHasher::new(64, 14);
        let mut ens = LshEnsemble::with_defaults();
        ens.build();
        assert!(ens.is_empty());
        assert!(ens.query_top_k(&hasher.signature(["x1"]), 5).is_empty());
    }

    #[test]
    fn rebuild_after_insert() {
        let hasher = MinHasher::new(128, 15);
        let mut ens = LshEnsemble::with_defaults();
        ens.insert(1, hasher.signature(items(0..50).iter()));
        ens.build();
        ens.insert(2, hasher.signature(items(0..60).iter()));
        assert!(!ens.is_built());
        ens.build();
        assert_eq!(ens.len(), 2);
        let res = ens.query_top_k(&hasher.signature(items(0..50).iter()), 2);
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn pending_delta_served_without_rebuild() {
        let hasher = MinHasher::one_permutation(128, 31);
        let mut ens = LshEnsemble::with_defaults();
        let mut signatures = Vec::new();
        for i in 0..30u64 {
            let lo = (i as u32 * 9) % 50;
            let sig = hasher.signature(items(lo..lo + 25).iter());
            ens.insert(i, sig.clone());
            signatures.push((i, sig));
        }
        ens.build();
        // Post-build inserts: the probe stays armed, the delta is scanned
        // exactly, and results still match brute force over everything.
        for i in 30..40u64 {
            let lo = (i as u32 * 9) % 50;
            let sig = hasher.signature(items(lo..lo + 25).iter());
            ens.insert(i, sig.clone());
            signatures.push((i, sig));
        }
        assert_eq!(ens.num_pending(), 10);
        assert!(!ens.is_built());
        let query = hasher.signature(items(10..45).iter());
        let got = ens.query_top_k(&query, 6);
        let mut want: Vec<(u64, f64)> = signatures
            .iter()
            .map(|(id, sig)| (*id, query.containment_in(sig)))
            .collect();
        want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        assert_eq!(got.len(), 6);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.1 - w.1).abs() < 1e-12, "{g:?} vs {w:?}");
        }
        // Thresholded queries merge the delta too.
        let got = ens.query(&query, 0.3);
        let want_len = signatures
            .iter()
            .filter(|(_, sig)| query.containment_in(sig) >= 0.3)
            .count();
        assert_eq!(got.len(), want_len);
        // Compaction folds the delta into the dense layout.
        ens.compact();
        assert_eq!(ens.num_pending(), 0);
        assert!(ens.is_built());
        let folded = ens.query_top_k(&query, 6);
        for (g, w) in folded.iter().zip(want.iter()) {
            assert!((g.1 - w.1).abs() < 1e-12);
        }
    }

    #[test]
    fn remove_tombstones_until_compact() {
        let hasher = MinHasher::one_permutation(128, 32);
        let mut ens = LshEnsemble::with_defaults();
        for i in 0..12u64 {
            ens.insert(i, hasher.signature(items(0..20 + i as u32).iter()));
        }
        ens.build();
        // Pending entries are dropped physically.
        ens.insert(100, hasher.signature(items(0..25).iter()));
        assert!(ens.remove(100));
        assert_eq!(ens.num_pending(), 0);
        // Built rows are tombstoned.
        assert!(ens.remove(3));
        assert!(!ens.remove(3), "double removal is a no-op");
        assert!(!ens.remove(999), "unknown id is a no-op");
        assert_eq!(ens.len(), 11);
        assert_eq!(ens.num_tombstoned(), 1);
        let query = hasher.signature(items(0..20).iter());
        assert!(!ens
            .query_top_k(&query, 12)
            .iter()
            .any(|(id, _)| *id == 3 || *id == 100));
        assert!(!ens.query(&query, 0.0).iter().any(|(id, _)| *id == 3));
        // The compaction policy flags heavy delta state.
        assert!(!ens.needs_compaction(0.5));
        assert!(ens.needs_compaction(0.05));
        ens.compact();
        assert_eq!(ens.num_tombstoned(), 0);
        assert_eq!(ens.len(), 11);
        assert!(!ens.query_top_k(&query, 12).iter().any(|(id, _)| *id == 3));
    }

    #[test]
    fn shared_signatures_do_not_copy() {
        let hasher = MinHasher::new(64, 16);
        let sig = Arc::new(hasher.signature(items(0..30).iter()));
        let mut ens = LshEnsemble::with_defaults();
        ens.insert(1, Arc::clone(&sig));
        // The ensemble holds the same allocation, not a deep clone.
        assert_eq!(Arc::strong_count(&sig), 2);
        ens.build();
        let res = ens.query_top_k(&hasher.signature(items(0..30).iter()), 1);
        assert_eq!(res[0].0, 1);
    }

    #[test]
    fn underfull_top_k_pads_with_zero_containment() {
        let hasher = MinHasher::one_permutation(64, 18);
        let mut ens = LshEnsemble::with_defaults();
        ens.insert(1, hasher.signature(items(0..20).iter()));
        ens.insert(2, hasher.signature(items(1000..1020).iter()));
        ens.insert(3, hasher.signature(items(2000..2020).iter()));
        ens.build();
        // The query overlaps only set 1; the others pad the result at 0.
        let res = ens.query_top_k(&hasher.signature(items(0..20).iter()), 3);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].0, 1);
        assert!(res[0].1 > 0.9);
    }

    #[test]
    fn serde_roundtrip_requires_rebuild() {
        let hasher = MinHasher::new(64, 17);
        let mut ens = LshEnsemble::with_defaults();
        for i in 0..8u64 {
            ens.insert(
                i,
                hasher.signature(items(i as u32 * 5..i as u32 * 5 + 25).iter()),
            );
        }
        ens.build();
        let query = hasher.signature(items(0..25).iter());
        let before = ens.query_top_k(&query, 3);
        let json = serde_json::to_string(&ens).unwrap();
        let mut back: LshEnsemble = serde_json::from_str(&json).unwrap();
        // Deserialized indexes fall back to brute force until re-armed.
        let after = back.query_top_k(&query, 3);
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(after.iter()) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-12);
        }
        // Re-arming the probe structure reproduces the same results.
        back.rebuild_postings();
        let rearmed = back.query_top_k(&query, 3);
        for (a, b) in before.iter().zip(rearmed.iter()) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-12);
        }
    }
}
