//! The CMDL indexing framework (paper Figure 2, "Indexing Framework").
//!
//! Every sketch produced by the profiler is indexed with an appropriate
//! structure: bag-of-words content and metadata with the BM25 inverted index
//! (the elastic-search role), MinHash signatures with the LSH Ensemble for
//! containment queries, and solo embeddings with the Annoy-style ANN index.
//! After the joint model is trained, the joint embeddings are indexed with a
//! second ANN index (see [`crate::discovery::Cmdl::train_joint`]). The
//! tabular columns' distinct values, names and embedding norms feed the
//! [`ColumnIndex`] that join, union and PK-FK discovery probe.

use std::collections::HashMap;
use std::sync::Arc;

use cmdl_datalake::{DeId, DeKind};
use cmdl_index::{AnnIndex, AnnIndexConfig, CorpusStats, InvertedIndex, ScoringFunction};
use cmdl_sketch::{LshEnsemble, LshEnsembleConfig, MinHash};
use cmdl_text::BagOfWords;

use crate::column_index::ColumnIndex;
use crate::config::CmdlConfig;
use crate::profile::{DeProfile, ProfiledLake};

/// Does a profile participate in the containment (LSH Ensemble) index?
/// Shared by the batch build and the delta-ingestion path so the two can
/// never disagree about eligibility.
fn containment_eligible(profile: &DeProfile) -> bool {
    profile.kind == DeKind::Column && (profile.tags.text_searchable || profile.tags.join_candidate)
}

/// Does a profile participate in the embedding (ANN) indexes?
fn embedding_eligible(profile: &DeProfile) -> bool {
    profile.kind == DeKind::Column && profile.tags.text_searchable
}

/// Profiles in the lake's canonical element order (columns first, then
/// documents) — the construction order every index build uses, so tree
/// shapes and partition layouts are reproducible.
fn ordered_profiles(profiled: &ProfiledLake) -> Vec<&DeProfile> {
    profiled
        .column_ids
        .iter()
        .chain(profiled.doc_ids.iter())
        .filter_map(|&id| profiled.profile(id))
        .collect()
}

/// Canonical containment-ensemble construction. Shared verbatim by
/// [`IndexCatalog::build`] and [`IndexCatalog::compact`]: the
/// compacted-equals-batch-built parity guarantee requires the two to be one
/// code path.
fn build_containment(ordered: &[&DeProfile], config: &CmdlConfig) -> LshEnsemble {
    let mut containment = LshEnsemble::new(LshEnsembleConfig {
        num_hashes: config.minhash_hashes,
        default_threshold: config.containment_threshold,
        ..Default::default()
    });
    for profile in ordered {
        if containment_eligible(profile) {
            containment.insert(profile.id.raw(), Arc::clone(&profile.minhash));
        }
    }
    containment.build();
    containment
}

/// Canonical solo-embedding ANN construction (shared by build and compact,
/// like [`build_containment`]).
fn build_solo_ann(ordered: &[&DeProfile], config: &CmdlConfig) -> AnnIndex {
    let mut solo_ann = AnnIndex::new(
        config.embedding_dim,
        AnnIndexConfig {
            num_trees: config.ann_trees,
            seed: config.seed,
            quantize: config.ann_quantize,
            rerank_factor: config.ann_rerank_factor,
            ..Default::default()
        },
    );
    for profile in ordered {
        if embedding_eligible(profile) {
            solo_ann.add(profile.id.raw(), &profile.solo.content);
        }
    }
    solo_ann.build();
    solo_ann
}

/// An empty joint-space ANN index (shared by [`IndexCatalog::install_joint`]
/// and [`IndexCatalog::compact`] so the tree seed cannot drift).
fn new_joint_ann(config: &CmdlConfig) -> AnnIndex {
    AnnIndex::new(
        config.joint_dim,
        AnnIndexConfig {
            num_trees: config.ann_trees,
            seed: config.seed ^ 0xBEEF,
            quantize: config.ann_quantize,
            rerank_factor: config.ann_rerank_factor,
            ..Default::default()
        },
    )
}

/// Delta-state statistics of the catalog (pending inserts + tombstones per
/// index), used to drive the periodic-compaction policy and reported by
/// [`CmdlStats`](crate::stats::CmdlStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DeltaStats {
    /// Tombstoned entries in the content inverted index.
    pub content_tombstoned: usize,
    /// Pending + tombstoned entries in the containment ensemble.
    pub containment_delta: usize,
    /// Delta-tail + tombstoned vectors in the solo ANN index.
    pub solo_delta: usize,
    /// Delta-tail + tombstoned vectors in the joint ANN index.
    pub joint_delta: usize,
}

/// All indexes built over a profiled lake.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct IndexCatalog {
    /// BM25/LM inverted index over the *content* of every element.
    pub content: InvertedIndex,
    /// BM25/LM inverted index over the *metadata* of every element.
    pub metadata: InvertedIndex,
    /// LSH Ensemble over the MinHash signatures of the tabular columns
    /// (queried with document or column signatures for containment).
    pub containment: LshEnsemble,
    /// ANN index over the content solo embeddings of the tabular columns.
    pub solo_ann: AnnIndex,
    /// ANN index over the joint embeddings of the tabular columns (present
    /// after joint training).
    pub joint_ann: Option<AnnIndex>,
    /// Joint embeddings of every element (documents and columns), present
    /// after joint training. Reference-counted: the joint ANN index shares
    /// the same vectors.
    pub joint_embeddings: HashMap<DeId, Arc<Vec<f32>>>,
    /// Value postings and prepared features of the tabular columns, for
    /// join, union and PK-FK discovery. Derived entirely from the
    /// profiles, so it is not serialized: a segment load rebuilds it (see
    /// [`restore_runtime_state`](Self::restore_runtime_state)).
    #[serde(skip)]
    pub columns: ColumnIndex,
}

impl IndexCatalog {
    /// Build the catalog from a profiled lake.
    ///
    /// The four indexes are independent, so they are constructed in
    /// parallel (mirroring the profiler's use of the available
    /// parallelism), and every sketch is shared with the profile via `Arc`
    /// rather than deep-cloned.
    pub fn build(profiled: &ProfiledLake, config: &CmdlConfig) -> Self {
        // Iterate in the lake's deterministic element order (columns first,
        // then documents) so index construction — and thus ANN tree shapes —
        // is reproducible across runs.
        let ordered = ordered_profiles(profiled);

        let ((content, metadata), ((containment, solo_ann), columns)) = rayon::join(
            || {
                rayon::join(
                    || {
                        let mut content = InvertedIndex::new();
                        for profile in &ordered {
                            content.add(profile.id.raw(), &profile.content);
                        }
                        content.finalize();
                        content
                    },
                    || {
                        let mut metadata = InvertedIndex::new();
                        for profile in &ordered {
                            metadata.add(profile.id.raw(), &profile.metadata);
                        }
                        metadata.finalize();
                        metadata
                    },
                )
            },
            || {
                rayon::join(
                    || {
                        rayon::join(
                            || build_containment(&ordered, config),
                            || build_solo_ann(&ordered, config),
                        )
                    },
                    || ColumnIndex::build(profiled),
                )
            },
        );

        let mut catalog = Self {
            content,
            metadata,
            containment,
            solo_ann,
            joint_ann: None,
            joint_embeddings: HashMap::new(),
            columns,
        };
        // Arm the lazy IDF-refresh policy for the incremental delta path.
        catalog
            .content
            .set_idf_refresh_ratio(Some(config.idf_refresh_ratio));
        catalog
            .metadata
            .set_idf_refresh_ratio(Some(config.idf_refresh_ratio));
        catalog
    }

    /// Build only the *sketch* half of the catalog — the LSH Ensemble and
    /// the solo ANN forest — leaving the inverted indexes empty.
    ///
    /// This is what the shard router replicates globally: the random-
    /// projection forest and the cardinality-partitioned LSH are
    /// *topology-dependent* (their candidate sets depend on the full set of
    /// indexed elements, not just the probed ones), so partitioning them
    /// across shards would change cross-modal results. The text indexes,
    /// which partition exactly, stay on the shards — as does the column
    /// index, which structured discovery probes per shard. Construction goes
    /// through the same canonical `build_containment`/`build_solo_ann`
    /// code paths as [`build`](Self::build), so the replica's probe results
    /// are bit-identical to a single unpartitioned catalog's.
    pub fn build_sketch_only(profiled: &ProfiledLake, config: &CmdlConfig) -> Self {
        let ordered = ordered_profiles(profiled);
        let (containment, solo_ann) = rayon::join(
            || build_containment(&ordered, config),
            || build_solo_ann(&ordered, config),
        );
        Self {
            content: InvertedIndex::new(),
            metadata: InvertedIndex::new(),
            containment,
            solo_ann,
            joint_ann: None,
            joint_embeddings: HashMap::new(),
            columns: ColumnIndex::default(),
        }
    }

    /// Apply the delta of one freshly profiled element to every index in
    /// place (postings appends, column-index append, LSH delta insert, ANN
    /// delta-tail insert) — no index is rebuilt. Eligibility uses the same
    /// predicates as [`build`](Self::build).
    pub fn ingest_profile(&mut self, profile: &DeProfile) {
        self.content.add(profile.id.raw(), &profile.content);
        self.metadata.add(profile.id.raw(), &profile.metadata);
        self.columns.insert(profile);
        self.ingest_profile_sketch_only(profile);
    }

    /// The sketch-index half of [`ingest_profile`](Self::ingest_profile)
    /// (LSH delta insert + ANN delta-tail insert, text indexes untouched) —
    /// the delta path of a [`build_sketch_only`](Self::build_sketch_only)
    /// replica.
    pub fn ingest_profile_sketch_only(&mut self, profile: &DeProfile) {
        if containment_eligible(profile) {
            self.containment
                .insert(profile.id.raw(), Arc::clone(&profile.minhash));
        }
        if embedding_eligible(profile) {
            self.solo_ann.add(profile.id.raw(), &profile.solo.content);
        }
    }

    /// Install (or replace) one element's joint embedding after the joint
    /// model has been trained: updates the embedding table and the joint
    /// ANN delta.
    pub fn ingest_joint(&mut self, profile: &DeProfile, vector: Vec<f32>) {
        let vector = Arc::new(vector);
        if let Some(ann) = &mut self.joint_ann {
            if embedding_eligible(profile) {
                ann.remove(profile.id.raw());
                ann.add(profile.id.raw(), &vector);
            }
        }
        self.joint_embeddings.insert(profile.id, vector);
    }

    /// Tombstone one element in every index (the column index drops it
    /// from its posting lists at once). The space is reclaimed by the next
    /// [`compact`](Self::compact).
    pub fn remove_element(&mut self, profile: &DeProfile) {
        self.content.remove(profile.id.raw());
        self.metadata.remove(profile.id.raw());
        self.columns.remove(profile);
        self.remove_element_sketch_only(profile);
    }

    /// The sketch-index half of [`remove_element`](Self::remove_element)
    /// (tombstones in the LSH and ANN structures only).
    pub fn remove_element_sketch_only(&mut self, profile: &DeProfile) {
        if containment_eligible(profile) {
            self.containment.remove(profile.id.raw());
        }
        if embedding_eligible(profile) {
            self.solo_ann.remove(profile.id.raw());
        }
        if let Some(ann) = &mut self.joint_ann {
            ann.remove(profile.id.raw());
        }
        self.joint_embeddings.remove(&profile.id);
    }

    /// Re-index a document profile whose *content* was re-derived (the
    /// corpus document-frequency statistics shifted): replaces its content
    /// postings; metadata is untouched.
    pub fn reindex_document_content(&mut self, profile: &DeProfile) {
        self.content.remove(profile.id.raw());
        self.content.add(profile.id.raw(), &profile.content);
    }

    /// Delta-state statistics across the catalog.
    pub fn delta_stats(&self) -> DeltaStats {
        DeltaStats {
            content_tombstoned: self.content.num_tombstoned(),
            containment_delta: self.containment.num_pending() + self.containment.num_tombstoned(),
            solo_delta: self.solo_ann.num_delta() + self.solo_ann.num_tombstoned(),
            joint_delta: self
                .joint_ann
                .as_ref()
                .map(|a| a.num_delta() + a.num_tombstoned())
                .unwrap_or(0),
        }
    }

    /// The largest delta fraction (pending inserts + tombstones over total
    /// entries) across the catalog's indexes — the signal the periodic-
    /// compaction policy thresholds on.
    pub fn delta_pressure(&self) -> f64 {
        let stats = self.delta_stats();
        let frac = |delta: usize, total: usize| {
            if total == 0 {
                0.0
            } else {
                delta as f64 / total as f64
            }
        };
        // Note the denominators: `len()` already *includes* pending /
        // delta-tail entries for the sketch indexes (they are live), so
        // only tombstones are added back to form the total entry count.
        let mut pressure = frac(
            stats.content_tombstoned,
            self.content.len() + self.content.num_tombstoned(),
        );
        pressure = pressure.max(frac(
            stats.containment_delta,
            self.containment.len() + self.containment.num_tombstoned(),
        ));
        pressure = pressure.max(frac(
            stats.solo_delta,
            self.solo_ann.len() + self.solo_ann.num_tombstoned(),
        ));
        if let Some(ann) = &self.joint_ann {
            pressure = pressure.max(frac(stats.joint_delta, ann.len() + ann.num_tombstoned()));
        }
        pressure
    }

    /// Fold all delta state back into the dense layouts: the inverted
    /// indexes compact in place (tombstones dropped, IDF re-finalized), and
    /// the column index and sketch indexes are rebuilt from the profiles in
    /// the lake's canonical element order — so a compacted catalog is
    /// structurally identical to one batch-built over the surviving
    /// elements (identical slots, partitions, ANN trees, scores).
    pub fn compact(&mut self, profiled: &ProfiledLake, config: &CmdlConfig) {
        self.content.compact();
        self.metadata.compact();
        self.columns = ColumnIndex::build(profiled);

        let ordered = ordered_profiles(profiled);
        self.containment = build_containment(&ordered, config);
        self.solo_ann = build_solo_ann(&ordered, config);

        if self.joint_ann.is_some() {
            // Prune embeddings of departed elements, then rebuild the joint
            // forest canonically.
            self.joint_embeddings
                .retain(|id, _| profiled.profile(*id).is_some());
            let mut ann = new_joint_ann(config);
            for profile in &ordered {
                if embedding_eligible(profile) {
                    if let Some(vector) = self.joint_embeddings.get(&profile.id) {
                        ann.add(profile.id.raw(), vector);
                    }
                }
            }
            ann.build();
            self.joint_ann = Some(ann);
        }
    }

    /// Compact a [`build_sketch_only`](Self::build_sketch_only) replica:
    /// rebuild the LSH Ensemble and solo ANN forest from profiles already
    /// gathered in the *global* canonical element order (the shard router
    /// owns that order — this catalog has no lake of its own to derive it
    /// from). Goes through the same canonical builders as
    /// [`compact`](Self::compact), preserving probe parity with a single
    /// unpartitioned catalog.
    pub fn compact_sketch_only(&mut self, ordered: &[&DeProfile], config: &CmdlConfig) {
        self.containment = build_containment(ordered, config);
        self.solo_ann = build_solo_ann(ordered, config);
    }

    /// [`delta_pressure`](Self::delta_pressure) restricted to the sketch
    /// indexes — the compaction signal for a
    /// [`build_sketch_only`](Self::build_sketch_only) replica, whose text
    /// indexes are intentionally empty.
    pub fn sketch_delta_pressure(&self) -> f64 {
        let stats = self.delta_stats();
        let frac = |delta: usize, total: usize| {
            if total == 0 {
                0.0
            } else {
                delta as f64 / total as f64
            }
        };
        frac(
            stats.containment_delta,
            self.containment.len() + self.containment.num_tombstoned(),
        )
        .max(frac(
            stats.solo_delta,
            self.solo_ann.len() + self.solo_ann.num_tombstoned(),
        ))
    }

    /// Re-arm the runtime-only state that `#[serde(skip)]` drops across a
    /// segment round-trip: IDF caches and the lazy-refresh policy on the
    /// inverted indexes, the LSH probe accelerator (the ANN id maps
    /// rebuild themselves lazily), and the column index, rebuilt from the
    /// restored profiles. Deserialization + this call restores a catalog
    /// that answers queries identically to the one serialized.
    pub fn restore_runtime_state(&mut self, profiled: &ProfiledLake, config: &CmdlConfig) {
        self.columns = ColumnIndex::build(profiled);
        self.content.finalize();
        self.metadata.finalize();
        self.content
            .set_idf_refresh_ratio(Some(config.idf_refresh_ratio));
        self.metadata
            .set_idf_refresh_ratio(Some(config.idf_refresh_ratio));
        self.containment.rebuild_postings();
    }

    /// Install joint embeddings (for all elements) and build the joint ANN
    /// index over the column embeddings. The vectors are moved behind `Arc`s
    /// and shared between the embedding table and the ANN index.
    pub fn install_joint(
        &mut self,
        profiled: &ProfiledLake,
        embeddings: HashMap<DeId, Vec<f32>>,
        config: &CmdlConfig,
    ) {
        let embeddings: HashMap<DeId, Arc<Vec<f32>>> = embeddings
            .into_iter()
            .map(|(id, vector)| (id, Arc::new(vector)))
            .collect();
        let mut ann = new_joint_ann(config);
        for &id in &profiled.column_ids {
            let (Some(profile), Some(vector)) = (profiled.profile(id), embeddings.get(&id)) else {
                continue;
            };
            if embedding_eligible(profile) {
                ann.add(id.raw(), vector);
            }
        }
        ann.build();
        self.joint_ann = Some(ann);
        self.joint_embeddings = embeddings;
    }

    /// Keyword search over content with BM25, restricted to elements of a
    /// given kind (or all when `kind` is `None`). Returns `(id, score)`.
    pub fn content_search(
        &self,
        profiled: &ProfiledLake,
        query: &BagOfWords,
        kind: Option<DeKind>,
        top_k: usize,
        scoring: ScoringFunction,
    ) -> Vec<(DeId, f64)> {
        search_by_kind(&self.content, profiled, query, kind, top_k, scoring)
    }

    /// [`content_search`](Self::content_search) scoring against externally
    /// supplied global corpus statistics — the per-shard scatter half of
    /// sharded keyword search (see
    /// [`InvertedIndex::search_filtered_with_stats`]).
    pub fn content_search_with_stats(
        &self,
        profiled: &ProfiledLake,
        query: &BagOfWords,
        kind: Option<DeKind>,
        top_k: usize,
        scoring: ScoringFunction,
        stats: &CorpusStats,
    ) -> Vec<(DeId, f64)> {
        let results = self.content.search_filtered_with_stats(
            query,
            top_k,
            scoring,
            |id| match kind {
                None => true,
                Some(k) => profiled
                    .profile(DeId(id))
                    .map(|p| p.kind == k)
                    .unwrap_or(false),
            },
            stats,
        );
        results
            .into_iter()
            .map(|(id, score)| (DeId(id), score))
            .collect()
    }

    /// Fold this catalog's content-index statistics for the query's terms
    /// into a [`CorpusStats`] accumulator (the gather half of sharded
    /// keyword search).
    pub fn absorb_content_stats(&self, stats: &mut CorpusStats, query: &BagOfWords) {
        stats.absorb(&self.content, query);
    }

    /// Keyword search over metadata with BM25.
    pub fn metadata_search(
        &self,
        profiled: &ProfiledLake,
        query: &BagOfWords,
        kind: Option<DeKind>,
        top_k: usize,
        scoring: ScoringFunction,
    ) -> Vec<(DeId, f64)> {
        search_by_kind(&self.metadata, profiled, query, kind, top_k, scoring)
    }

    /// Containment search: columns whose value sets contain the query token
    /// set, ranked by estimated containment.
    pub fn containment_search(&self, query: &MinHash, top_k: usize) -> Vec<(DeId, f64)> {
        self.containment
            .query_top_k(query, top_k)
            .into_iter()
            .map(|(id, score)| (DeId(id), score))
            .collect()
    }

    /// Semantic search over the column solo embeddings.
    pub fn solo_search(&self, query: &[f32], top_k: usize) -> Vec<(DeId, f64)> {
        self.solo_ann
            .query(query, top_k)
            .into_iter()
            .map(|(id, score)| (DeId(id), score))
            .collect()
    }

    /// Semantic search over the column joint embeddings (if trained).
    pub fn joint_search(&self, query: &[f32], top_k: usize) -> Option<Vec<(DeId, f64)>> {
        self.joint_ann.as_ref().map(|ann| {
            ann.query(query, top_k)
                .into_iter()
                .map(|(id, score)| (DeId(id), score))
                .collect()
        })
    }
}

/// Kind-restricted keyword search: the kind filter is evaluated *inside*
/// the index's top-k heap, so the result holds up to `top_k` elements of
/// the requested kind regardless of how selective the filter is. (The
/// previous implementation over-fetched `top_k * 4` unfiltered results and
/// post-filtered, which could return fewer than `top_k` hits even when more
/// matching elements existed.)
fn search_by_kind(
    index: &InvertedIndex,
    profiled: &ProfiledLake,
    query: &BagOfWords,
    kind: Option<DeKind>,
    top_k: usize,
    scoring: ScoringFunction,
) -> Vec<(DeId, f64)> {
    let results = match kind {
        None => index.search_with(query, top_k, scoring),
        Some(k) => index.search_filtered(query, top_k, scoring, |id| {
            profiled
                .profile(DeId(id))
                .map(|p| p.kind == k)
                .unwrap_or(false)
        }),
    };
    results
        .into_iter()
        .map(|(id, score)| (DeId(id), score))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiler;
    use cmdl_datalake::synth;
    use cmdl_index::Bm25Params;

    fn build() -> (ProfiledLake, IndexCatalog, CmdlConfig) {
        let config = CmdlConfig::fast();
        let profiled = Profiler::new(&config)
            .profile_lake(synth::pharma::generate(&synth::PharmaConfig::tiny()).lake);
        let catalog = IndexCatalog::build(&profiled, &config);
        (profiled, catalog, config)
    }

    #[test]
    fn indexes_cover_elements() {
        let (profiled, catalog, _) = build();
        assert_eq!(catalog.content.len(), profiled.len());
        assert_eq!(catalog.metadata.len(), profiled.len());
        assert_eq!(catalog.columns.len(), profiled.column_ids.len());
        assert!(!catalog.containment.is_empty());
        assert!(!catalog.solo_ann.is_empty());
        assert!(catalog.joint_ann.is_none());
    }

    #[test]
    fn content_search_finds_drug_columns() {
        let (profiled, catalog, config) = build();
        let profiler = Profiler::new(&config);
        // Query with a drug name present in the Drugs table.
        let drug = profiled
            .lake
            .table("Drugs")
            .unwrap()
            .column("Drug")
            .unwrap()
            .values[0]
            .as_text();
        let (query, _) = profiler.profile_query_text(&format!("study of {drug} dosing"));
        let results = catalog.content_search(
            &profiled,
            &query,
            Some(DeKind::Column),
            5,
            ScoringFunction::Bm25(Bm25Params::default()),
        );
        assert!(!results.is_empty());
        let tables: Vec<String> = results
            .iter()
            .filter_map(|(id, _)| profiled.profile(*id).and_then(|p| p.table_name.clone()))
            .collect();
        assert!(
            tables.iter().any(|t| t == "Drugs"
                || t == "Compounds"
                || t == "Chemical_Entities"
                || t == "Drug_Interactions"
                || t.contains("proj")),
            "expected drug-bearing table, got {tables:?}"
        );
    }

    #[test]
    fn kind_filter_respected() {
        let (profiled, catalog, config) = build();
        let profiler = Profiler::new(&config);
        let (query, _) = profiler.profile_query_text("enzyme target inhibitor");
        let docs = catalog.content_search(
            &profiled,
            &query,
            Some(DeKind::Document),
            5,
            ScoringFunction::default(),
        );
        for (id, _) in docs {
            assert_eq!(profiled.profile(id).unwrap().kind, DeKind::Document);
        }
    }

    #[test]
    fn containment_search_returns_columns() {
        let (profiled, catalog, config) = build();
        let profiler = Profiler::new(&config);
        let id_col = profiled.lake.column_id_by_name("Drugs", "Id").unwrap();
        let sig = profiled.profile(id_col).unwrap().minhash.clone();
        let results = catalog.containment_search(&sig, 5);
        assert!(!results.is_empty());
        // The column itself (or an FK referencing it) should be a top match.
        assert!(results.iter().any(|(id, score)| {
            *score > 0.8
                && profiled
                    .profile(*id)
                    .map(|p| {
                        p.name.to_lowercase().contains("id")
                            || p.name.to_lowercase().contains("key")
                            || p.name.to_lowercase().contains("drug")
                    })
                    .unwrap_or(false)
        }));
        let _ = profiler;
    }

    #[test]
    fn install_joint_builds_ann() {
        let (profiled, mut catalog, config) = build();
        let dim = config.joint_dim;
        let embeddings: HashMap<DeId, Vec<f32>> = profiled
            .profiles
            .keys()
            .map(|&id| (id, vec![0.5; dim]))
            .collect();
        catalog.install_joint(&profiled, embeddings, &config);
        assert!(catalog.joint_ann.is_some());
        assert!(!catalog.joint_embeddings.is_empty());
        let res = catalog.joint_search(&vec![0.5; dim], 3).unwrap();
        assert!(!res.is_empty());
    }
}
