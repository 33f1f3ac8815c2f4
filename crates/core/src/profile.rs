//! Preprocessing and profiling of discoverable elements.
//!
//! The profiler (paper Sections 2.2 and 3) converts every discoverable
//! element into the sketches the rest of the system consumes:
//!
//! * documents pass through the NLP pipeline to a bag-of-words content
//!   representation, with their title/source as metadata;
//! * tabular columns are tagged with the discovery tasks they may participate
//!   in (heuristic-based column tagging), their distinct values tokenized
//!   into a content bag, and their table/column names into a metadata bag;
//! * every element gets a MinHash signature of its token set, solo
//!   (content + metadata) embeddings, and — for numeric columns — numeric
//!   statistics.
//!
//! Profiling is embarrassingly parallel across elements and uses `rayon`,
//! mirroring the paper's observation that CMDL "exploits the available
//! parallelism in profiling the datasets" (Section 6.4).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use cmdl_datalake::{Column, ColumnType, DataLake, DeId, DeKind, Document};
use cmdl_embed::{SoloEmbedder, SoloEmbedding, WordEmbedder, WordEmbedderConfig};
use cmdl_sketch::{MinHash, MinHasher, NumericProfile};
use cmdl_text::{BagOfWords, DocumentFrequencyFilter, Pipeline, PipelineConfig};

use crate::config::CmdlConfig;

/// Heuristic tags describing which discovery tasks a column participates in
/// (paper Section 3, "Tabular Columns Tagging").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnTags {
    /// Eligible for keyword / document-column discovery (textual, enough
    /// distinct values).
    pub text_searchable: bool,
    /// Eligible for joinability / PK-FK discovery (not a date, not long
    /// free text).
    pub join_candidate: bool,
    /// The column is numeric.
    pub numeric: bool,
    /// The column looks like a primary key (uniqueness close to 1).
    pub key_like: bool,
}

/// The profile of one discoverable element.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeProfile {
    /// Element id within the lake.
    pub id: DeId,
    /// Element kind (column or document).
    pub kind: DeKind,
    /// Short name (column name or document title).
    pub name: String,
    /// Qualified name (`Table.Column` or document title).
    pub qualified_name: String,
    /// Owning table name for columns.
    pub table_name: Option<String>,
    /// Content bag of words.
    pub content: BagOfWords,
    /// For documents: the raw content bag *before* the corpus-level
    /// document-frequency filter, kept so the incremental-ingestion path can
    /// re-derive `content` when the corpus statistics shift. `None` for
    /// columns (whose content is never DF-filtered).
    pub raw_content: Option<BagOfWords>,
    /// Metadata bag of words.
    pub metadata: BagOfWords,
    /// MinHash signature of the distinct content token set
    /// (reference-counted so indexes share it with the profile instead of
    /// deep-cloning it during catalog construction).
    pub minhash: Arc<MinHash>,
    /// Distinct textual values (columns) or distinct tokens (documents).
    pub distinct_values: Vec<String>,
    /// Solo embeddings (content + metadata).
    pub solo: SoloEmbedding,
    /// Numeric statistics for numeric columns.
    pub numeric: Option<NumericProfile>,
    /// Column tags (default for documents).
    pub tags: ColumnTags,
    /// Uniqueness ratio (columns only; 0 for documents).
    pub uniqueness: f64,
}

impl DeProfile {
    /// The concatenated input encoding for the joint model.
    pub fn input_encoding(&self) -> Vec<f32> {
        self.solo.input_encoding()
    }
}

/// A profiled data lake: the lake plus per-element profiles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfiledLake {
    /// The underlying lake.
    pub lake: DataLake,
    /// Profiles keyed by element id. Each profile is reference-counted so
    /// that copying the lake for a new catalog generation copies one
    /// pointer per element: generations share every profile a mutation did
    /// not touch, and a writer replaces only the profiles it re-derives.
    pub profiles: HashMap<DeId, Arc<DeProfile>>,
    /// Document element ids in document order.
    pub doc_ids: Vec<DeId>,
    /// Column element ids in lake order.
    pub column_ids: Vec<DeId>,
    /// Corpus-level document-frequency statistics over the live documents,
    /// maintained incrementally by the ingestion path so delta-profiled
    /// documents see exactly the statistics a batch rebuild would.
    pub doc_df: DocumentFrequencyFilter,
    /// Wall-clock time spent profiling (not persisted — a segment load
    /// restores it as zero).
    #[serde(skip)]
    pub profiling_time: Duration,
}

impl ProfiledLake {
    /// Profile lookup.
    pub fn profile(&self, id: DeId) -> Option<&DeProfile> {
        self.profiles.get(&id).map(Arc::as_ref)
    }

    /// Number of profiled elements.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Is the profiled lake empty?
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Carve a shard-local profiled lake out of this one: the given
    /// sub-lake (whose element ids are a subset of this lake's — the shard
    /// router preserves global ids when it splits the lake) sharing the
    /// matching profiles, and — deliberately — the *full*
    /// corpus document-frequency statistics. Every shard filters documents
    /// against the global corpus DF, so a shard-local profile is
    /// bit-identical to the one a single unpartitioned build produces.
    pub fn partition_for(&self, lake: DataLake) -> ProfiledLake {
        let column_ids: Vec<DeId> = lake.column_ids().map(|(id, _)| id).collect();
        let doc_ids: Vec<DeId> = lake.document_ids().map(|(id, _)| id).collect();
        let profiles: HashMap<DeId, Arc<DeProfile>> = column_ids
            .iter()
            .chain(doc_ids.iter())
            .filter_map(|id| self.profiles.get(id).map(|p| (*id, Arc::clone(p))))
            .collect();
        ProfiledLake {
            lake,
            profiles,
            doc_ids,
            column_ids,
            doc_df: self.doc_df.clone(),
            profiling_time: Duration::ZERO,
        }
    }

    /// Ids of columns belonging to a table.
    pub fn columns_of_table(&self, table_name: &str) -> Vec<DeId> {
        self.column_ids
            .iter()
            .copied()
            .filter(|id| {
                self.profiles
                    .get(id)
                    .and_then(|p| p.table_name.as_deref())
                    .map(|t| t == table_name)
                    .unwrap_or(false)
            })
            .collect()
    }
}

/// The source data of one discoverable element, as consumed by
/// [`Profiler::profile_element`] — the single profiling entry point shared
/// by the batch build and the incremental ingestion path.
pub enum ElementData<'a> {
    /// A tabular column.
    Column {
        /// Owning table name.
        table_name: &'a str,
        /// The column itself.
        column: &'a Column,
        /// Row count of the owning table (for tagging thresholds).
        table_rows: usize,
    },
    /// A text document.
    Document {
        /// The document itself.
        document: &'a Document,
        /// The raw (pipeline-processed, unfiltered) content bag.
        raw: BagOfWords,
        /// Corpus document-frequency statistics to filter against.
        df: &'a DocumentFrequencyFilter,
    },
}

/// The CMDL profiler.
#[derive(Debug, Clone)]
pub struct Profiler {
    config: CmdlConfig,
    doc_pipeline: Pipeline,
    cell_pipeline: Pipeline,
    minhasher: MinHasher,
    solo: SoloEmbedder,
}

impl Profiler {
    /// Create a profiler from the system configuration.
    pub fn new(config: &CmdlConfig) -> Self {
        let word_embedder = WordEmbedder::new(WordEmbedderConfig {
            dim: config.embedding_dim,
            seed: config.seed,
            ..Default::default()
        });
        Self {
            doc_pipeline: Pipeline::new(PipelineConfig::default()),
            cell_pipeline: Pipeline::new(PipelineConfig::tokenize_only()),
            minhasher: MinHasher::one_permutation(config.minhash_hashes, config.seed),
            solo: SoloEmbedder::new(word_embedder),
            config: config.clone(),
        }
    }

    /// Access the solo embedder (e.g. to embed ad-hoc query text).
    pub fn solo_embedder(&self) -> &SoloEmbedder {
        &self.solo
    }

    /// The document NLP pipeline (also used to transform free-text queries).
    pub fn doc_pipeline(&self) -> &Pipeline {
        &self.doc_pipeline
    }

    /// The MinHash family shared by all signatures.
    pub fn minhasher(&self) -> &MinHasher {
        &self.minhasher
    }

    /// The corpus-level document-frequency filter the profiler pairs with
    /// (fresh, with no observations). Both the batch build and the
    /// incremental ingestion path start from this template so their
    /// statistics cannot drift apart.
    pub fn new_df_filter(&self) -> DocumentFrequencyFilter {
        DocumentFrequencyFilter::new(0.6, 1)
    }

    /// Profile an entire lake.
    pub fn profile_lake(&self, lake: DataLake) -> ProfiledLake {
        let start = Instant::now();

        // Raw document bags (computed for every document slot; removed slots
        // yield empty bags and are skipped below).
        let doc_bows: Vec<BagOfWords> = lake
            .documents()
            .par_iter()
            .map(|d| self.doc_pipeline.process(&d.text))
            .collect();
        // Corpus-level document-frequency statistics over the live documents.
        let mut df = self.new_df_filter();
        let doc_work: Vec<(DeId, usize)> = lake.document_ids().collect();
        for &(_, idx) in &doc_work {
            df.observe(&doc_bows[idx]);
        }

        let column_work: Vec<(DeId, usize, usize)> = lake
            .column_ids()
            .map(|(id, cref)| (id, cref.table, cref.column))
            .collect();
        let column_profiles: Vec<DeProfile> = column_work
            .par_iter()
            .map(|&(id, t, c)| {
                let table = &lake.tables()[t];
                self.profile_element(
                    id,
                    ElementData::Column {
                        table_name: &table.name,
                        column: &table.columns[c],
                        table_rows: table.num_rows(),
                    },
                )
            })
            .collect();

        let doc_profiles: Vec<DeProfile> = doc_work
            .par_iter()
            .map(|&(id, idx)| {
                self.profile_element(
                    id,
                    ElementData::Document {
                        document: &lake.documents()[idx],
                        raw: doc_bows[idx].clone(),
                        df: &df,
                    },
                )
            })
            .collect();

        let mut profiles = HashMap::with_capacity(column_profiles.len() + doc_profiles.len());
        let column_ids: Vec<DeId> = column_profiles.iter().map(|p| p.id).collect();
        let doc_ids: Vec<DeId> = doc_profiles.iter().map(|p| p.id).collect();
        for p in column_profiles.into_iter().chain(doc_profiles) {
            profiles.insert(p.id, Arc::new(p));
        }

        ProfiledLake {
            lake,
            profiles,
            doc_ids,
            column_ids,
            doc_df: df,
            profiling_time: start.elapsed(),
        }
    }

    /// Profile one discoverable element. This is the *single* profiling code
    /// path: the batch [`profile_lake`](Self::profile_lake) and the
    /// incremental ingestion path both go through it, so delta-profiled
    /// elements carry exactly the statistics a batch rebuild would produce.
    pub fn profile_element(&self, id: DeId, data: ElementData<'_>) -> DeProfile {
        match data {
            ElementData::Column {
                table_name,
                column,
                table_rows,
            } => self.profile_column(id, table_name, column, table_rows),
            ElementData::Document { document, raw, df } => {
                self.profile_document(id, document, raw, df)
            }
        }
    }

    /// Profile a single column.
    pub fn profile_column(
        &self,
        id: DeId,
        table_name: &str,
        column: &Column,
        table_rows: usize,
    ) -> DeProfile {
        let distinct_values = column.distinct_texts();
        let col_type = column.infer_type();
        let uniqueness = column.uniqueness();

        // Content bag: tokens of every distinct value.
        let mut content = BagOfWords::new();
        for value in &distinct_values {
            content.merge(&self.cell_pipeline.process(value));
        }
        // Metadata bag: table name + column name tokens.
        let mut metadata = BagOfWords::new();
        metadata.merge(
            &self
                .cell_pipeline
                .process(&cmdl_text::strsim::name_tokens(table_name).join(" ")),
        );
        metadata.merge(
            &self
                .cell_pipeline
                .process(&cmdl_text::strsim::name_tokens(&column.name).join(" ")),
        );

        let tags = self.tag_column(column, col_type, uniqueness, table_rows);
        let numeric = if col_type == ColumnType::Numeric {
            NumericProfile::from_values(&column.numeric_values())
        } else {
            None
        };
        let minhash = Arc::new(self.minhasher.signature(content.terms()));
        let solo = self.solo.embed_element(&content, &metadata);

        DeProfile {
            id,
            kind: DeKind::Column,
            name: column.name.clone(),
            qualified_name: format!("{table_name}.{}", column.name),
            table_name: Some(table_name.to_string()),
            content,
            raw_content: None,
            metadata,
            minhash,
            distinct_values,
            solo,
            numeric,
            tags,
            uniqueness,
        }
    }

    /// Profile a single document from its raw (unfiltered) bag of words and
    /// the current corpus document-frequency statistics. The raw bag is kept
    /// on the profile so the filtered content can be re-derived when the
    /// corpus statistics shift.
    pub fn profile_document(
        &self,
        id: DeId,
        doc: &Document,
        raw: BagOfWords,
        df: &DocumentFrequencyFilter,
    ) -> DeProfile {
        let mut content = raw.clone();
        df.apply(&mut content);
        let mut metadata = BagOfWords::new();
        metadata.merge(&self.cell_pipeline.process(&doc.title));
        metadata.merge(&self.cell_pipeline.process(&doc.source));
        let minhash = Arc::new(self.minhasher.signature(content.terms()));
        let solo = self.solo.embed_element(&content, &metadata);
        let distinct_values = content.term_vec();
        DeProfile {
            id,
            kind: DeKind::Document,
            name: doc.title.clone(),
            qualified_name: doc.title.clone(),
            table_name: None,
            content,
            raw_content: Some(raw),
            metadata,
            minhash,
            distinct_values,
            solo,
            numeric: None,
            tags: ColumnTags::default(),
            uniqueness: 0.0,
        }
    }

    /// Re-derive a document profile's filtered content (and the sketches
    /// depending on it) from its stored raw bag under the given corpus
    /// statistics. Used by the ingestion path when a term's keep-status
    /// flips. No-op for columns.
    pub fn refresh_document_content(&self, profile: &mut DeProfile, df: &DocumentFrequencyFilter) {
        let Some(raw) = profile.raw_content.clone() else {
            return;
        };
        let mut content = raw;
        df.apply(&mut content);
        profile.minhash = Arc::new(self.minhasher.signature(content.terms()));
        profile.solo = self.solo.embed_element(&content, &profile.metadata);
        profile.distinct_values = content.term_vec();
        profile.content = content;
    }

    /// Transform free query text into a query profile-like pair
    /// (content bag, solo embedding) without registering it in the lake.
    pub fn profile_query_text(&self, text: &str) -> (BagOfWords, SoloEmbedding) {
        let content = self.doc_pipeline.process(text);
        let metadata = BagOfWords::new();
        let solo = self.solo.embed_element(&content, &metadata);
        (content, solo)
    }

    /// Heuristic column tagging (paper Section 3).
    fn tag_column(
        &self,
        column: &Column,
        col_type: ColumnType,
        uniqueness: f64,
        table_rows: usize,
    ) -> ColumnTags {
        let distinct = column.distinct_texts().len();
        let numeric = col_type == ColumnType::Numeric;
        let is_date = col_type == ColumnType::Date;
        // Average textual value length, to filter long free-text columns from
        // join discovery.
        let avg_len = if column.is_empty() {
            0.0
        } else {
            column
                .values
                .iter()
                .map(|v| v.as_text().len())
                .sum::<usize>() as f64
                / column.len() as f64
        };
        let min_distinct =
            ((table_rows as f64) * self.config.min_categorical_ratio).ceil() as usize;
        let text_searchable = !numeric && !is_date && distinct >= min_distinct.max(2);
        let join_candidate = !is_date && avg_len < 80.0;
        let key_like = uniqueness >= self.config.pk_uniqueness && distinct >= 2;
        ColumnTags {
            text_searchable,
            join_candidate,
            numeric,
            key_like,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_datalake::{synth, Table, Value};

    fn profiler() -> Profiler {
        Profiler::new(&CmdlConfig::fast())
    }

    fn pharma() -> ProfiledLake {
        profiler().profile_lake(synth::pharma::generate(&synth::PharmaConfig::tiny()).lake)
    }

    #[test]
    fn profiles_every_element() {
        let profiled = pharma();
        assert_eq!(
            profiled.len(),
            profiled.lake.num_columns() + profiled.lake.num_documents()
        );
        assert_eq!(profiled.doc_ids.len(), profiled.lake.num_documents());
        assert_eq!(profiled.column_ids.len(), profiled.lake.num_columns());
        assert!(profiled.profiling_time.as_nanos() > 0);
    }

    #[test]
    fn column_profile_contents() {
        let profiled = pharma();
        let id = profiled
            .lake
            .column_id_by_name("Drugs", "Drug")
            .expect("column exists");
        let p = profiled.profile(id).unwrap();
        assert_eq!(p.kind, DeKind::Column);
        assert_eq!(p.qualified_name, "Drugs.Drug");
        assert!(p.tags.text_searchable);
        assert!(!p.content.is_empty());
        assert!(p.metadata.contains("drug"));
        assert!(p.numeric.is_none());
        assert!(!p.distinct_values.is_empty());
        assert_eq!(p.solo.content.len(), CmdlConfig::fast().embedding_dim);
    }

    #[test]
    fn key_column_tagged_key_like() {
        let profiled = pharma();
        let id = profiled.lake.column_id_by_name("Drugs", "Id").unwrap();
        assert!(profiled.profile(id).unwrap().tags.key_like);
        let fk = profiled
            .lake
            .column_id_by_name("Enzyme_Targets", "Drug_Key")
            .unwrap();
        assert!(!profiled.profile(fk).unwrap().tags.key_like);
    }

    #[test]
    fn numeric_column_has_numeric_profile() {
        let profiled = pharma();
        let id = profiled
            .lake
            .column_id_by_name("Dosages", "Dose_Mg")
            .unwrap();
        let p = profiled.profile(id).unwrap();
        assert!(p.tags.numeric);
        assert!(p.numeric.is_some());
        assert!(!p.tags.text_searchable);
    }

    #[test]
    fn date_column_excluded_from_joins() {
        let prof = profiler();
        let table = Table::new(
            "Events",
            vec![Column::new(
                "event_date",
                vec![
                    Value::Text("2021-01-01".into()),
                    Value::Text("2021-06-01".into()),
                ],
            )],
        );
        let p = prof.profile_column(DeId(0), "Events", &table.columns[0], 2);
        assert!(!p.tags.join_candidate);
    }

    #[test]
    fn document_profile_contents() {
        let profiled = pharma();
        let id = profiled.doc_ids[0];
        let p = profiled.profile(id).unwrap();
        assert_eq!(p.kind, DeKind::Document);
        assert!(!p.content.is_empty());
        assert!(p.metadata.contains("pubmed"));
        assert_eq!(
            p.input_encoding().len(),
            2 * CmdlConfig::fast().embedding_dim
        );
    }

    #[test]
    fn columns_of_table_lookup() {
        let profiled = pharma();
        let cols = profiled.columns_of_table("Drugs");
        assert_eq!(cols.len(), 4);
        assert!(profiled.columns_of_table("Nonexistent").is_empty());
    }

    #[test]
    fn query_text_profile() {
        let prof = profiler();
        let (bow, solo) = prof.profile_query_text("pemetrexed inhibits thymidylate synthase");
        assert!(bow.contains("synthase"));
        assert_eq!(solo.content.len(), CmdlConfig::fast().embedding_dim);
    }
}
