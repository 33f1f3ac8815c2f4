//! The unified discovery-query API.
//!
//! CMDL's five discovery primitives (paper Q1–Q5) share one typed entry
//! point: build a [`DiscoveryQuery`] with the fluent [`QueryBuilder`], then
//! run it against a pinned [`CatalogSnapshot`] with
//! [`execute`](CatalogSnapshot::execute) (or a whole batch with the
//! rayon-parallel [`execute_many`](CatalogSnapshot::execute_many)). Every
//! query kind returns the same [`QueryResponse`] envelope — ranked
//! [`Hit`]s carrying a [`ScoreBreakdown`] that explains which signals (BM25,
//! containment, embedding cosine, name similarity, …) produced
//! each score — plus the snapshot generation and execution timing. All
//! request and response types are `Serialize`/`Deserialize`, so the envelope
//! is wire-ready for a service layer.
//!
//! ```no_run
//! use cmdl_core::{Cmdl, CmdlConfig, QueryBuilder, SearchMode};
//! use cmdl_datalake::synth;
//!
//! let system = Cmdl::build(synth::pharma().lake, CmdlConfig::fast());
//! let snapshot = system.snapshot();
//! let response = snapshot
//!     .execute(
//!         &QueryBuilder::keyword("thymidylate synthase")
//!             .mode(SearchMode::Text)
//!             .top_k(5)
//!             .min_score(0.1)
//!             .build(),
//!     )
//!     .unwrap();
//! for hit in &response.hits {
//!     println!("{:.3}  {}  ({:?})", hit.score, hit.label, hit.breakdown);
//! }
//! ```
//!
//! ## Shared options
//!
//! Every query carries [`QueryOptions`]:
//!
//! * `top_k` — page size (must be ≥ 1);
//! * `offset` — pagination: the ranked list is probed to depth
//!   `offset + top_k` and the first `offset` hits are skipped. All exact
//!   surfaces (keyword, joinable, unionable, PK-FK) rank deterministically
//!   and independently of the probe depth, so concatenated pages equal the
//!   un-paginated top-`k`. The cross-modal kinds probe their ANN/LSH indexes
//!   to a depth proportional to the page, so pagination there is
//!   best-effort;
//! * `min_score` — drops hits scoring below the threshold (applied to the
//!   probed prefix before pagination);
//! * `weights` — per-query [`SignalWeights`] overriding the configured
//!   signal blend (cross-modal embedding/containment, PK-FK
//!   containment/name/uniqueness).
//!
//! Scope filters (the [`SearchMode`] of a keyword query) are pushed down
//! into the index scans — the kind predicate is evaluated *inside* the BM25
//! top-k heap, not post-filtered — so a page is always full when enough
//! matching elements exist.
//!
//! A batch ([`execute_many`](CatalogSnapshot::execute_many)) is the same
//! queries run in parallel, with no batch-level sharing: the one piece of
//! work a PK-FK query does not depend on — the sweep for links that pass
//! the configured thresholds — is kept per generation (see
//! [`crate::snapshot`]) and shared by every reader, batched or not.

use std::collections::HashMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use cmdl_datalake::{DeId, DeKind};
use cmdl_index::ScoringFunction;
use rayon::prelude::*;

use crate::config::{CmdlConfig, CrossModalStrategy};
use crate::discovery::SearchMode;
use crate::error::CmdlError;
use crate::join::{JoinDiscovery, PkFkLink};
use crate::snapshot::CatalogSnapshot;
use crate::union::{UnionCandidate, UnionDiscovery, UnionScore};

/// A scoring signal that can contribute to a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Signal {
    /// BM25 relevance from the inverted content index.
    Bm25,
    /// Value-set containment (MinHash/LSH or exact).
    Containment,
    /// Embedding cosine similarity (solo or joint space).
    EmbeddingCosine,
    /// Column/table name similarity.
    NameSimilarity,
    /// Numeric range overlap.
    NumericOverlap,
    /// Primary-key uniqueness.
    Uniqueness,
}

/// One signal's contribution to a hit's score: the raw signal `value` and
/// the `weight` it entered the blend with (`value * weight` is the weighted
/// contribution).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignalContribution {
    /// The signal.
    pub signal: Signal,
    /// The raw signal value.
    pub value: f64,
    /// The blend weight applied to the value.
    pub weight: f64,
}

/// Score provenance: which signals produced a hit's score.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScoreBreakdown {
    /// The contributing signals.
    pub signals: Vec<SignalContribution>,
}

impl ScoreBreakdown {
    /// A breakdown with one contribution.
    pub fn single(signal: Signal, value: f64, weight: f64) -> Self {
        Self {
            signals: vec![SignalContribution {
                signal,
                value,
                weight,
            }],
        }
    }

    /// Append a contribution.
    pub fn push(&mut self, signal: Signal, value: f64, weight: f64) {
        self.signals.push(SignalContribution {
            signal,
            value,
            weight,
        });
    }

    /// The raw value of a signal, if it contributed.
    pub fn value_of(&self, signal: Signal) -> Option<f64> {
        self.signals
            .iter()
            .find(|c| c.signal == signal)
            .map(|c| c.value)
    }
}

/// Per-query overrides of the configured signal-blend weights. `None` keeps
/// the [`CmdlConfig`] default for that signal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SignalWeights {
    /// Cross-modal embedding-cosine weight
    /// (default `cross_modal_embed_weight`).
    pub embedding: Option<f64>,
    /// Containment weight: the cross-modal blend's
    /// `cross_modal_containment_weight`, or the PK-FK blend's
    /// `pkfk_containment_weight`.
    pub containment: Option<f64>,
    /// PK-FK name-similarity weight (default `pkfk_name_weight`).
    pub name: Option<f64>,
    /// PK-FK uniqueness weight (default `pkfk_uniqueness_weight`).
    pub uniqueness: Option<f64>,
}

/// Options shared by every [`DiscoveryQuery`] kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOptions {
    /// Page size: the maximum number of hits returned. Must be ≥ 1.
    pub top_k: usize,
    /// Pagination offset: skip the first `offset` ranked hits.
    pub offset: usize,
    /// Minimum score: hits below the threshold are dropped (before
    /// pagination).
    pub min_score: f64,
    /// Per-query signal-weight overrides.
    pub weights: SignalWeights,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            top_k: 10,
            offset: 0,
            min_score: 0.0,
            weights: SignalWeights::default(),
        }
    }
}

/// The query side of a Doc→Table search: either ad-hoc text or a document
/// already in the lake. Replaces the leaky pre-redesign signature that took
/// internal `SoloEmbedding`/`BagOfWords` sketches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DocQuery {
    /// Free query text (e.g. a highlighted sentence), profiled at execution
    /// time.
    Text(String),
    /// A document already in the lake, addressed by its document index.
    Document(usize),
}

/// One typed discovery query — the unified entry point over the paper's
/// Q1–Q5 primitives. Build with [`QueryBuilder`], run with
/// [`CatalogSnapshot::execute`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DiscoveryQuery {
    /// Q1 — keyword search over content, scoped by [`SearchMode`].
    Keyword {
        /// The query text.
        text: String,
        /// The modality scope (pushed down into the index scan).
        mode: SearchMode,
        /// Shared options.
        options: QueryOptions,
    },
    /// Q2 — cross-modal Doc→Table discovery for a lake document, using the
    /// joint space when trained and the solo space otherwise.
    CrossModalDoc {
        /// The document index in the lake.
        document: usize,
        /// Shared options.
        options: QueryOptions,
    },
    /// Q3 — cross-modal Doc→Table discovery for ad-hoc query text.
    CrossModalText {
        /// The query text.
        text: String,
        /// Shared options.
        options: QueryOptions,
    },
    /// Doc→Table discovery with an explicit strategy (the Figure 6
    /// comparison path).
    DocToTable {
        /// The query document or text.
        query: DocQuery,
        /// The representation to search with. `JointEmbedding` falls back to
        /// the solo space when the joint model is not trained.
        strategy: CrossModalStrategy,
        /// Shared options.
        options: QueryOptions,
    },
    /// Q4 — tables joinable with a query table.
    JoinableTable {
        /// The query table name.
        table: String,
        /// Shared options.
        options: QueryOptions,
    },
    /// Q4 — columns joinable with a query column.
    JoinableColumn {
        /// The query table name.
        table: String,
        /// The query column name.
        column: String,
        /// Shared options.
        options: QueryOptions,
    },
    /// Q5 — tables unionable with a query table.
    Unionable {
        /// The query table name.
        table: String,
        /// Shared options.
        options: QueryOptions,
    },
    /// PK-FK link discovery over the whole lake.
    PkFk {
        /// Shared options.
        options: QueryOptions,
    },
}

impl DiscoveryQuery {
    /// The shared options of this query.
    pub fn options(&self) -> &QueryOptions {
        match self {
            DiscoveryQuery::Keyword { options, .. }
            | DiscoveryQuery::CrossModalDoc { options, .. }
            | DiscoveryQuery::CrossModalText { options, .. }
            | DiscoveryQuery::DocToTable { options, .. }
            | DiscoveryQuery::JoinableTable { options, .. }
            | DiscoveryQuery::JoinableColumn { options, .. }
            | DiscoveryQuery::Unionable { options, .. }
            | DiscoveryQuery::PkFk { options } => options,
        }
    }

    fn options_mut(&mut self) -> &mut QueryOptions {
        match self {
            DiscoveryQuery::Keyword { options, .. }
            | DiscoveryQuery::CrossModalDoc { options, .. }
            | DiscoveryQuery::CrossModalText { options, .. }
            | DiscoveryQuery::DocToTable { options, .. }
            | DiscoveryQuery::JoinableTable { options, .. }
            | DiscoveryQuery::JoinableColumn { options, .. }
            | DiscoveryQuery::Unionable { options, .. }
            | DiscoveryQuery::PkFk { options } => options,
        }
    }

    /// A short name for the query kind (for logs and bench labels).
    pub fn kind(&self) -> &'static str {
        match self {
            DiscoveryQuery::Keyword { .. } => "keyword",
            DiscoveryQuery::CrossModalDoc { .. } => "cross_modal_doc",
            DiscoveryQuery::CrossModalText { .. } => "cross_modal_text",
            DiscoveryQuery::DocToTable { .. } => "doc_to_table",
            DiscoveryQuery::JoinableTable { .. } => "joinable_table",
            DiscoveryQuery::JoinableColumn { .. } => "joinable_column",
            DiscoveryQuery::Unionable { .. } => "unionable",
            DiscoveryQuery::PkFk { .. } => "pkfk",
        }
    }
}

/// Fluent builder for [`DiscoveryQuery`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    query: DiscoveryQuery,
}

impl QueryBuilder {
    fn new(query: DiscoveryQuery) -> Self {
        Self { query }
    }

    /// Q1 — keyword search (scope defaults to [`SearchMode::All`]).
    pub fn keyword(text: impl Into<String>) -> Self {
        Self::new(DiscoveryQuery::Keyword {
            text: text.into(),
            mode: SearchMode::All,
            options: QueryOptions::default(),
        })
    }

    /// Q2 — cross-modal Doc→Table discovery for a lake document.
    pub fn cross_modal_doc(document: usize) -> Self {
        Self::new(DiscoveryQuery::CrossModalDoc {
            document,
            options: QueryOptions::default(),
        })
    }

    /// Q3 — cross-modal Doc→Table discovery for ad-hoc text.
    pub fn cross_modal_text(text: impl Into<String>) -> Self {
        Self::new(DiscoveryQuery::CrossModalText {
            text: text.into(),
            options: QueryOptions::default(),
        })
    }

    /// Doc→Table discovery with an explicit strategy.
    pub fn doc_to_table(query: DocQuery, strategy: CrossModalStrategy) -> Self {
        Self::new(DiscoveryQuery::DocToTable {
            query,
            strategy,
            options: QueryOptions::default(),
        })
    }

    /// Q4 — tables joinable with the query table.
    pub fn joinable(table: impl Into<String>) -> Self {
        Self::new(DiscoveryQuery::JoinableTable {
            table: table.into(),
            options: QueryOptions::default(),
        })
    }

    /// Q4 — columns joinable with the query column.
    pub fn joinable_column(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self::new(DiscoveryQuery::JoinableColumn {
            table: table.into(),
            column: column.into(),
            options: QueryOptions::default(),
        })
    }

    /// Q5 — tables unionable with the query table.
    pub fn unionable(table: impl Into<String>) -> Self {
        Self::new(DiscoveryQuery::Unionable {
            table: table.into(),
            options: QueryOptions::default(),
        })
    }

    /// PK-FK link discovery over the whole lake.
    pub fn pkfk() -> Self {
        Self::new(DiscoveryQuery::PkFk {
            options: QueryOptions::default(),
        })
    }

    /// Set the modality scope of a keyword query (no-op for other kinds).
    pub fn mode(mut self, mode: SearchMode) -> Self {
        if let DiscoveryQuery::Keyword { mode: m, .. } = &mut self.query {
            *m = mode;
        }
        self
    }

    /// Set the page size.
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.query.options_mut().top_k = top_k;
        self
    }

    /// Set the pagination offset.
    pub fn offset(mut self, offset: usize) -> Self {
        self.query.options_mut().offset = offset;
        self
    }

    /// Set the minimum-score threshold.
    pub fn min_score(mut self, min_score: f64) -> Self {
        self.query.options_mut().min_score = min_score;
        self
    }

    /// Replace all signal-weight overrides at once.
    pub fn weights(mut self, weights: SignalWeights) -> Self {
        self.query.options_mut().weights = weights;
        self
    }

    /// Override the cross-modal embedding weight.
    pub fn weight_embedding(mut self, weight: f64) -> Self {
        self.query.options_mut().weights.embedding = Some(weight);
        self
    }

    /// Override the containment weight (cross-modal or PK-FK).
    pub fn weight_containment(mut self, weight: f64) -> Self {
        self.query.options_mut().weights.containment = Some(weight);
        self
    }

    /// Override the PK-FK name-similarity weight.
    pub fn weight_name(mut self, weight: f64) -> Self {
        self.query.options_mut().weights.name = Some(weight);
        self
    }

    /// Override the PK-FK uniqueness weight.
    pub fn weight_uniqueness(mut self, weight: f64) -> Self {
        self.query.options_mut().weights.uniqueness = Some(weight);
        self
    }

    /// Finish building.
    pub fn build(self) -> DiscoveryQuery {
        self.query
    }

    /// Build and execute against a snapshot in one call.
    pub fn execute(self, snapshot: &CatalogSnapshot) -> Result<QueryResponse, CmdlError> {
        snapshot.execute(&self.build())
    }
}

/// One ranked hit of a [`QueryResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hit {
    /// The matched element id (column or document), if element-granular.
    pub element: Option<DeId>,
    /// The matched table name, if the hit concerns a table.
    pub table: Option<String>,
    /// A human-readable label.
    pub label: String,
    /// The blended relevance score.
    pub score: f64,
    /// Which signals produced the score.
    pub breakdown: ScoreBreakdown,
    /// The full PK-FK link, for `PkFk` hits.
    pub pkfk: Option<PkFkLink>,
    /// The full unionability result (score + column mapping), for
    /// `Unionable` hits.
    pub union: Option<UnionScore>,
}

/// The unified response envelope of [`CatalogSnapshot::execute`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// The executed query, echoed for wire round-trips.
    pub query: DiscoveryQuery,
    /// The catalog generation the query ran against.
    pub generation: u64,
    /// Ranked hits that passed the threshold, after pagination.
    pub hits: Vec<Hit>,
    /// Number of hits that passed the `min_score` threshold before
    /// pagination (bounded by the probe depth `offset + top_k`).
    pub total_candidates: usize,
    /// Execution time in microseconds.
    pub elapsed_micros: u64,
}

impl CatalogSnapshot {
    /// Execute one typed [`DiscoveryQuery`] against this pinned generation.
    ///
    /// Every query kind — Q1 keyword through PK-FK — runs through this one
    /// entry point.
    pub fn execute(&self, query: &DiscoveryQuery) -> Result<QueryResponse, CmdlError> {
        let started = Instant::now();
        let options = query.options();
        if options.top_k == 0 {
            return Err(CmdlError::InvalidQuery(
                "top_k must be at least 1".to_string(),
            ));
        }
        let fetch = options.offset.saturating_add(options.top_k);
        let mut hits = match query {
            DiscoveryQuery::Keyword { text, mode, .. } => self.run_keyword(text, *mode, fetch),
            DiscoveryQuery::CrossModalDoc { document, .. } => {
                let doc_id = self
                    .profiled
                    .lake
                    .document_id(*document)
                    .ok_or(CmdlError::UnknownDocument(*document))?;
                let profile = self
                    .profiled
                    .profile(doc_id)
                    .ok_or(CmdlError::UnknownDocument(*document))?;
                let (solo, content) = (profile.solo.clone(), profile.content.clone());
                self.run_doc_to_table(
                    &solo,
                    &content,
                    self.auto_strategy(),
                    fetch,
                    &options.weights,
                )
            }
            DiscoveryQuery::CrossModalText { text, .. } => {
                let (content, solo) = self.profiler.profile_query_text(text);
                self.run_doc_to_table(
                    &solo,
                    &content,
                    self.auto_strategy(),
                    fetch,
                    &options.weights,
                )
            }
            DiscoveryQuery::DocToTable {
                query: doc_query,
                strategy,
                ..
            } => {
                let (solo, content) = match doc_query {
                    DocQuery::Text(text) => {
                        let (content, solo) = self.profiler.profile_query_text(text);
                        (solo, content)
                    }
                    DocQuery::Document(index) => {
                        let doc_id = self
                            .profiled
                            .lake
                            .document_id(*index)
                            .ok_or(CmdlError::UnknownDocument(*index))?;
                        let profile = self
                            .profiled
                            .profile(doc_id)
                            .ok_or(CmdlError::UnknownDocument(*index))?;
                        (profile.solo.clone(), profile.content.clone())
                    }
                };
                self.run_doc_to_table(&solo, &content, *strategy, fetch, &options.weights)
            }
            DiscoveryQuery::JoinableTable { table, .. } => self.run_joinable_table(table, fetch)?,
            DiscoveryQuery::JoinableColumn { table, column, .. } => {
                self.run_joinable_columns(table, column, fetch)?
            }
            DiscoveryQuery::Unionable { table, .. } => self.run_unionable(table, fetch)?,
            DiscoveryQuery::PkFk { .. } => self.run_pkfk(fetch, &options.weights),
        };
        hits.retain(|h| h.score >= options.min_score);
        let total_candidates = hits.len();
        let hits: Vec<Hit> = hits
            .into_iter()
            .skip(options.offset)
            .take(options.top_k)
            .collect();
        Ok(QueryResponse {
            query: query.clone(),
            generation: self.generation,
            hits,
            total_candidates,
            elapsed_micros: started.elapsed().as_micros() as u64,
        })
    }

    /// Execute a batch of queries in parallel (rayon). Results are returned
    /// in input order; per-query failures do not abort the batch. `PkFk`
    /// queries need no batch-level sharing: every reader of a generation
    /// already shares its one link set.
    pub fn execute_many(
        &self,
        queries: &[DiscoveryQuery],
    ) -> Vec<Result<QueryResponse, CmdlError>> {
        queries
            .par_iter()
            .map(|query| self.execute(query))
            .collect()
    }

    /// The cross-modal strategy the auto path uses: joint when trained,
    /// solo otherwise.
    fn auto_strategy(&self) -> CrossModalStrategy {
        if self.joint.is_some() {
            CrossModalStrategy::JointEmbedding
        } else {
            CrossModalStrategy::SoloEmbedding
        }
    }

    /// Wrap an element hit with its label (the qualified name) and table.
    pub(crate) fn element_hit(&self, id: DeId, score: f64, breakdown: ScoreBreakdown) -> Hit {
        let profile = self.profiled.profile(id);
        Hit {
            element: Some(id),
            table: profile.and_then(|p| p.table_name.clone()),
            label: profile.map_or_else(|| format!("de-{}", id.raw()), |p| p.qualified_name.clone()),
            score,
            breakdown,
            pkfk: None,
            union: None,
        }
    }

    /// Q1: kind-scoped BM25 keyword search. The scope filter is pushed down
    /// into the index's top-k heap.
    fn run_keyword(&self, text: &str, mode: SearchMode, fetch: usize) -> Vec<Hit> {
        let (bow, _) = self.profiler.profile_query_text(text);
        let kind = match mode {
            SearchMode::Text => Some(DeKind::Document),
            SearchMode::Tables => Some(DeKind::Column),
            SearchMode::All => None,
        };
        self.indexes
            .content_search(
                &self.profiled,
                &bow,
                kind,
                fetch,
                ScoringFunction::default(),
            )
            .into_iter()
            .map(|(id, score)| {
                self.element_hit(id, score, ScoreBreakdown::single(Signal::Bm25, score, 1.0))
            })
            .collect()
    }

    /// Q2/Q3: Doc→Table discovery. Embedding scores (joint when requested
    /// and trained, solo otherwise) are blended with a containment signal so
    /// exact identifier matches are not lost, then aggregated to table
    /// level; each table keeps the breakdown of its best-scoring column.
    fn run_doc_to_table(
        &self,
        solo: &cmdl_embed::SoloEmbedding,
        content: &cmdl_text::BagOfWords,
        strategy: CrossModalStrategy,
        fetch: usize,
        weights: &SignalWeights,
    ) -> Vec<Hit> {
        let w_embed = weights
            .embedding
            .unwrap_or(self.config.cross_modal_embed_weight);
        let w_contain = weights
            .containment
            .unwrap_or(self.config.cross_modal_containment_weight);
        let probe_k = probe_depth(fetch);
        let column_scores: Vec<(DeId, f64)> = match (strategy, &self.joint) {
            (CrossModalStrategy::JointEmbedding, Some(model)) => {
                let query = model.embed(solo);
                self.indexes
                    .joint_search(&query, probe_k)
                    .unwrap_or_default()
            }
            _ => self.indexes.solo_search(&solo.content, probe_k),
        };
        let minhash = self.profiler.minhasher().signature(content.terms());
        let containment = self.indexes.containment_search(&minhash, probe_k);
        aggregate_doc_to_table(
            column_scores,
            containment,
            |id| self.profiled.profile(id).and_then(|p| p.table_name.clone()),
            w_embed,
            w_contain,
            fetch,
        )
    }

    /// Q4 (table granularity): joinable-table discovery.
    fn run_joinable_table(&self, table: &str, fetch: usize) -> Result<Vec<Hit>, CmdlError> {
        if self.profiled.lake.table(table).is_none() {
            return Err(CmdlError::UnknownTable(table.to_string()));
        }
        let discovery = JoinDiscovery::new(&self.profiled, &self.indexes.columns, &self.config);
        Ok(discovery
            .joinable_tables(table, fetch)
            .into_iter()
            .map(|(name, score)| Hit {
                element: None,
                label: name.clone(),
                table: Some(name),
                score,
                breakdown: ScoreBreakdown::single(Signal::Containment, score, 1.0),
                pkfk: None,
                union: None,
            })
            .collect())
    }

    /// Q4 (column granularity): joinable-column discovery.
    fn run_joinable_columns(
        &self,
        table: &str,
        column: &str,
        fetch: usize,
    ) -> Result<Vec<Hit>, CmdlError> {
        let id = self
            .profiled
            .lake
            .column_id_by_name(table, column)
            .ok_or_else(|| CmdlError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        let discovery = JoinDiscovery::new(&self.profiled, &self.indexes.columns, &self.config);
        Ok(discovery
            .joinable_columns(id, fetch)
            .into_iter()
            .map(|(cid, score)| {
                self.element_hit(
                    cid,
                    score,
                    ScoreBreakdown::single(Signal::Containment, score, 1.0),
                )
            })
            .collect())
    }

    /// Q5: unionable-table discovery. The breakdown carries the ensemble
    /// signals of the best-matched column pair (the evidence that anchored
    /// the mapping), as the union kernel computed them; the score itself is
    /// the normalized matched weight.
    fn run_unionable(&self, table: &str, fetch: usize) -> Result<Vec<Hit>, CmdlError> {
        if self.profiled.lake.table(table).is_none() {
            return Err(CmdlError::UnknownTable(table.to_string()));
        }
        Ok(UnionDiscovery::new(&self.profiled, &self.indexes.columns)
            .unionable_tables_anchored(table, fetch)
            .into_iter()
            .map(union_hit)
            .collect())
    }

    /// PK-FK link discovery, ranked by the (possibly re-weighted) blend of
    /// containment, name similarity, and PK uniqueness. The links come from
    /// this generation's link set, swept by the first PK-FK query on the
    /// generation and shared by every snapshot of it.
    fn run_pkfk(&self, fetch: usize, weights: &SignalWeights) -> Vec<Hit> {
        let weights = pkfk_weights(&self.config, weights);
        let links = self.pkfk.get_or_init(|| {
            JoinDiscovery::new(&self.profiled, &self.indexes.columns, &self.config).pkfk_link_set()
        });
        pkfk_link_hits(links.ranked(weights, fetch), weights, |id| {
            self.profiled.profile(id).and_then(|p| p.table_name.clone())
        })
    }
}

/// A query's PK-FK `(containment, name, uniqueness)` weights, each
/// defaulting to the configured one.
pub(crate) fn pkfk_weights(config: &CmdlConfig, weights: &SignalWeights) -> (f64, f64, f64) {
    (
        weights
            .containment
            .unwrap_or(config.pkfk_containment_weight),
        weights.name.unwrap_or(config.pkfk_name_weight),
        weights.uniqueness.unwrap_or(config.pkfk_uniqueness_weight),
    )
}

/// ANN/LSH probe depth for a cross-modal page of `fetch` hits: columns
/// aggregate many-to-one into tables, so the indexes are probed deeper than
/// the page. Shared by the single-catalog and sharded paths so both probe
/// identically.
pub(crate) fn probe_depth(fetch: usize) -> usize {
    fetch.saturating_mul(6).max(20)
}

/// The table-level aggregation of a Doc→Table search, shared by the
/// single-catalog path (probes its own indexes) and the shard router
/// (probes the replicated global sketch catalog): blend per-column
/// embedding and containment signals, keep each table's best column, rank
/// `(score desc, table asc)`. Both probe inputs arrive as deterministic
/// index-order vectors, so tie resolution inside the per-table max is
/// identical wherever the aggregation runs.
pub(crate) fn aggregate_doc_to_table<F>(
    column_scores: Vec<(DeId, f64)>,
    containment: Vec<(DeId, f64)>,
    table_of: F,
    w_embed: f64,
    w_contain: f64,
    fetch: usize,
) -> Vec<Hit>
where
    F: Fn(DeId) -> Option<String>,
{
    let containment_of: HashMap<DeId, f64> = containment.iter().copied().collect();

    #[derive(Clone, Copy, Default)]
    struct Best {
        embedding: f64,
        containment: f64,
        combined: f64,
    }
    let mut table_scores: HashMap<String, Best> = HashMap::new();
    for (id, score) in column_scores {
        let Some(table) = table_of(id) else {
            continue;
        };
        let embedding = score.max(0.0);
        let contained = containment_of.get(&id).copied().unwrap_or(0.0);
        let combined = w_embed * embedding + w_contain * contained;
        let entry = table_scores.entry(table).or_default();
        if combined > entry.combined {
            *entry = Best {
                embedding,
                containment: contained,
                combined,
            };
        }
    }
    for (id, contained) in containment {
        let Some(table) = table_of(id) else {
            continue;
        };
        let combined = w_contain * contained;
        let entry = table_scores.entry(table).or_default();
        if combined > entry.combined {
            *entry = Best {
                embedding: 0.0,
                containment: contained,
                combined,
            };
        }
    }
    let mut hits: Vec<Hit> = table_scores
        .into_iter()
        .map(|(table, best)| {
            let mut breakdown = ScoreBreakdown::default();
            breakdown.push(Signal::EmbeddingCosine, best.embedding, w_embed);
            breakdown.push(Signal::Containment, best.containment, w_contain);
            Hit {
                element: None,
                label: table.clone(),
                table: Some(table),
                score: best.combined,
                breakdown,
                pkfk: None,
                union: None,
            }
        })
        .collect();
    // Tie-break by label: table scores come out of a HashMap, so equal
    // scores would otherwise surface in a run-dependent order.
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.label.cmp(&b.label))
    });
    hits.truncate(fetch);
    hits
}

/// Wrap ranked PK-FK links as hits with their signal breakdowns — shared by
/// the single-catalog and sharded paths.
pub(crate) fn pkfk_link_hits<F>(
    links: Vec<PkFkLink>,
    (w_contain, w_name, w_unique): (f64, f64, f64),
    table_of: F,
) -> Vec<Hit>
where
    F: Fn(DeId) -> Option<String>,
{
    links
        .into_iter()
        .map(|link| {
            let mut breakdown = ScoreBreakdown::default();
            breakdown.push(Signal::Containment, link.containment, w_contain);
            breakdown.push(Signal::NameSimilarity, link.name_sim, w_name);
            breakdown.push(Signal::Uniqueness, link.uniqueness, w_unique);
            let table = table_of(link.fk);
            Hit {
                element: Some(link.fk),
                table,
                label: format!("{} -> {}", link.pk_name, link.fk_name),
                score: link.score,
                breakdown,
                pkfk: Some(link),
                union: None,
            }
        })
        .collect()
}

/// A unionable answer as a hit, its breakdown from the anchor pair's
/// signals — shared by the single-catalog and sharded paths.
pub(crate) fn union_hit(candidate: UnionCandidate) -> Hit {
    let UnionCandidate { union, anchor } = candidate;
    Hit {
        element: None,
        label: union.table.clone(),
        table: Some(union.table.clone()),
        score: union.score,
        breakdown: union_breakdown(&anchor),
        pkfk: None,
        union: Some(union),
    }
}

/// The provenance breakdown of a unionable hit from the best-matched column
/// pair's ensemble signals: the ensemble is `0.7·max + 0.3·avg`, so the
/// dominant signal carries `0.7 + 0.3/4` and the rest `0.3/4`. Shared by
/// the single-catalog and sharded paths.
pub(crate) fn union_breakdown(signals: &crate::union::UnionSignals) -> ScoreBreakdown {
    let mut breakdown = ScoreBreakdown::default();
    let values = [
        (Signal::NameSimilarity, signals.name),
        (Signal::Containment, signals.containment),
        (Signal::NumericOverlap, signals.numeric),
        (Signal::EmbeddingCosine, signals.semantic),
    ];
    let max_index = values
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1 .1
                .partial_cmp(&b.1 .1)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    for (i, (signal, value)) in values.into_iter().enumerate() {
        let weight = 0.3 / 4.0 + if i == max_index { 0.7 } else { 0.0 };
        breakdown.push(signal, value, weight);
    }
    breakdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CmdlConfig;
    use crate::discovery::Cmdl;
    use cmdl_datalake::synth;

    fn snapshot() -> CatalogSnapshot {
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        Cmdl::build(lake, CmdlConfig::fast()).snapshot()
    }

    #[test]
    fn builder_sets_shared_options() {
        let query = QueryBuilder::keyword("drug")
            .mode(SearchMode::Tables)
            .top_k(7)
            .offset(3)
            .min_score(0.25)
            .weight_embedding(0.9)
            .build();
        assert_eq!(query.kind(), "keyword");
        let options = query.options();
        assert_eq!(options.top_k, 7);
        assert_eq!(options.offset, 3);
        assert!((options.min_score - 0.25).abs() < 1e-12);
        assert_eq!(options.weights.embedding, Some(0.9));
        match query {
            DiscoveryQuery::Keyword { mode, .. } => assert_eq!(mode, SearchMode::Tables),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn execute_returns_envelope_with_provenance() {
        let snap = snapshot();
        let response = QueryBuilder::keyword("drug")
            .mode(SearchMode::Tables)
            .top_k(5)
            .execute(&snap)
            .unwrap();
        assert_eq!(response.generation, 0);
        assert!(!response.hits.is_empty());
        assert!(response.total_candidates >= response.hits.len());
        for hit in &response.hits {
            assert_eq!(hit.breakdown.value_of(Signal::Bm25), Some(hit.score));
        }
    }

    #[test]
    fn zero_top_k_is_rejected() {
        let snap = snapshot();
        assert!(matches!(
            snap.execute(&QueryBuilder::keyword("drug").top_k(0).build()),
            Err(CmdlError::InvalidQuery(_))
        ));
    }

    #[test]
    fn unknown_references_error_uniformly() {
        let snap = snapshot();
        assert!(matches!(
            snap.execute(&QueryBuilder::cross_modal_doc(10_000).build()),
            Err(CmdlError::UnknownDocument(_))
        ));
        assert!(matches!(
            snap.execute(&QueryBuilder::joinable("NoSuch").build()),
            Err(CmdlError::UnknownTable(_))
        ));
        assert!(matches!(
            snap.execute(&QueryBuilder::joinable_column("Drugs", "NoCol").build()),
            Err(CmdlError::UnknownColumn { .. })
        ));
        assert!(matches!(
            snap.execute(&QueryBuilder::unionable("NoSuch").build()),
            Err(CmdlError::UnknownTable(_))
        ));
        assert!(matches!(
            snap.execute(
                &QueryBuilder::doc_to_table(
                    DocQuery::Document(10_000),
                    CrossModalStrategy::SoloEmbedding
                )
                .build()
            ),
            Err(CmdlError::UnknownDocument(_))
        ));
    }

    #[test]
    fn pkfk_carries_full_links_and_signal_weights() {
        let snap = snapshot();
        let response = snap
            .execute(&QueryBuilder::pkfk().top_k(3).build())
            .unwrap();
        assert!(!response.hits.is_empty());
        for hit in &response.hits {
            let link = hit.pkfk.as_ref().expect("pkfk hit carries the link");
            assert!((hit.score - link.score).abs() < 1e-12);
            let expected = 0.5 * link.containment + 0.3 * link.name_sim + 0.2 * link.uniqueness;
            assert!((link.score - expected).abs() < 1e-9);
        }
        // Re-weighting changes the blend.
        let heavy_name = snap
            .execute(
                &QueryBuilder::pkfk()
                    .top_k(3)
                    .weight_containment(0.0)
                    .weight_name(1.0)
                    .weight_uniqueness(0.0)
                    .build(),
            )
            .unwrap();
        for hit in &heavy_name.hits {
            let link = hit.pkfk.as_ref().unwrap();
            assert!((link.score - link.name_sim).abs() < 1e-9);
        }
    }

    #[test]
    fn unionable_hits_carry_mapping_and_ensemble_breakdown() {
        let snap = snapshot();
        let response = snap
            .execute(&QueryBuilder::unionable("Drugs").top_k(3).build())
            .unwrap();
        assert!(!response.hits.is_empty());
        for hit in &response.hits {
            let union = hit.union.as_ref().expect("union hit carries the mapping");
            assert!(!union.mapping.is_empty());
            assert_eq!(union.mapping.len(), union.id_mapping.len());
            assert!(hit.breakdown.value_of(Signal::NameSimilarity).is_some());
        }
    }

    #[test]
    fn execute_many_matches_sequential_execute() {
        let snap = snapshot();
        let queries = vec![
            QueryBuilder::keyword("drug").top_k(5).build(),
            QueryBuilder::cross_modal_text("enzyme inhibitor")
                .top_k(4)
                .build(),
            QueryBuilder::joinable("Drugs").top_k(3).build(),
            QueryBuilder::joinable("NoSuch").top_k(3).build(),
            QueryBuilder::pkfk().top_k(5).build(),
        ];
        let batched = snap.execute_many(&queries);
        assert_eq!(batched.len(), queries.len());
        for (query, result) in queries.iter().zip(&batched) {
            let sequential = snap.execute(query);
            match (result, sequential) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.hits, b.hits, "hits differ for {}", query.kind());
                    assert_eq!(a.generation, b.generation);
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("divergent outcomes for {}: {a:?} vs {b:?}", query.kind()),
            }
        }
    }

    #[test]
    fn response_roundtrips_through_serde_json() {
        let snap = snapshot();
        for query in [
            QueryBuilder::keyword("drug")
                .mode(SearchMode::Tables)
                .build(),
            QueryBuilder::cross_modal_text("enzyme").top_k(3).build(),
            QueryBuilder::unionable("Drugs").top_k(2).build(),
            QueryBuilder::pkfk().top_k(2).min_score(0.1).build(),
        ] {
            let response = snap.execute(&query).unwrap();
            let json = serde_json::to_string(&response).unwrap();
            let back: QueryResponse = serde_json::from_str(&json).unwrap();
            assert_eq!(back, response);
        }
    }
}
