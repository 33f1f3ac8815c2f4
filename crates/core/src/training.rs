//! Weakly-supervised training-dataset generation (paper Section 4.1,
//! Figure 3).
//!
//! The generator samples documents and columns, probes each CMDL index with
//! the sampled documents to obtain top-k matches, wraps those probes as
//! labeling functions, optionally prunes poor functions with gold labels,
//! fits the generative label model, trains the discriminative model on pair
//! features (the raw similarity scores), and emits `(document, column,
//! relatedness)` training pairs.

use std::collections::{BTreeSet, HashMap, HashSet};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use cmdl_datalake::DeId;
use cmdl_index::ScoringFunction;
use cmdl_weaklabel::{
    Candidate, DiscriminativeModel, GenerativeModel, GenerativeModelConfig, GoldLabel, GoldTuner,
    GoldTuningReport, LabelMatrix, LabelingFunction, LogisticRegressionConfig, Vote,
};

use crate::config::CmdlConfig;
use crate::indexes::IndexCatalog;
use crate::profile::ProfiledLake;

/// A labeled (document, column) training pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingPair {
    /// Document element id.
    pub doc: DeId,
    /// Column element id.
    pub column: DeId,
    /// Relatedness degree in `[0, 1]`.
    pub relatedness: f64,
}

/// The weakly-supervised training dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainingDataset {
    /// Labeled pairs.
    pub pairs: Vec<TrainingPair>,
}

impl TrainingDataset {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Is the dataset empty?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Distinct documents appearing in the dataset.
    pub fn documents(&self) -> Vec<DeId> {
        let mut set: Vec<DeId> = self.pairs.iter().map(|p| p.doc).collect();
        set.sort();
        set.dedup();
        set
    }

    /// Distinct columns appearing in the dataset.
    pub fn columns(&self) -> Vec<DeId> {
        let mut set: Vec<DeId> = self.pairs.iter().map(|p| p.column).collect();
        set.sort();
        set.dedup();
        set
    }

    /// Relatedness of a pair, if present.
    pub fn relatedness(&self, doc: DeId, column: DeId) -> Option<f64> {
        self.pairs
            .iter()
            .find(|p| p.doc == doc && p.column == column)
            .map(|p| p.relatedness)
    }

    /// Number of positive pairs at a threshold.
    pub fn num_positive(&self, threshold: f64) -> usize {
        self.pairs
            .iter()
            .filter(|p| p.relatedness >= threshold)
            .count()
    }
}

/// Outcome of the training-dataset generation.
#[derive(Debug, Clone)]
pub struct TrainingGenerationReport {
    /// Gold-tuning reports (empty when no gold labels were supplied).
    pub gold_reports: Vec<GoldTuningReport>,
    /// Estimated accuracy of each labeling function (generative model).
    pub lf_accuracies: Vec<(String, f64)>,
    /// Number of sampled documents.
    pub sampled_docs: usize,
    /// Number of sampled columns.
    pub sampled_columns: usize,
    /// Number of candidate pairs after coverage filtering.
    pub candidate_pairs: usize,
}

/// The training-dataset generator.
pub struct TrainingDatasetGenerator<'a> {
    profiled: &'a ProfiledLake,
    indexes: &'a IndexCatalog,
    config: &'a CmdlConfig,
}

impl<'a> TrainingDatasetGenerator<'a> {
    /// Create a generator over a profiled lake and its indexes.
    pub fn new(
        profiled: &'a ProfiledLake,
        indexes: &'a IndexCatalog,
        config: &'a CmdlConfig,
    ) -> Self {
        Self {
            profiled,
            indexes,
            config,
        }
    }

    /// Generate the training dataset.
    ///
    /// `gold` optionally provides a tiny ground-truth sample used to disable
    /// low-accuracy labeling functions (paper Figure 3, preprocessing phase).
    /// `sample_ratio` overrides the configured sample ratio when `Some`.
    pub fn generate(
        &self,
        gold: Option<&[GoldLabel]>,
        sample_ratio: Option<f64>,
    ) -> (TrainingDataset, TrainingGenerationReport) {
        let ratio = sample_ratio
            .unwrap_or(self.config.sample_ratio)
            .clamp(0.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x7EA1);

        // ---- Sample documents and columns --------------------------------
        let mut docs = self.profiled.doc_ids.clone();
        let mut columns: Vec<DeId> = self
            .profiled
            .column_ids
            .iter()
            .copied()
            .filter(|id| {
                self.profiled
                    .profile(*id)
                    .map(|p| p.tags.text_searchable)
                    .unwrap_or(false)
            })
            .collect();
        docs.shuffle(&mut rng);
        columns.shuffle(&mut rng);
        let num_docs =
            ((docs.len() as f64 * ratio).ceil() as usize).clamp(1.min(docs.len()), docs.len());
        let num_cols = ((columns.len() as f64 * ratio).ceil() as usize)
            .clamp(1.min(columns.len()), columns.len());
        docs.truncate(num_docs);
        columns.truncate(num_cols);
        let column_set: HashSet<DeId> = columns.iter().copied().collect();

        // ---- Top-k probes per document per index (the labeling functions) --
        let k = self.config.label_probe_top_k;
        let mut semantic_hits: HashMap<DeId, HashMap<DeId, f64>> = HashMap::new();
        let mut containment_hits: HashMap<DeId, HashMap<DeId, f64>> = HashMap::new();
        let mut content_hits: HashMap<DeId, HashMap<DeId, f64>> = HashMap::new();
        let mut metadata_hits: HashMap<DeId, HashMap<DeId, f64>> = HashMap::new();
        for &doc in &docs {
            let Some(profile) = self.profiled.profile(doc) else {
                continue;
            };
            semantic_hits.insert(
                doc,
                self.indexes
                    .solo_search(&profile.solo.content, k)
                    .into_iter()
                    .filter(|(id, _)| column_set.contains(id))
                    .collect(),
            );
            containment_hits.insert(
                doc,
                self.indexes
                    .containment_search(&profile.minhash, k)
                    .into_iter()
                    .filter(|(id, _)| column_set.contains(id))
                    .collect(),
            );
            content_hits.insert(
                doc,
                self.indexes
                    .content_search(
                        self.profiled,
                        &profile.content,
                        Some(cmdl_datalake::DeKind::Column),
                        k,
                        ScoringFunction::default(),
                    )
                    .into_iter()
                    .filter(|(id, _)| column_set.contains(id))
                    .collect(),
            );
            metadata_hits.insert(
                doc,
                self.indexes
                    .metadata_search(
                        self.profiled,
                        &profile.content,
                        Some(cmdl_datalake::DeKind::Column),
                        k,
                        ScoringFunction::default(),
                    )
                    .into_iter()
                    .filter(|(id, _)| column_set.contains(id))
                    .collect(),
            );
        }

        // Labeling-function semantics follow Snorkel practice: a function
        // votes *positive* for the columns its index probe returned among the
        // top-k and *abstains* otherwise (a missing column is weak evidence —
        // the probe is top-k bounded — so it should not be an explicit
        // negative vote). Explicit negatives are added after labeling.
        let lf_from_hits = |name: &str, hits: HashMap<DeId, HashMap<DeId, f64>>| {
            LabelingFunction::new(name, move |c: &Candidate| match hits.get(&DeId(c.left)) {
                Some(cols) if cols.contains_key(&DeId(c.right)) => Vote::Positive,
                Some(_) => Vote::Abstain,
                None => Vote::Abstain,
            })
        };
        let mut functions = vec![
            lf_from_hits("semantic_solo", semantic_hits.clone()),
            lf_from_hits("containment_lsh", containment_hits.clone()),
            lf_from_hits("content_keyword", content_hits.clone()),
            lf_from_hits("metadata_keyword", metadata_hits.clone()),
        ];

        // ---- Optional gold-label pruning ----------------------------------
        let gold_reports = match gold {
            Some(gold) if !gold.is_empty() => GoldTuner::default().tune(&mut functions, gold),
            _ => Vec::new(),
        };

        // ---- Label matrix over the Cartesian product ----------------------
        let candidates: Vec<Candidate> = docs
            .iter()
            .flat_map(|d| {
                columns
                    .iter()
                    .map(move |c| Candidate::new(d.raw(), c.raw()))
            })
            .collect();
        let mut matrix = LabelMatrix::build(&functions, &candidates);
        matrix.retain_covered();

        let generative = GenerativeModel::fit(
            &matrix,
            GenerativeModelConfig {
                // Covered pairs (≥1 positive top-k vote) are an enriched
                // sample, so an uninformative 0.5 prior is appropriate.
                prior_positive: 0.5,
                ..Default::default()
            },
        );
        let lf_accuracies: Vec<(String, f64)> = matrix
            .function_names
            .iter()
            .cloned()
            .zip(generative.accuracies().iter().copied())
            .collect();

        // ---- Discriminative model over similarity-score features ----------
        let feature_of = |doc: DeId, col: DeId| -> Vec<f64> {
            vec![
                semantic_hits
                    .get(&doc)
                    .and_then(|m| m.get(&col))
                    .copied()
                    .unwrap_or(0.0),
                containment_hits
                    .get(&doc)
                    .and_then(|m| m.get(&col))
                    .copied()
                    .unwrap_or(0.0),
                normalize_bm25(content_hits.get(&doc).and_then(|m| m.get(&col)).copied()),
                normalize_bm25(metadata_hits.get(&doc).and_then(|m| m.get(&col)).copied()),
            ]
        };
        let features: Vec<Vec<f64>> = matrix
            .candidates
            .iter()
            .map(|c| feature_of(DeId(c.left), DeId(c.right)))
            .collect();
        let targets: Vec<f64> = generative.posteriors().to_vec();
        let discriminative = if features.is_empty() {
            None
        } else {
            Some(DiscriminativeModel::train(
                &features,
                &targets,
                &LogisticRegressionConfig {
                    epochs: 80,
                    ..Default::default()
                },
            ))
        };

        // ---- Emit training pairs ------------------------------------------
        // Covered (positively-voted) pairs get the blend of generative and
        // discriminative scores; for each involved document we also emit its
        // non-covered sampled columns as explicit negatives (relatedness 0)
        // so the triplet generator has negative samples.
        let mut pairs = Vec::new();
        let mut covered: HashSet<(DeId, DeId)> = HashSet::new();
        for (candidate, posterior) in matrix.candidates.iter().zip(generative.posteriors()) {
            let doc = DeId(candidate.left);
            let col = DeId(candidate.right);
            let disc = discriminative
                .as_ref()
                .map(|m| m.predict_proba(&feature_of(doc, col)))
                .unwrap_or(*posterior);
            pairs.push(TrainingPair {
                doc,
                column: col,
                relatedness: (0.5 * posterior + 0.5 * disc).clamp(0.0, 1.0),
            });
            covered.insert((doc, col));
        }
        // Sorted, so the order in which documents draw their negatives
        // from `neg_rng` does not depend on hash order.
        let covered_docs: BTreeSet<DeId> = covered.iter().map(|(d, _)| *d).collect();
        let mut neg_rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x9E6);
        for &doc in covered_docs.iter() {
            let mut negatives: Vec<DeId> = columns
                .iter()
                .copied()
                .filter(|c| !covered.contains(&(doc, *c)))
                .collect();
            negatives.shuffle(&mut neg_rng);
            for col in negatives.into_iter().take(self.config.label_probe_top_k) {
                pairs.push(TrainingPair {
                    doc,
                    column: col,
                    relatedness: 0.0,
                });
            }
        }

        let report = TrainingGenerationReport {
            gold_reports,
            lf_accuracies,
            sampled_docs: docs.len(),
            sampled_columns: columns.len(),
            candidate_pairs: matrix.num_candidates(),
        };
        (TrainingDataset { pairs }, report)
    }
}

/// Squash an unbounded BM25 score into `[0, 1)`.
fn normalize_bm25(score: Option<f64>) -> f64 {
    match score {
        Some(s) if s > 0.0 => s / (s + 5.0),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiler;
    use cmdl_datalake::synth;

    fn setup() -> (ProfiledLake, IndexCatalog, CmdlConfig) {
        let config = CmdlConfig::fast();
        let profiled = Profiler::new(&config)
            .profile_lake(synth::pharma::generate(&synth::PharmaConfig::tiny()).lake);
        let catalog = IndexCatalog::build(&profiled, &config);
        (profiled, catalog, config)
    }

    #[test]
    fn generates_nonempty_dataset() {
        let (profiled, catalog, config) = setup();
        let generator = TrainingDatasetGenerator::new(&profiled, &catalog, &config);
        let (dataset, report) = generator.generate(None, None);
        assert!(!dataset.is_empty());
        assert!(report.sampled_docs > 0);
        assert!(report.sampled_columns > 0);
        assert!(report.candidate_pairs > 0);
        assert_eq!(report.lf_accuracies.len(), 4);
        // Relatedness values stay in [0, 1].
        assert!(dataset
            .pairs
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.relatedness)));
        // Both positives and negatives exist.
        assert!(dataset.num_positive(0.5) > 0);
        assert!(dataset.pairs.iter().any(|p| p.relatedness == 0.0));
    }

    #[test]
    fn positives_point_at_related_tables() {
        let (profiled, catalog, config) = setup();
        let generator = TrainingDatasetGenerator::new(&profiled, &catalog, &config);
        let (dataset, _) = generator.generate(None, None);
        // A majority of strongly-positive pairs should involve the tables
        // that documents actually talk about (Drugs / Enzyme* / Compounds /
        // interactions / projections of them).
        let positive_tables: Vec<String> = dataset
            .pairs
            .iter()
            .filter(|p| p.relatedness >= 0.7)
            .filter_map(|p| {
                profiled
                    .profile(p.column)
                    .and_then(|c| c.table_name.clone())
            })
            .collect();
        assert!(!positive_tables.is_empty());
        let relevant = positive_tables
            .iter()
            .filter(|t| {
                t.contains("Drug")
                    || t.contains("Enzyme")
                    || t.contains("Compound")
                    || t.contains("Chemical")
                    || t.contains("Assay")
                    || t.contains("Trial")
            })
            .count();
        assert!(
            relevant * 2 >= positive_tables.len(),
            "most positives should involve entity tables: {relevant}/{}",
            positive_tables.len()
        );
    }

    #[test]
    fn sample_ratio_controls_size() {
        let (profiled, catalog, config) = setup();
        let generator = TrainingDatasetGenerator::new(&profiled, &catalog, &config);
        let (_, small) = generator.generate(None, Some(0.2));
        let (_, large) = generator.generate(None, Some(1.0));
        assert!(large.sampled_docs >= small.sampled_docs);
        assert!(large.sampled_columns >= small.sampled_columns);
    }

    #[test]
    fn gold_labels_produce_reports() {
        let (profiled, catalog, config) = setup();
        let generator = TrainingDatasetGenerator::new(&profiled, &catalog, &config);
        // Build a small gold set from the lake ground truth: documents are
        // related to columns of their ground-truth tables.
        let synth = synth::pharma::generate(&synth::PharmaConfig::tiny());
        let mut gold = Vec::new();
        for (doc_idx, tables) in synth.truth.doc_to_table.iter().take(5) {
            let doc_id = profiled.lake.document_id(*doc_idx).unwrap();
            for table in tables.iter().take(1) {
                for col in profiled.columns_of_table(table).into_iter().take(1) {
                    gold.push(GoldLabel::new(doc_id.raw(), col.raw(), true));
                }
            }
            // one negative
            if let Some(col) = profiled.columns_of_table("regions").first() {
                gold.push(GoldLabel::new(doc_id.raw(), col.raw(), false));
            }
        }
        let (_, report) = generator.generate(Some(&gold), None);
        assert_eq!(report.gold_reports.len(), 4);
    }

    #[test]
    fn dataset_helpers() {
        let dataset = TrainingDataset {
            pairs: vec![
                TrainingPair {
                    doc: DeId(1),
                    column: DeId(10),
                    relatedness: 0.9,
                },
                TrainingPair {
                    doc: DeId(1),
                    column: DeId(11),
                    relatedness: 0.1,
                },
                TrainingPair {
                    doc: DeId(2),
                    column: DeId(10),
                    relatedness: 0.6,
                },
            ],
        };
        assert_eq!(dataset.len(), 3);
        assert_eq!(dataset.documents(), vec![DeId(1), DeId(2)]);
        assert_eq!(dataset.columns(), vec![DeId(10), DeId(11)]);
        assert_eq!(dataset.relatedness(DeId(1), DeId(11)), Some(0.1));
        assert_eq!(dataset.relatedness(DeId(3), DeId(11)), None);
        assert_eq!(dataset.num_positive(0.5), 2);
    }
}
