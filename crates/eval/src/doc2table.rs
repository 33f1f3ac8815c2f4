//! Doc→Table evaluation (Figure 6).
//!
//! Runs every Doc→Table method — the CMDL variants and the baselines — over
//! a [`Benchmark`] of type [`BenchmarkKind::DocToTable`] and collects a
//! precision/recall curve per method.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use cmdl_baselines::{
    ContainmentSearch, ElasticBaseline, ElasticVariant, EntityMatcher, EntityMetric,
};
use cmdl_core::{Cmdl, CrossModalStrategy, DocQuery, QueryBuilder};
use cmdl_datalake::{Benchmark, BenchmarkKind, QueryInput};

use crate::metrics::{precision_recall_curve, PrPoint};

/// The Doc→Table methods compared in Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Doc2TableMethod {
    /// CMDL with profiler solo embeddings.
    CmdlSolo,
    /// CMDL with the learned joint embeddings.
    CmdlJoint,
    /// CMDL joint embeddings with gold-label LF tuning.
    CmdlJointGold,
    /// Elastic BM25 over content ∪ schema.
    ElasticBm25,
    /// Elastic LM-Dirichlet over content ∪ schema.
    ElasticLmDirichlet,
    /// Elastic BM25 over content only.
    ElasticContentOnly,
    /// Elastic BM25 over schema only.
    ElasticSchemaOnly,
    /// Containment (sketch-based) search.
    Containment,
    /// Entity matching with Jaccard.
    EntityJaccard,
    /// Entity matching with Jaro (domain fine-tuned).
    EntityJaro,
}

impl Doc2TableMethod {
    /// Figure-6-style label.
    pub fn label(&self) -> &'static str {
        match self {
            Doc2TableMethod::CmdlSolo => "CMDL Solo Embedding",
            Doc2TableMethod::CmdlJoint => "CMDL Joint Embedding",
            Doc2TableMethod::CmdlJointGold => "CMDL Joint Embedding + Gold Tuning",
            Doc2TableMethod::ElasticBm25 => "Elastic-BM25",
            Doc2TableMethod::ElasticLmDirichlet => "Elastic-LMDirichlet",
            Doc2TableMethod::ElasticContentOnly => "Elastic BM25-Content Only",
            Doc2TableMethod::ElasticSchemaOnly => "Elastic BM25-Schema Only",
            Doc2TableMethod::Containment => "Containment search (sketch based)",
            Doc2TableMethod::EntityJaccard => "Entity-SpaCy-Jaccard",
            Doc2TableMethod::EntityJaro => "Entity-SpaCy-Jaro",
        }
    }

    /// The default method set used for the Figure 6 reproduction.
    pub fn default_set() -> Vec<Doc2TableMethod> {
        vec![
            Doc2TableMethod::CmdlSolo,
            Doc2TableMethod::CmdlJoint,
            Doc2TableMethod::ElasticBm25,
            Doc2TableMethod::ElasticLmDirichlet,
            Doc2TableMethod::ElasticContentOnly,
            Doc2TableMethod::ElasticSchemaOnly,
            Doc2TableMethod::Containment,
            Doc2TableMethod::EntityJaccard,
        ]
    }
}

/// The evaluation result of one method on one benchmark: its P/R curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Doc2TableEvaluation {
    /// Method label.
    pub method: String,
    /// One point per evaluated `k`.
    pub curve: Vec<PrPoint>,
}

/// Evaluate a Doc→Table method on a benchmark over a trained/untrained CMDL
/// system. `ks` controls the top-k sweep (the paper uses 5–100 for 1A and
/// 1–18 for 1B/1C).
pub fn evaluate_doc2table(
    cmdl: &Cmdl,
    benchmark: &Benchmark,
    method: Doc2TableMethod,
    ks: &[usize],
) -> Doc2TableEvaluation {
    assert_eq!(
        benchmark.kind,
        BenchmarkKind::DocToTable,
        "wrong benchmark kind"
    );
    let max_k = ks.iter().copied().max().unwrap_or(10);

    // Build baseline indexes lazily per method.
    let elastic = |variant: ElasticVariant| ElasticBaseline::build(&cmdl.profiled, variant);
    let per_query: Vec<(Vec<String>, BTreeSet<String>)> = benchmark
        .queries
        .iter()
        .filter_map(|query| {
            let QueryInput::Document(doc_idx) = &query.input else {
                return None;
            };
            let doc_id = cmdl.profiled.lake.document_id(*doc_idx)?;
            let profile = cmdl.profiled.profile(doc_id)?;
            let text = &cmdl.profiled.lake.documents()[*doc_idx].text;
            let cmdl_tables = |strategy| {
                let query = QueryBuilder::doc_to_table(DocQuery::Document(*doc_idx), strategy)
                    .top_k(max_k)
                    .build();
                cmdl.execute(&query)
                    .map(|response| response.hits)
                    .unwrap_or_default()
                    .into_iter()
                    .filter_map(|hit| hit.table)
                    .collect()
            };
            let ranked: Vec<String> = match method {
                Doc2TableMethod::CmdlSolo => cmdl_tables(CrossModalStrategy::SoloEmbedding),
                Doc2TableMethod::CmdlJoint | Doc2TableMethod::CmdlJointGold => {
                    cmdl_tables(CrossModalStrategy::JointEmbedding)
                }
                Doc2TableMethod::ElasticBm25 => answers(
                    elastic(ElasticVariant::Bm25ContentAndSchema)
                        .doc_to_table(&profile.content, max_k),
                ),
                Doc2TableMethod::ElasticLmDirichlet => answers(
                    elastic(ElasticVariant::LmDirichletContentAndSchema)
                        .doc_to_table(&profile.content, max_k),
                ),
                Doc2TableMethod::ElasticContentOnly => answers(
                    elastic(ElasticVariant::Bm25ContentOnly).doc_to_table(&profile.content, max_k),
                ),
                Doc2TableMethod::ElasticSchemaOnly => answers(
                    elastic(ElasticVariant::Bm25SchemaOnly).doc_to_table(&profile.content, max_k),
                ),
                Doc2TableMethod::Containment => answers(
                    ContainmentSearch::build(&cmdl.profiled, &cmdl.config)
                        .doc_to_table(&profile.content, max_k),
                ),
                Doc2TableMethod::EntityJaccard => answers(
                    EntityMatcher::build(&cmdl.profiled, EntityMetric::Jaccard)
                        .doc_to_table(text, max_k),
                ),
                Doc2TableMethod::EntityJaro => answers(
                    EntityMatcher::build_fine_tuned(&cmdl.profiled, EntityMetric::Jaro)
                        .doc_to_table(text, max_k),
                ),
            };
            Some((ranked, query.expected.clone()))
        })
        .collect();

    Doc2TableEvaluation {
        method: method.label().to_string(),
        curve: precision_recall_curve(&per_query, ks),
    }
}

fn answers(results: Vec<(String, f64)>) -> Vec<String> {
    results.into_iter().map(|(t, _)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_core::CmdlConfig;
    use cmdl_datalake::benchmarks::doc_to_table_benchmark;
    use cmdl_datalake::{synth, BenchmarkId};

    fn setup() -> (Cmdl, Benchmark) {
        let synth_lake = synth::pharma::generate(&synth::PharmaConfig::tiny());
        let benchmark = doc_to_table_benchmark(BenchmarkId::B1B, &synth_lake);
        let cmdl = Cmdl::build(synth_lake.lake, CmdlConfig::fast());
        (cmdl, benchmark)
    }

    #[test]
    fn cmdl_solo_beats_schema_only_baseline() {
        let (cmdl, benchmark) = setup();
        let ks = [2, 4, 6];
        let solo = evaluate_doc2table(&cmdl, &benchmark, Doc2TableMethod::CmdlSolo, &ks);
        let schema = evaluate_doc2table(&cmdl, &benchmark, Doc2TableMethod::ElasticSchemaOnly, &ks);
        let solo_recall: f64 = solo.curve.iter().map(|p| p.recall).sum();
        let schema_recall: f64 = schema.curve.iter().map(|p| p.recall).sum();
        assert!(
            solo_recall >= schema_recall,
            "CMDL solo recall {solo_recall} should be >= schema-only {schema_recall}"
        );
        assert_eq!(solo.curve.len(), ks.len());
    }

    #[test]
    fn all_methods_produce_valid_curves() {
        let (cmdl, benchmark) = setup();
        for method in Doc2TableMethod::default_set() {
            let eval = evaluate_doc2table(&cmdl, &benchmark, method, &[3]);
            assert_eq!(eval.curve.len(), 1);
            let p = eval.curve[0];
            assert!((0.0..=1.0).contains(&p.precision), "{method:?}");
            assert!((0.0..=1.0).contains(&p.recall), "{method:?}");
        }
    }

    #[test]
    #[should_panic]
    fn wrong_benchmark_kind_panics() {
        let synth_lake = synth::pharma::generate(&synth::PharmaConfig::tiny());
        let wrong = cmdl_datalake::benchmarks::unionable_benchmark(BenchmarkId::B3B, &synth_lake);
        let cmdl = Cmdl::build(synth_lake.lake, CmdlConfig::fast());
        evaluate_doc2table(&cmdl, &wrong, Doc2TableMethod::CmdlSolo, &[1]);
    }
}
