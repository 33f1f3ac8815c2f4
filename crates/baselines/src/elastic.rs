//! Keyword-search (Elastic-style) Doc→Table baselines.

use std::collections::HashMap;

use cmdl_core::profile::ProfiledLake;
use cmdl_datalake::DeKind;
use cmdl_index::{Bm25Params, InvertedIndex, ScoringFunction};
use cmdl_text::BagOfWords;

use crate::{sort_table_answers, TableAnswer};

/// The four Elastic-search variants of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElasticVariant {
    /// BM25 over the union of content values and schema terms.
    Bm25ContentAndSchema,
    /// LM-Dirichlet over the union of content values and schema terms.
    LmDirichletContentAndSchema,
    /// BM25 over content values only.
    Bm25ContentOnly,
    /// BM25 over schema (metadata) terms only.
    Bm25SchemaOnly,
}

impl ElasticVariant {
    /// Human-readable label matching the figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            ElasticVariant::Bm25ContentAndSchema => "Elastic-BM25",
            ElasticVariant::LmDirichletContentAndSchema => "Elastic-LMDirichlet",
            ElasticVariant::Bm25ContentOnly => "Elastic BM25-Content Only",
            ElasticVariant::Bm25SchemaOnly => "Elastic BM25-Schema Only",
        }
    }

    /// All four variants.
    pub fn all() -> [ElasticVariant; 4] {
        [
            ElasticVariant::Bm25ContentAndSchema,
            ElasticVariant::LmDirichletContentAndSchema,
            ElasticVariant::Bm25ContentOnly,
            ElasticVariant::Bm25SchemaOnly,
        ]
    }
}

/// A keyword-search baseline over the tabular columns of a profiled lake.
#[derive(Debug, Clone)]
pub struct ElasticBaseline {
    variant: ElasticVariant,
    index: InvertedIndex,
    column_tables: HashMap<u64, String>,
}

impl ElasticBaseline {
    /// Build the baseline index for a variant.
    pub fn build(profiled: &ProfiledLake, variant: ElasticVariant) -> Self {
        let mut index = InvertedIndex::new();
        let mut column_tables = HashMap::new();
        for &id in &profiled.column_ids {
            let Some(profile) = profiled.profile(id) else {
                continue;
            };
            if profile.kind != DeKind::Column {
                continue;
            }
            let bow = match variant {
                ElasticVariant::Bm25ContentOnly => profile.content.clone(),
                ElasticVariant::Bm25SchemaOnly => profile.metadata.clone(),
                _ => {
                    let mut combined = profile.content.clone();
                    combined.merge(&profile.metadata);
                    combined
                }
            };
            index.add(id.raw(), &bow);
            if let Some(table) = &profile.table_name {
                column_tables.insert(id.raw(), table.clone());
            }
        }
        index.finalize();
        Self {
            variant,
            index,
            column_tables,
        }
    }

    /// The variant this baseline was built for.
    pub fn variant(&self) -> ElasticVariant {
        self.variant
    }

    /// Doc→Table search: score columns with the keyword query and aggregate
    /// per table by the best column score.
    pub fn doc_to_table(&self, query: &BagOfWords, top_k: usize) -> Vec<TableAnswer> {
        let scoring = match self.variant {
            ElasticVariant::LmDirichletContentAndSchema => {
                ScoringFunction::LmDirichlet { mu: 2000.0 }
            }
            _ => ScoringFunction::Bm25(Bm25Params::default()),
        };
        // Aggregating columns to tables can consume many column hits per
        // table, so a fixed over-fetch multiple can under-fill the answer.
        // Double the fetch size until `top_k` distinct tables are covered
        // or the index is exhausted.
        let mut fetch = top_k * 4;
        let mut tables: HashMap<String, f64> = HashMap::new();
        loop {
            let hits = self.index.search_with(query, fetch, scoring);
            let exhausted = hits.len() < fetch;
            tables.clear();
            for (id, score) in hits {
                if let Some(table) = self.column_tables.get(&id) {
                    let entry = tables.entry(table.clone()).or_insert(0.0);
                    if score > *entry {
                        *entry = score;
                    }
                }
            }
            if tables.len() >= top_k || exhausted {
                break;
            }
            fetch *= 2;
        }
        let mut out: Vec<TableAnswer> = tables.into_iter().collect();
        sort_table_answers(&mut out);
        out.truncate(top_k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_core::{CmdlConfig, Profiler};
    use cmdl_datalake::synth;

    fn profiled() -> ProfiledLake {
        Profiler::new(&CmdlConfig::fast())
            .profile_lake(synth::pharma::generate(&synth::PharmaConfig::tiny()).lake)
    }

    #[test]
    fn content_variant_finds_drug_tables() {
        let profiled = profiled();
        let baseline = ElasticBaseline::build(&profiled, ElasticVariant::Bm25ContentAndSchema);
        let drug = profiled
            .lake
            .table("Drugs")
            .unwrap()
            .column("Drug")
            .unwrap()
            .values[0]
            .as_text();
        let query = BagOfWords::from_tokens(drug.split_whitespace());
        let results = baseline.doc_to_table(&query, 5);
        assert!(!results.is_empty());
        assert!(results.iter().any(|(t, _)| t == "Drugs"
            || t == "Compounds"
            || t.contains("proj")
            || t == "Chemical_Entities"
            || t == "Drug_Interactions"));
    }

    #[test]
    fn schema_only_differs_from_content_only() {
        let profiled = profiled();
        let content = ElasticBaseline::build(&profiled, ElasticVariant::Bm25ContentOnly);
        let schema = ElasticBaseline::build(&profiled, ElasticVariant::Bm25SchemaOnly);
        // A schema word ("target") should hit via schema index even if absent
        // from values.
        let query = BagOfWords::from_tokens(["target", "action"]);
        let s = schema.doc_to_table(&query, 5);
        assert!(s
            .iter()
            .any(|(t, _)| t == "Enzyme_Targets" || t == "Enzymes" || t == "Assays"));
        let _ = content.doc_to_table(&query, 5);
    }

    #[test]
    fn all_variants_build_and_answer() {
        let profiled = profiled();
        let query = BagOfWords::from_tokens(["enzyme", "inhibitor"]);
        for v in ElasticVariant::all() {
            let b = ElasticBaseline::build(&profiled, v);
            assert_eq!(b.variant(), v);
            let _ = b.doc_to_table(&query, 3);
            assert!(!v.label().is_empty());
        }
    }
}
