//! # cmdl-baselines
//!
//! The baseline discovery systems the paper compares CMDL against
//! (Section 6, "Baselines"):
//!
//! * [`elastic`] — keyword-search baselines over the tabular columns: BM25
//!   and LM-Dirichlet over content ∪ schema, and BM25 over content-only /
//!   schema-only (the four "Elastic" labels of Figure 6).
//! * [`containment`] — the sketch-based containment-search baseline
//!   (MinHash + LSH Ensemble), threshold-based as in the original LSH
//!   Ensemble system.
//! * [`entity`] — entity-matching baselines in the spirit of SpaCy /
//!   SciSpaCy: extract entity-like mentions from documents and table tuples
//!   and match them with Jaccard or Jaro similarity; a "fine-tuned" mode is
//!   primed with the domain vocabulary (mirroring SciSpaCy on PubMed).
//! * [`aurum`] — the Aurum system for structured-data discovery: Jaccard
//!   similarity + schema similarity edges, PK-FK based on Jaccard inclusion,
//!   unionability as the maximum of schema and value similarity.
//! * [`d3l`] — the D3L system: multiple hash-based similarity signals per
//!   column pair combined at query time with a weighted Euclidean score;
//!   union candidates obtained per-measure and then combined.
//!
//! All baselines operate on the same [`ProfiledLake`](cmdl_core::ProfiledLake)
//! CMDL uses, so comparisons isolate the *method* differences rather than
//! preprocessing differences — mirroring the paper's setup where all systems
//! see the same lake.

pub mod aurum;
pub mod containment;
pub mod d3l;
pub mod elastic;
pub mod entity;

pub use aurum::Aurum;
pub use containment::ContainmentSearch;
pub use d3l::D3l;
pub use elastic::{ElasticBaseline, ElasticVariant};
pub use entity::{EntityMatcher, EntityMetric};

/// A table-level discovery answer shared by all baselines: table name plus
/// relevance score, sorted descending by the caller.
pub type TableAnswer = (String, f64);

/// Sort table answers by score descending, ties by table name. The answers
/// are aggregated in a `HashMap`, so without the name tie-break equal-scored
/// tables — and which of them survive a `top_k` cut — would change from run
/// to run.
pub fn sort_table_answers(answers: &mut [TableAnswer]) {
    answers.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_core::{CmdlConfig, ProfiledLake, Profiler};
    use cmdl_datalake::{Column, DataLake, Table};

    /// A query table plus two identical candidate tables whose names
    /// differ only in a delimiter (so their metadata tokens, and hence
    /// their embeddings, are identical too), ingested in reverse name
    /// order.
    fn twin_lake() -> (ProfiledLake, CmdlConfig) {
        let table = |name: &str| {
            Table::new(
                name,
                vec![
                    Column::from_texts("region_code", ["e01", "e02", "e03", "e04", "e05"]),
                    Column::from_texts("region_name", ["leeds", "york", "hull", "bath", "ely"]),
                ],
            )
        };
        let mut lake = DataLake::new("twins");
        lake.add_table(table("regions"));
        lake.add_table(table("twin_copy"));
        lake.add_table(table("twin-copy"));
        let config = CmdlConfig::fast();
        (Profiler::new(&config).profile_lake(lake), config)
    }

    fn assert_stable_and_name_ordered(system: &str, runs: Vec<Vec<TableAnswer>>) {
        let first = &runs[0];
        for run in &runs {
            assert_eq!(run, first, "{system}: ranking changed between calls");
        }
        let twins: Vec<&TableAnswer> = first.iter().filter(|(t, _)| t.contains("copy")).collect();
        assert_eq!(twins.len(), 2, "{system}: both twins ranked: {first:?}");
        assert_eq!(twins[0].1, twins[1].1, "{system}: twins tie");
        assert_eq!(
            (twins[0].0.as_str(), twins[1].0.as_str()),
            ("twin-copy", "twin_copy"),
            "{system}: a tie ranks by name"
        );
    }

    #[test]
    fn union_and_doc_to_table_baselines_break_score_ties_by_table_name() {
        let (profiled, config) = twin_lake();
        let aurum = Aurum::new(&profiled, &config);
        let d3l = D3l::new(&profiled, &config);
        assert_stable_and_name_ordered(
            "Aurum",
            (0..20)
                .map(|_| aurum.unionable_tables("regions", 10))
                .collect(),
        );
        assert_stable_and_name_ordered(
            "D3L",
            (0..20)
                .map(|_| d3l.unionable_tables("regions", 10))
                .collect(),
        );

        // Doc→Table: the twins hold identical values, so they tie.
        let containment = ContainmentSearch::build(&profiled, &config);
        let query = cmdl_text::BagOfWords::from_tokens(["e01", "e02", "e03", "leeds", "york"]);
        assert_stable_and_name_ordered(
            "Containment",
            (0..20)
                .map(|_| containment.doc_to_table(&query, 10))
                .collect(),
        );
        let entity = EntityMatcher::build(&profiled, EntityMetric::Jaccard);
        let text = "Regions E01 and E02 report from Leeds";
        assert_stable_and_name_ordered(
            "Entity",
            (0..20).map(|_| entity.doc_to_table(text, 10)).collect(),
        );
    }
}
