//! The Aurum baseline (Fernandez et al., ICDE 2018).
//!
//! Aurum materializes schema- and content-similarity links between column
//! pairs into a knowledge graph and answers discovery queries from it. The
//! behavioural differences from CMDL that the paper's evaluation hinges on:
//!
//! * **joinability** uses symmetric *Jaccard similarity* over value sets
//!   (instead of CMDL's asymmetric set containment), which degrades under
//!   skewed column cardinalities (Table 3);
//! * **PK-FK** uses Jaccard similarity as its inclusion measure plus a
//!   key-cardinality estimate (Table 4);
//! * **unionability** combines only two signals — schema (name) similarity
//!   and Jaccard value similarity — by taking their maximum (Figure 7).

use std::collections::HashMap;

use cmdl_core::profile::{DeProfile, ProfiledLake};
use cmdl_core::CmdlConfig;
use cmdl_datalake::DeId;
use cmdl_sketch::{exact_jaccard, numeric_overlap};
use cmdl_text::strsim::name_similarity;

use crate::TableAnswer;

/// A discovered PK-FK link in Aurum's format.
#[derive(Debug, Clone, PartialEq)]
pub struct AurumPkFk {
    /// Qualified PK column name.
    pub pk_name: String,
    /// Qualified FK column name.
    pub fk_name: String,
    /// Link score.
    pub score: f64,
}

/// The Aurum baseline system.
pub struct Aurum<'a> {
    profiled: &'a ProfiledLake,
    config: &'a CmdlConfig,
}

impl<'a> Aurum<'a> {
    /// Create the baseline over a profiled lake.
    pub fn new(profiled: &'a ProfiledLake, config: &'a CmdlConfig) -> Self {
        Self { profiled, config }
    }

    /// Jaccard-similarity join score between two columns (numeric columns use
    /// the same numeric-overlap measure as CMDL, as the paper notes the two
    /// systems are identical there).
    pub fn join_score(&self, a: &DeProfile, b: &DeProfile) -> f64 {
        if a.tags.numeric && b.tags.numeric {
            return match (&a.numeric, &b.numeric) {
                (Some(na), Some(nb)) => numeric_overlap(na, nb),
                _ => 0.0,
            };
        }
        if a.tags.numeric != b.tags.numeric {
            return 0.0;
        }
        exact_jaccard(&a.distinct_values, &b.distinct_values)
    }

    /// Top-k joinable columns for a query column, by Jaccard similarity.
    pub fn joinable_columns(&self, column: DeId, top_k: usize) -> Vec<(DeId, f64)> {
        let Some(query) = self.profiled.profile(column) else {
            return Vec::new();
        };
        let mut scored: Vec<(DeId, f64)> = self
            .profiled
            .column_ids
            .iter()
            .filter_map(|&id| {
                if id == column {
                    return None;
                }
                let candidate = self.profiled.profile(id)?;
                if candidate.table_name == query.table_name || !candidate.tags.join_candidate {
                    return None;
                }
                let score = self.join_score(query, candidate);
                (score > 0.0).then_some((id, score))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(top_k);
        scored
    }

    /// PK-FK discovery with Jaccard similarity as the inclusion measure.
    pub fn pkfk_links(&self) -> Vec<AurumPkFk> {
        let mut links = Vec::new();
        for &pk_id in &self.profiled.column_ids {
            let Some(pk) = self.profiled.profile(pk_id) else {
                continue;
            };
            if !pk.tags.key_like || !pk.tags.join_candidate {
                continue;
            }
            for &fk_id in &self.profiled.column_ids {
                if pk_id == fk_id {
                    continue;
                }
                let Some(fk) = self.profiled.profile(fk_id) else {
                    continue;
                };
                if fk.table_name == pk.table_name || !fk.tags.join_candidate {
                    continue;
                }
                if pk.tags.numeric != fk.tags.numeric {
                    continue;
                }
                let inclusion = if pk.tags.numeric {
                    match (&fk.numeric, &pk.numeric) {
                        (Some(nf), Some(np)) => {
                            if nf.range_contained_in(np) {
                                1.0
                            } else {
                                numeric_overlap(nf, np)
                            }
                        }
                        _ => 0.0,
                    }
                } else {
                    // Aurum's inclusion measure: Jaccard similarity.
                    exact_jaccard(&fk.distinct_values, &pk.distinct_values)
                };
                let name_sim = name_similarity(&pk.name, &fk.name);
                // The PK-FK definition requires the FK values to be entirely
                // contained in the PK column; Aurum approximates "entirely
                // contained" with a high Jaccard-similarity threshold, which
                // misses FK columns covering only part of the key domain —
                // the higher-precision / lower-recall trade-off of Table 4.
                if inclusion >= 0.8 && name_sim >= self.config.pkfk_name_similarity {
                    links.push(AurumPkFk {
                        pk_name: pk.qualified_name.clone(),
                        fk_name: fk.qualified_name.clone(),
                        score: 0.7 * inclusion + 0.3 * name_sim,
                    });
                }
            }
        }
        links.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        links
    }

    /// Unionable tables: Aurum combines schema similarity and Jaccard value
    /// similarity by taking the maximum of the two, aggregated over the best
    /// column alignment (greedy).
    pub fn unionable_tables(&self, table_name: &str, top_k: usize) -> Vec<TableAnswer> {
        let query_columns = self.profiled.columns_of_table(table_name);
        if query_columns.is_empty() {
            return Vec::new();
        }
        let mut per_table: HashMap<String, Vec<f64>> = HashMap::new();
        for &qcol in &query_columns {
            let Some(q) = self.profiled.profile(qcol) else {
                continue;
            };
            for &ccol in &self.profiled.column_ids {
                let Some(c) = self.profiled.profile(ccol) else {
                    continue;
                };
                let Some(ctable) = c.table_name.clone() else {
                    continue;
                };
                if ctable == table_name {
                    continue;
                }
                let schema = name_similarity(&q.name, &c.name);
                let value = self.join_score(q, c);
                let score = schema.max(value);
                if score > 0.3 {
                    per_table.entry(ctable).or_default().push(score);
                }
            }
        }
        let mut out: Vec<TableAnswer> = per_table
            .into_iter()
            .map(|(table, scores)| {
                let columns = self
                    .profiled
                    .columns_of_table(&table)
                    .len()
                    .max(query_columns.len());
                let mut sorted = scores;
                sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
                sorted.truncate(columns);
                let score = sorted.iter().sum::<f64>() / columns as f64;
                (table, score.clamp(0.0, 1.0))
            })
            .collect();
        crate::sort_table_answers(&mut out);
        out.truncate(top_k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_core::Profiler;
    use cmdl_datalake::synth;

    fn setup() -> (ProfiledLake, CmdlConfig) {
        let config = CmdlConfig::fast();
        let profiled = Profiler::new(&config)
            .profile_lake(synth::pharma::generate(&synth::PharmaConfig::tiny()).lake);
        (profiled, config)
    }

    #[test]
    fn jaccard_join_finds_equal_cardinality_partners() {
        let (profiled, config) = setup();
        let aurum = Aurum::new(&profiled, &config);
        // Drugs.Id and Dosages.Drug_Key share the full domain -> high Jaccard.
        let id = profiled.lake.column_id_by_name("Drugs", "Id").unwrap();
        let results = aurum.joinable_columns(id, 10);
        assert!(!results.is_empty());
        let names: Vec<String> = results
            .iter()
            .map(|(c, _)| profiled.profile(*c).unwrap().qualified_name.clone())
            .collect();
        assert!(names
            .iter()
            .any(|n| n.contains("Drug_Key") || n.contains("Drug_1")));
    }

    #[test]
    fn jaccard_penalizes_skewed_cardinalities() {
        let (profiled, config) = setup();
        let aurum = Aurum::new(&profiled, &config);
        let columns = cmdl_core::ColumnIndex::build(&profiled);
        let cmdl_join = cmdl_core::JoinDiscovery::new(&profiled, &columns, &config);
        // Enzyme_Targets.Id values are a subset of Enzymes.Id (skewed overlap):
        // containment sees 1.0, Jaccard sees less.
        let sub = profiled
            .lake
            .column_id_by_name("Enzyme_Targets", "Id")
            .unwrap();
        let sup = profiled.lake.column_id_by_name("Enzymes", "Id").unwrap();
        let a = profiled.profile(sub).unwrap();
        let b = profiled.profile(sup).unwrap();
        assert!(cmdl_join.join_score(a, b) >= aurum.join_score(a, b));
    }

    #[test]
    fn pkfk_recall_gap_matches_table4_shape() {
        let config = CmdlConfig::fast();
        let synth_lake = synth::pharma::generate(&synth::PharmaConfig::tiny());
        let truth: std::collections::HashSet<(String, String)> = synth_lake
            .truth
            .pkfk
            .iter()
            .map(|(pk, fk)| (format!("{}.{}", pk.0, pk.1), format!("{}.{}", fk.0, fk.1)))
            .collect();
        let profiled = Profiler::new(&config).profile_lake(synth_lake.lake);
        let aurum = Aurum::new(&profiled, &config);
        let aurum_hits = aurum
            .pkfk_links()
            .iter()
            .filter(|l| truth.contains(&(l.pk_name.clone(), l.fk_name.clone())))
            .count();
        let columns = cmdl_core::ColumnIndex::build(&profiled);
        let cmdl_hits = cmdl_core::JoinDiscovery::new(&profiled, &columns, &config)
            .pkfk_links()
            .iter()
            .filter(|l| truth.contains(&(l.pk_name.clone(), l.fk_name.clone())))
            .count();
        // CMDL (containment-based) recovers at least as many true links as
        // Aurum (Jaccard-based) — the recall gap of Table 4.
        assert!(
            cmdl_hits >= aurum_hits,
            "cmdl {cmdl_hits} vs aurum {aurum_hits}"
        );
        assert!(cmdl_hits > 0);
    }

    #[test]
    fn unionable_tables_returns_ranked_list() {
        let (profiled, config) = setup();
        let aurum = Aurum::new(&profiled, &config);
        let results = aurum.unionable_tables("Drugs", 5);
        for w in results.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(aurum.unionable_tables("missing", 5).is_empty());
    }
}
