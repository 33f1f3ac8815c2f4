//! Unionable-table discovery.
//!
//! Two tables are unionable when a one-to-one column mapping exists in which
//! the mapped column pairs exhibit name, value-containment, numeric-range, or
//! semantic similarity (paper Section 2.1 / 5.1). CMDL combines the four
//! measures into an *ensemble* score per column pair first, keeps the pairs
//! scoring above a floor as candidate alignments, and then aligns each
//! candidate table's columns with the query table's columns through maximal
//! bipartite graph matching (greedy weighted matching, as the TUS-style
//! algorithm the paper defers to), the matched weight normalized by the
//! larger column count giving the table-level unionability score.
//!
//! Every column pair is still scored — the ensemble can exceed the floor on
//! name or embedding evidence alone, so no value index can prune it — but
//! each pair is cheap: [`UnionDiscovery::unionable_candidates`] reads the
//! pair's value overlap from one [`ColumnIndex`] walk per query column,
//! compares prepared name features, and reuses each column's stored
//! embedding self-dot. The scan keeps `column_ids` order, so the tie order
//! inside `greedy_matching` is the pairwise scan's; that scan survives as
//! [`UnionDiscovery::unionable_candidates_brute`], the bit-for-bit
//! reference.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use cmdl_datalake::DeId;
use cmdl_index::ann::{cosine_similarity, cosine_with_self_dots};
use cmdl_nn::dot_f32;
use cmdl_sketch::{exact_containment, numeric_overlap};
use cmdl_text::strsim::{name_similarity, NameFeatures};

use crate::column_index::{containment_ratio, ColumnEntry, ColumnIndex};
use crate::profile::{DeProfile, ProfiledLake};

/// The individual similarity measures combined by the unionability ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnionSignals {
    /// Column-name similarity.
    pub name: f64,
    /// Symmetric value containment.
    pub containment: f64,
    /// Numeric range overlap (0 for non-numeric pairs).
    pub numeric: f64,
    /// Semantic (solo embedding) cosine similarity.
    pub semantic: f64,
}

impl UnionSignals {
    /// The ensemble score: emphasis on the most discriminating evidence
    /// (maximum) blended with the average of all signals.
    pub fn ensemble(&self) -> f64 {
        let values = [self.name, self.containment, self.numeric, self.semantic];
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        0.7 * max + 0.3 * avg
    }

    /// The score of a single named measure (used by the Table 5 analysis).
    pub fn by_name(&self, measure: &str) -> f64 {
        match measure {
            "name" => self.name,
            "containment" => self.containment,
            "numeric" => self.numeric,
            "semantic" => self.semantic,
            _ => self.ensemble(),
        }
    }
}

/// A table-level unionability result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnionScore {
    /// Candidate table name.
    pub table: String,
    /// Table-level unionability score in `[0, 1]`.
    pub score: f64,
    /// The matched column pairs `(query column, candidate column, score)`.
    pub mapping: Vec<(String, String, f64)>,
    /// The matched column pairs as element ids, parallel to `mapping`
    /// (heaviest pair first). Lets callers recover the per-pair similarity
    /// signals without a name lookup.
    pub id_mapping: Vec<(DeId, DeId)>,
}

/// A column pair must score above this to propose its table.
const PAIR_FLOOR: f64 = 0.15;

/// [`UnionDiscovery::unionable_candidates`] or its brute-force reference.
type CandidateScorer<'a> =
    fn(&UnionDiscovery<'a>, &str, &[(DeId, &DeProfile)], &str) -> Vec<UnionScore>;

/// Unionability discovery over a profiled lake and its column index (the
/// two must describe the same catalog generation).
pub struct UnionDiscovery<'a> {
    profiled: &'a ProfiledLake,
    columns: &'a ColumnIndex,
}

impl<'a> UnionDiscovery<'a> {
    /// Create a union-discovery engine.
    pub fn new(profiled: &'a ProfiledLake, columns: &'a ColumnIndex) -> Self {
        Self { profiled, columns }
    }

    /// The four unionability signals between two column profiles.
    pub fn signals(&self, a: &DeProfile, b: &DeProfile) -> UnionSignals {
        let name = name_similarity(&a.name, &b.name);
        let containment = if a.tags.numeric || b.tags.numeric {
            0.0
        } else {
            let ab = exact_containment(&a.distinct_values, &b.distinct_values);
            let ba = exact_containment(&b.distinct_values, &a.distinct_values);
            ab.max(ba)
        };
        let numeric = match (&a.numeric, &b.numeric) {
            (Some(na), Some(nb)) => numeric_overlap(na, nb),
            _ => 0.0,
        };
        let semantic = cosine_similarity(&a.solo.content, &b.solo.content).max(0.0);
        UnionSignals {
            name,
            containment,
            numeric,
            semantic,
        }
    }

    /// Column-pair ensemble score.
    pub fn column_score(&self, a: &DeProfile, b: &DeProfile) -> f64 {
        self.signals(a, b).ensemble()
    }

    /// Find the `top_k` tables unionable with `table_name` using the ensemble
    /// measure.
    pub fn unionable_tables(&self, table_name: &str, top_k: usize) -> Vec<UnionScore> {
        self.unionable_tables_with(table_name, top_k, "ensemble")
    }

    /// Find unionable tables scoring column pairs with a single named measure
    /// (`"name"`, `"containment"`, `"numeric"`, `"semantic"`) or the ensemble
    /// (any other string). Used by the individual-measure analysis (Table 5).
    pub fn unionable_tables_with(
        &self,
        table_name: &str,
        top_k: usize,
        measure: &str,
    ) -> Vec<UnionScore> {
        self.rank_tables(table_name, top_k, measure, Self::unionable_candidates)
    }

    /// [`unionable_tables_with`](Self::unionable_tables_with) over
    /// [`unionable_candidates_brute`](Self::unionable_candidates_brute) —
    /// the exact reference.
    pub fn unionable_tables_with_brute(
        &self,
        table_name: &str,
        top_k: usize,
        measure: &str,
    ) -> Vec<UnionScore> {
        self.rank_tables(table_name, top_k, measure, Self::unionable_candidates_brute)
    }

    /// Score a local table's unionable candidates with `candidates` and
    /// keep the `top_k` in canonical order.
    fn rank_tables(
        &self,
        table_name: &str,
        top_k: usize,
        measure: &str,
        candidates: CandidateScorer<'a>,
    ) -> Vec<UnionScore> {
        let query: Vec<(DeId, &DeProfile)> = self
            .profiled
            .columns_of_table(table_name)
            .into_iter()
            .filter_map(|id| self.profiled.profile(id).map(|p| (id, p)))
            .collect();
        if query.is_empty() {
            return Vec::new();
        }
        let mut results = candidates(self, table_name, &query, measure);
        sort_union_scores(&mut results);
        results.truncate(top_k);
        results
    }

    /// The unsorted per-candidate-table scoring underlying
    /// [`unionable_tables_with`](Self::unionable_tables_with). The query
    /// columns arrive as explicit `(id, profile)` pairs so they may be
    /// *foreign* (resident on another shard; only their values, names and
    /// vectors are read); candidate tables are always local. Because a
    /// candidate table's columns all live on one shard, the per-table pair
    /// list — and therefore the tie order inside `greedy_matching` — is
    /// identical whether the scan runs over the whole lake or is scattered
    /// across shards and merged with [`sort_union_scores`].
    pub fn unionable_candidates(
        &self,
        query_table: &str,
        query: &[(DeId, &DeProfile)],
        measure: &str,
    ) -> Vec<UnionScore> {
        let columns = self.columns;
        let query_table_slot = columns.table_slot(query_table);
        // Candidate columns of other tables, in `column_ids` order.
        let candidates: Vec<(u32, &ColumnEntry, &DeProfile)> = self
            .profiled
            .column_ids
            .iter()
            .filter_map(|&id| {
                let (slot, entry) = columns.entry_of(id)?;
                if Some(entry.table) == query_table_slot {
                    return None;
                }
                Some((slot, entry, self.profiled.profile(id)?))
            })
            .collect();

        let mut per_table: HashMap<u32, Vec<(DeId, DeId, f64)>> = HashMap::new();
        let mut overlap = columns.overlap_counter();
        for &(qcol, qprofile) in query {
            let qname = NameFeatures::new(&qprofile.name);
            let qsolo = &qprofile.solo.content;
            let q_self_dot = dot_f32(qsolo, qsolo);
            let q_len = qprofile.distinct_values.len();
            if !qprofile.tags.numeric {
                columns.count_overlaps(&qprofile.distinct_values, &mut overlap);
            }
            for &(slot, entry, cprofile) in &candidates {
                let containment = if qprofile.tags.numeric || entry.numeric {
                    0.0
                } else {
                    let shared = overlap.get(slot);
                    containment_ratio(shared, q_len).max(containment_ratio(shared, entry.distinct))
                };
                let signals = UnionSignals {
                    name: qname.similarity(&entry.name),
                    containment,
                    numeric: match (&qprofile.numeric, &cprofile.numeric) {
                        (Some(na), Some(nb)) => numeric_overlap(na, nb),
                        _ => 0.0,
                    },
                    semantic: cosine_with_self_dots(
                        qsolo,
                        &cprofile.solo.content,
                        q_self_dot,
                        entry.solo_self_dot,
                    )
                    .max(0.0),
                };
                let score = signals.by_name(measure);
                if score > PAIR_FLOOR {
                    per_table
                        .entry(entry.table)
                        .or_default()
                        .push((qcol, entry.id, score));
                }
            }
            overlap.clear();
        }

        per_table
            .into_iter()
            .filter_map(|(table, pairs)| {
                self.table_score(
                    columns.table_name(table).to_string(),
                    query,
                    columns.table_columns(table),
                    &pairs,
                )
            })
            .collect()
    }

    /// [`unionable_candidates`](Self::unionable_candidates) as a scan that
    /// scores every column pair with [`signals`](Self::signals) — the exact
    /// reference the indexed path is held to.
    pub fn unionable_candidates_brute(
        &self,
        query_table: &str,
        query: &[(DeId, &DeProfile)],
        measure: &str,
    ) -> Vec<UnionScore> {
        let mut candidates: HashMap<String, Vec<(DeId, DeId, f64)>> = HashMap::new();
        for &(qcol, qprofile) in query {
            for &ccol in &self.profiled.column_ids {
                let Some(cprofile) = self.profiled.profile(ccol) else {
                    continue;
                };
                let Some(ctable) = cprofile.table_name.clone() else {
                    continue;
                };
                if ctable == query_table {
                    continue;
                }
                let score = self.signals(qprofile, cprofile).by_name(measure);
                if score > PAIR_FLOOR {
                    candidates
                        .entry(ctable)
                        .or_default()
                        .push((qcol, ccol, score));
                }
            }
        }
        candidates
            .into_iter()
            .filter_map(|(table, pairs)| {
                let candidate_columns = self.profiled.columns_of_table(&table).len();
                self.table_score(table, query, candidate_columns, &pairs)
            })
            .collect()
    }

    /// Align one candidate table's scored pairs and normalize the matched
    /// weight by the larger column count.
    fn table_score(
        &self,
        table: String,
        query: &[(DeId, &DeProfile)],
        candidate_columns: usize,
        pairs: &[(DeId, DeId, f64)],
    ) -> Option<UnionScore> {
        let mapping = greedy_matching(pairs);
        if mapping.is_empty() {
            return None;
        }
        let matched_weight: f64 = mapping.iter().map(|(_, _, s)| s).sum();
        let denom = query.len().max(candidate_columns) as f64;
        let score = (matched_weight / denom).clamp(0.0, 1.0);
        let id_mapping: Vec<(DeId, DeId)> = mapping.iter().map(|&(q, c, _)| (q, c)).collect();
        let query_name = |id: DeId| {
            query
                .iter()
                .find(|(qid, _)| *qid == id)
                .map(|(_, p)| p.name.clone())
                .unwrap_or_default()
        };
        let named_mapping = mapping
            .into_iter()
            .map(|(q, c, s)| {
                (
                    query_name(q),
                    self.profiled
                        .profile(c)
                        .map(|p| p.name.clone())
                        .unwrap_or_default(),
                    s,
                )
            })
            .collect();
        Some(UnionScore {
            table,
            score,
            mapping: named_mapping,
            id_mapping,
        })
    }
}

/// Sort table-level union scores by score descending, ties by table name —
/// the canonical order, shared by the single-catalog path and the shard
/// router's merge. (Candidates come out of a `HashMap`, so without the
/// tie-break equal-scored tables — and any truncated prefix — would surface
/// in a run-dependent order.)
pub fn sort_union_scores(results: &mut [UnionScore]) {
    results.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.table.cmp(&b.table))
    });
}

/// Greedy maximal weighted bipartite matching over `(left, right, weight)`
/// candidate pairs: repeatedly pick the heaviest pair whose endpoints are
/// both unmatched.
fn greedy_matching(pairs: &[(DeId, DeId, f64)]) -> Vec<(DeId, DeId, f64)> {
    let mut sorted: Vec<&(DeId, DeId, f64)> = pairs.iter().collect();
    sorted.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let mut used_left = std::collections::HashSet::new();
    let mut used_right = std::collections::HashSet::new();
    let mut out = Vec::new();
    for &&(l, r, w) in &sorted {
        if used_left.contains(&l) || used_right.contains(&r) {
            continue;
        }
        used_left.insert(l);
        used_right.insert(r);
        out.push((l, r, w));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CmdlConfig;
    use crate::profile::Profiler;
    use cmdl_datalake::synth;

    fn setup() -> (ProfiledLake, ColumnIndex) {
        let profiled = Profiler::new(&CmdlConfig::fast())
            .profile_lake(synth::ukopen::generate(&synth::UkOpenConfig::tiny()).lake);
        let columns = ColumnIndex::build(&profiled);
        (profiled, columns)
    }

    #[test]
    fn finds_family_tables_as_unionable() {
        let (profiled, columns) = setup();
        let discovery = UnionDiscovery::new(&profiled, &columns);
        let results = discovery.unionable_tables("education_spending_0", 5);
        assert!(!results.is_empty());
        let names: Vec<&str> = results.iter().map(|r| r.table.as_str()).collect();
        assert!(
            names.iter().any(|n| n.starts_with("education_spending_")),
            "family members should rank among {names:?}"
        );
        // Family members should outrank the unrelated reference table.
        let family_rank = names
            .iter()
            .position(|n| n.starts_with("education_spending_"));
        let councils_rank = names.iter().position(|n| *n == "councils");
        if let (Some(f), Some(c)) = (family_rank, councils_rank) {
            assert!(f < c, "family should rank above councils");
        }
    }

    #[test]
    fn mapping_is_one_to_one() {
        let (profiled, columns) = setup();
        let discovery = UnionDiscovery::new(&profiled, &columns);
        let results = discovery.unionable_tables("education_spending_0", 3);
        for r in &results {
            let lefts: std::collections::HashSet<&String> =
                r.mapping.iter().map(|(l, _, _)| l).collect();
            let rights: std::collections::HashSet<&String> =
                r.mapping.iter().map(|(_, rr, _)| rr).collect();
            assert_eq!(lefts.len(), r.mapping.len());
            assert_eq!(rights.len(), r.mapping.len());
            assert!(r.score >= 0.0 && r.score <= 1.0);
        }
    }

    #[test]
    fn single_measure_variants_work() {
        let (profiled, columns) = setup();
        let discovery = UnionDiscovery::new(&profiled, &columns);
        for measure in ["name", "containment", "numeric", "semantic", "ensemble"] {
            let results = discovery.unionable_tables_with("education_spending_0", 3, measure);
            // Name/semantic/ensemble should find something for this family;
            // numeric may or may not — just ensure no panic and valid scores.
            for r in &results {
                assert!(r.score >= 0.0 && r.score <= 1.0, "bad score for {measure}");
            }
        }
    }

    #[test]
    fn unknown_table_returns_empty() {
        let (profiled, columns) = setup();
        let discovery = UnionDiscovery::new(&profiled, &columns);
        assert!(discovery.unionable_tables("missing", 5).is_empty());
    }

    #[test]
    fn greedy_matching_is_maximal_one_to_one() {
        let pairs = vec![
            (DeId(1), DeId(10), 0.9),
            (DeId(1), DeId(11), 0.8),
            (DeId(2), DeId(10), 0.7),
            (DeId(2), DeId(11), 0.6),
        ];
        let m = greedy_matching(&pairs);
        assert_eq!(m.len(), 2);
        assert!(m.contains(&(DeId(1), DeId(10), 0.9)));
        assert!(m.contains(&(DeId(2), DeId(11), 0.6)));
    }

    #[test]
    fn signals_in_unit_range() {
        let (profiled, columns) = setup();
        let discovery = UnionDiscovery::new(&profiled, &columns);
        let a = profiled.profile(profiled.column_ids[0]).unwrap();
        let b = profiled.profile(profiled.column_ids[1]).unwrap();
        let s = discovery.signals(a, b);
        for v in [s.name, s.containment, s.numeric, s.semantic, s.ensemble()] {
            assert!((0.0..=1.0 + 1e-9).contains(&v), "signal out of range: {v}");
        }
    }
}
