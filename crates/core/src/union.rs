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
//! computes one name similarity per distinct candidate name (the index
//! interns names; a per-query-column memo over name ids holds the
//! results), and reuses each column's stored embedding self-dot. Each
//! table's pairs keep the pairwise scan's order (query column, then
//! `column_ids`), so the tie order inside `greedy_matching` is the scan's.
//! Tables are cut to the requested count in canonical order before their
//! mappings are named. The pairwise scan survives as
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
    fn(&UnionDiscovery<'a>, &str, &[(DeId, &DeProfile)], &str, usize) -> Vec<UnionScore>;

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

    /// Score a local table's unionable candidates with `candidates`, keeping
    /// the `top_k` in canonical order.
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
        candidates(self, table_name, &query, measure, top_k)
    }

    /// The `fetch` best candidate tables for
    /// [`unionable_tables_with`](Self::unionable_tables_with), in canonical
    /// order ([`sort_union_scores`]). The query columns arrive as explicit
    /// `(id, profile)` pairs so they may be *foreign* (resident on another
    /// shard; only their values, names and vectors are read); candidate
    /// tables are always local. Because a candidate table's columns all
    /// live on one shard, the per-table pair list — and therefore the tie
    /// order inside `greedy_matching` — is identical whether the scan runs
    /// over the whole lake or is scattered across shards and merged with
    /// [`sort_union_scores`]; and because the canonical order is total
    /// (table names are unique), each shard's `fetch` best hold the
    /// merged `fetch` best.
    pub fn unionable_candidates(
        &self,
        query_table: &str,
        query: &[(DeId, &DeProfile)],
        measure: &str,
        fetch: usize,
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
        if candidates.is_empty() {
            return Vec::new();
        }

        // Pair scores, one row of candidates per query column. Columns
        // share names, so each row memoizes one name similarity per name
        // id (NaN: not computed yet).
        let width = candidates.len();
        let mut scores = Vec::with_capacity(query.len() * width);
        let mut overlap = columns.overlap_counter();
        let mut name_memo = vec![f64::NAN; columns.num_names()];
        for &(_, qprofile) in query {
            let qname = NameFeatures::new(&qprofile.name);
            let qsolo = &qprofile.solo.content;
            let q_self_dot = dot_f32(qsolo, qsolo);
            let q_len = qprofile.distinct_values.len();
            if !qprofile.tags.numeric {
                columns.count_overlaps(&qprofile.distinct_values, &mut overlap);
            }
            name_memo.fill(f64::NAN);
            for &(slot, entry, cprofile) in &candidates {
                let containment = if qprofile.tags.numeric || entry.numeric {
                    0.0
                } else {
                    let shared = overlap.get(slot);
                    containment_ratio(shared, q_len).max(containment_ratio(shared, entry.distinct))
                };
                let name = &mut name_memo[entry.name_id as usize];
                if name.is_nan() {
                    *name = qname.similarity(columns.name(entry.name_id));
                }
                let signals = UnionSignals {
                    name: *name,
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
                scores.push(signals.by_name(measure));
            }
            overlap.clear();
        }

        // Candidate positions grouped by table slot (a counting sort, so
        // `column_ids` order holds within a table): table `t` owns
        // `grouped[starts[t]..starts[t + 1]]`.
        let mut starts = vec![0usize; columns.num_tables() + 1];
        for (_, entry, _) in &candidates {
            starts[entry.table as usize + 1] += 1;
        }
        for t in 1..starts.len() {
            starts[t] += starts[t - 1];
        }
        let mut grouped = vec![0usize; width];
        let mut next = starts.clone();
        for (c, (_, entry, _)) in candidates.iter().enumerate() {
            grouped[next[entry.table as usize]] = c;
            next[entry.table as usize] += 1;
        }

        // Per table, its pairs above the floor in the pairwise scan's order
        // (query column, then `column_ids`), aligned; the alignments of
        // every table share one buffer.
        let mut pairs = Vec::new();
        let mut matched = Vec::new();
        let mut ranked: Vec<(f64, u32, std::ops::Range<usize>)> = Vec::new();
        for (table, bounds) in starts.windows(2).enumerate() {
            pairs.clear();
            for (row, &(qcol, _)) in scores.chunks_exact(width).zip(query) {
                for &c in &grouped[bounds[0]..bounds[1]] {
                    if row[c] > PAIR_FLOOR {
                        pairs.push((qcol, candidates[c].1.id, row[c]));
                    }
                }
            }
            let from = matched.len();
            greedy_matching(&mut pairs, &mut matched);
            if matched.len() > from {
                let table = table as u32;
                let score =
                    table_score(&matched[from..], query.len(), columns.table_columns(table));
                ranked.push((score, table, from..matched.len()));
            }
        }
        // Cut before naming: only the kept tables build their mapping.
        ranked.sort_by(|a, b| {
            union_order(
                (a.0, columns.table_name(a.1)),
                (b.0, columns.table_name(b.1)),
            )
        });
        ranked.truncate(fetch);
        ranked
            .into_iter()
            .map(|(score, table, range)| {
                let table = columns.table_name(table).to_string();
                self.named_score(table, score, query, &matched[range])
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
        fetch: usize,
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
        let mut results: Vec<UnionScore> = candidates
            .into_iter()
            .filter_map(|(table, mut pairs)| {
                let mut mapping = Vec::new();
                greedy_matching(&mut pairs, &mut mapping);
                if mapping.is_empty() {
                    return None;
                }
                let candidate_columns = self.profiled.columns_of_table(&table).len();
                let score = table_score(&mapping, query.len(), candidate_columns);
                Some(self.named_score(table, score, query, &mapping))
            })
            .collect();
        sort_union_scores(&mut results);
        results.truncate(fetch);
        results
    }

    /// A candidate table's answer, its aligned pairs named.
    fn named_score(
        &self,
        table: String,
        score: f64,
        query: &[(DeId, &DeProfile)],
        mapping: &[(DeId, DeId, f64)],
    ) -> UnionScore {
        let id_mapping: Vec<(DeId, DeId)> = mapping.iter().map(|&(q, c, _)| (q, c)).collect();
        let query_name = |id: DeId| {
            query
                .iter()
                .find(|(qid, _)| *qid == id)
                .map(|(_, p)| p.name.clone())
                .unwrap_or_default()
        };
        let named_mapping = mapping
            .iter()
            .map(|&(q, c, s)| {
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
        UnionScore {
            table,
            score,
            mapping: named_mapping,
            id_mapping,
        }
    }
}

/// The table-level score of an alignment: its matched weight normalized
/// by the larger column count.
fn table_score(
    mapping: &[(DeId, DeId, f64)],
    query_columns: usize,
    candidate_columns: usize,
) -> f64 {
    let matched_weight: f64 = mapping.iter().map(|(_, _, s)| s).sum();
    (matched_weight / query_columns.max(candidate_columns) as f64).clamp(0.0, 1.0)
}

/// Sort table-level union scores by score descending, ties by table name —
/// the canonical order, shared by the single-catalog path and the shard
/// router's merge. (The brute scan's candidates come out of a `HashMap`, so
/// without the tie-break equal-scored tables — and any truncated prefix —
/// would surface in a run-dependent order.)
pub fn sort_union_scores(results: &mut [UnionScore]) {
    results.sort_by(|a, b| union_order((a.score, &a.table), (b.score, &b.table)));
}

/// The canonical order over `(score, table name)`: score descending, then
/// name ascending.
fn union_order(a: (f64, &str), b: (f64, &str)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.1.cmp(b.1))
}

/// Greedy maximal weighted bipartite matching over `(left, right, weight)`
/// candidate pairs: repeatedly pick the heaviest pair whose endpoints are
/// both unmatched (ties in `pairs` order; `pairs` is left sorted). The
/// matched pairs are appended to `out`, heaviest first. A table has a
/// handful of columns, so the used-endpoint check scans the pairs already
/// matched.
fn greedy_matching(pairs: &mut [(DeId, DeId, f64)], out: &mut Vec<(DeId, DeId, f64)>) {
    pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let from = out.len();
    for &(l, r, w) in pairs.iter() {
        if out[from..].iter().all(|&(ml, mr, _)| ml != l && mr != r) {
            out.push((l, r, w));
        }
    }
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
        let mut pairs = vec![
            (DeId(1), DeId(10), 0.9),
            (DeId(1), DeId(11), 0.8),
            (DeId(2), DeId(10), 0.7),
            (DeId(2), DeId(11), 0.6),
        ];
        let mut m = Vec::new();
        greedy_matching(&mut pairs, &mut m);
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
