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
//! each pair is cheap, and the pair loop of
//! [`UnionDiscovery::unionable_candidates`] reads only the [`ColumnIndex`]:
//! one posting walk per query column gives every pair's value overlap, and
//! each candidate's solo vector, self-dot and numeric profile sit in its
//! index slot. The name signal is read, not computed: a query column whose
//! name is interned in the index (looked up by string, so a foreign query
//! column on a shard finds it too) seeds a per-query-column memo over the
//! interned names from the index's similarity row for that name, which
//! the first query to need it fills and every later query and generation
//! reuses. Names the row does not cover — interned after it was filled,
//! or a query name unknown to this catalog — are computed once per query
//! column into the same memo. The measure is resolved once per query, and
//! the query table's columns come from the index's per-table slot list.
//!
//! Only the tables that can reach the answer are matched. Each table gets
//! an upper bound on its score from its pairs above the floor (see
//! `score_bound`); tables are matched in descending bound order, and the
//! scan stops once `fetch` tables are ranked and the next bound is below
//! the `fetch`-th score. A table's pairs keep the pairwise scan's order
//! (query column, then `column_ids`), so the tie order inside
//! `greedy_matching` is the scan's. The kept tables are named, and each
//! carries the signals of its heaviest matched pair as the kernel computed
//! them (the served breakdown). The pairwise scan survives as
//! [`UnionDiscovery::unionable_candidates_brute`], the bit-for-bit
//! reference.

use std::collections::HashMap;
use std::ops::Range;

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
        Measure::parse(measure).score(self)
    }
}

/// A pair measure resolved from its name: `"name"`, `"containment"`,
/// `"numeric"`, `"semantic"`, or (any other string) the ensemble.
#[derive(Debug, Clone, Copy)]
enum Measure {
    Name,
    Containment,
    Numeric,
    Semantic,
    Ensemble,
}

impl Measure {
    fn parse(measure: &str) -> Self {
        match measure {
            "name" => Self::Name,
            "containment" => Self::Containment,
            "numeric" => Self::Numeric,
            "semantic" => Self::Semantic,
            _ => Self::Ensemble,
        }
    }

    fn score(self, signals: &UnionSignals) -> f64 {
        match self {
            Self::Name => signals.name,
            Self::Containment => signals.containment,
            Self::Numeric => signals.numeric,
            Self::Semantic => signals.semantic,
            Self::Ensemble => signals.ensemble(),
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

/// A candidate table's answer with the signals of its heaviest matched
/// pair (`union.id_mapping[0]`) — the evidence a served hit's breakdown
/// shows.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionCandidate {
    /// The table-level answer.
    pub union: UnionScore,
    /// The four signals of the heaviest matched pair.
    pub anchor: UnionSignals,
}

/// A column pair must score above this to propose its table.
const PAIR_FLOOR: f64 = 0.15;

/// [`UnionDiscovery::unionable_candidates`] or its brute-force reference.
type CandidateScorer<'a> =
    fn(&UnionDiscovery<'a>, &str, &[(DeId, &DeProfile)], &str, usize) -> Vec<UnionCandidate>;

/// A query column prepared once per query.
struct QueryColumn<'q> {
    id: DeId,
    profile: &'q DeProfile,
    name: QueryName<'q>,
    solo_self_dot: f32,
}

/// A query column's name as the candidate catalog knows it.
enum QueryName<'q> {
    /// Interned in the index: its id and similarity row.
    Interned(u32, &'q [f64]),
    /// Not interned here (a foreign column's name), prepared per query.
    Foreign(NameFeatures),
}

impl QueryColumn<'_> {
    /// The name similarity of this query column to an interned name, from
    /// the row where it covers the name, else computed.
    fn name_similarity(&self, columns: &ColumnIndex, name_id: u32) -> f64 {
        match &self.name {
            QueryName::Interned(query, row) => match row.get(name_id as usize) {
                Some(&similarity) => similarity,
                None => columns.name(*query).similarity(columns.name(name_id)),
            },
            QueryName::Foreign(name) => name.similarity(columns.name(name_id)),
        }
    }

    /// Reset `memo` (one entry per interned name, NaN: not known yet) for
    /// this query column: the row's similarities, NaN past its end.
    fn seed_name_memo(&self, memo: &mut [f64]) {
        let row: &[f64] = match &self.name {
            QueryName::Interned(_, row) => row,
            QueryName::Foreign(_) => &[],
        };
        let seeded = row.len().min(memo.len());
        memo[..seeded].copy_from_slice(&row[..seeded]);
        memo[seeded..].fill(f64::NAN);
    }
}

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

    /// [`unionable_tables`](Self::unionable_tables), each table with the
    /// signals of its heaviest matched pair (the served path).
    pub fn unionable_tables_anchored(&self, table_name: &str, top_k: usize) -> Vec<UnionCandidate> {
        self.rank_tables(table_name, top_k, "ensemble", Self::unionable_candidates)
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
        unanchored(self.rank_tables(table_name, top_k, measure, Self::unionable_candidates))
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
        unanchored(self.rank_tables(table_name, top_k, measure, Self::unionable_candidates_brute))
    }

    /// Score a local table's unionable candidates with `candidates`, keeping
    /// the `top_k` in canonical order.
    fn rank_tables(
        &self,
        table_name: &str,
        top_k: usize,
        measure: &str,
        candidates: CandidateScorer<'a>,
    ) -> Vec<UnionCandidate> {
        let query: Vec<(DeId, &DeProfile)> = self
            .columns
            .columns_of_table(table_name)
            .filter_map(|id| self.profiled.profile(id).map(|p| (id, p)))
            .collect();
        if query.is_empty() {
            return Vec::new();
        }
        candidates(self, table_name, &query, measure, top_k)
    }

    /// The `fetch` best candidate tables for
    /// [`unionable_tables_with`](Self::unionable_tables_with), in canonical
    /// order ([`sort_union_candidates`]). The query columns arrive as
    /// explicit `(id, profile)` pairs so they may be *foreign* (resident on
    /// another shard; only their values, names and vectors are read);
    /// candidate tables are always local. Because a candidate table's
    /// columns all live on one shard, the per-table pair list — and
    /// therefore the tie order inside `greedy_matching` — is identical
    /// whether the scan runs over the whole lake or is scattered across
    /// shards and merged with [`sort_union_candidates`]; and because the
    /// canonical order is total (table names are unique), each shard's
    /// `fetch` best hold the merged `fetch` best.
    pub fn unionable_candidates(
        &self,
        query_table: &str,
        query: &[(DeId, &DeProfile)],
        measure: &str,
        fetch: usize,
    ) -> Vec<UnionCandidate> {
        let columns = self.columns;
        let measure = Measure::parse(measure);
        let query_table_slot = columns.table_slot(query_table);
        // Candidate columns of other tables, in `column_ids` order.
        let candidates: Vec<(u32, &ColumnEntry)> = columns
            .live_slots()
            .filter(|(_, entry)| Some(entry.table) != query_table_slot)
            .collect();
        if candidates.is_empty() || fetch == 0 {
            return Vec::new();
        }
        let rows: Vec<QueryColumn> = query
            .iter()
            .map(|&(id, profile)| QueryColumn {
                id,
                profile,
                name: match columns.name_id(&profile.name) {
                    Some(name_id) => QueryName::Interned(name_id, columns.name_row(name_id)),
                    None => QueryName::Foreign(NameFeatures::new(&profile.name)),
                },
                solo_self_dot: dot_f32(&profile.solo.content, &profile.solo.content),
            })
            .collect();

        // Pair scores, one row of candidates per query column, with each
        // pair's value overlap (for the kept tables' anchors). Columns
        // share names, so each row memoizes one name similarity per name
        // id, seeded from the query name's similarity row.
        let width = candidates.len();
        let mut scores = Vec::with_capacity(rows.len() * width);
        let mut shared = Vec::with_capacity(rows.len() * width);
        let mut overlap = columns.overlap_counter();
        let mut name_memo = vec![f64::NAN; columns.num_names()];
        for row in &rows {
            if !row.profile.tags.numeric {
                columns.count_overlaps(&row.profile.distinct_values, &mut overlap);
            }
            row.seed_name_memo(&mut name_memo);
            for &(slot, entry) in &candidates {
                let name = &mut name_memo[entry.name_id as usize];
                if name.is_nan() {
                    *name = row.name_similarity(columns, entry.name_id);
                }
                let count = overlap.get(slot);
                scores.push(measure.score(&self.pair_signals(row, slot, entry, count, *name)));
                shared.push(count);
            }
            overlap.clear();
        }

        // Candidate positions grouped by table slot (a counting sort, so
        // `column_ids` order holds within a table): table `t` owns
        // `grouped[starts[t]..starts[t + 1]]`.
        let mut starts = vec![0usize; columns.num_tables() + 1];
        for (_, entry) in &candidates {
            starts[entry.table as usize + 1] += 1;
        }
        for t in 1..starts.len() {
            starts[t] += starts[t - 1];
        }
        let mut grouped = vec![0usize; width];
        let mut next = starts.clone();
        for (c, (_, entry)) in candidates.iter().enumerate() {
            grouped[next[entry.table as usize]] = c;
            next[entry.table as usize] += 1;
        }
        let group = |table: u32| &grouped[starts[table as usize]..starts[table as usize + 1]];

        // Each table with a pair above the floor, with the bound on its
        // score, highest bound first (ties by slot).
        let mut row_max = vec![0.0f64; rows.len()];
        let mut column_max = Vec::new();
        let mut by_bound: Vec<(f64, u32)> = Vec::new();
        for table in 0..columns.num_tables() as u32 {
            let members = group(table);
            row_max.fill(0.0);
            column_max.clear();
            column_max.resize(members.len(), 0.0f64);
            let mut proposed = false;
            for (row, r_max) in scores.chunks_exact(width).zip(&mut row_max) {
                for (&c, c_max) in members.iter().zip(&mut column_max) {
                    let score = row[c];
                    if score > PAIR_FLOOR {
                        proposed = true;
                        *r_max = r_max.max(score);
                        *c_max = c_max.max(score);
                    }
                }
            }
            if proposed {
                let bound = score_bound(&row_max, &column_max);
                by_bound.push((bound, table));
            }
        }
        by_bound.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        // Align tables in bound order, keeping the `fetch` best in
        // canonical order. Each table's pairs above the floor keep the
        // pairwise scan's order (query column, then `column_ids`); the
        // alignments of every table share one buffer.
        let table_order = |(score, table): (f64, u32)| (score, columns.table_name(table));
        let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
        let mut matched: Vec<(u32, u32, f64)> = Vec::new();
        let mut ranked: Vec<(f64, u32, Range<usize>)> = Vec::new();
        for (bound, table) in by_bound {
            if ranked.len() == fetch && bound < ranked[fetch - 1].0 {
                break;
            }
            pairs.clear();
            for (r, row) in scores.chunks_exact(width).enumerate() {
                for &c in group(table) {
                    if row[c] > PAIR_FLOOR {
                        pairs.push((r as u32, c as u32, row[c]));
                    }
                }
            }
            let from = matched.len();
            greedy_matching(&mut pairs, &mut matched);
            let score = table_score(
                &matched[from..],
                rows.len(),
                columns.table_columns(table).len(),
            );
            let at = ranked.partition_point(|&(s, t, _)| {
                union_order(table_order((s, t)), table_order((score, table))).is_lt()
            });
            if at < fetch {
                ranked.insert(at, (score, table, from..matched.len()));
                ranked.truncate(fetch);
            }
        }

        // Name the kept tables; each anchor is its heaviest pair's signals.
        ranked
            .into_iter()
            .map(|(score, table, range)| {
                let mapping = &matched[range];
                let (r, c, _) = mapping[0];
                let (row, (slot, entry)) = (&rows[r as usize], candidates[c as usize]);
                let name = row.name_similarity(columns, entry.name_id);
                let count = shared[r as usize * width + c as usize];
                let ids: Vec<(DeId, DeId, f64)> = mapping
                    .iter()
                    .map(|&(r, c, w)| (rows[r as usize].id, candidates[c as usize].1.id, w))
                    .collect();
                UnionCandidate {
                    union: self.named_score(
                        columns.table_name(table).to_string(),
                        score,
                        query,
                        &ids,
                    ),
                    anchor: self.pair_signals(row, slot, entry, count, name),
                }
            })
            .collect()
    }

    /// The signals of a query column against an indexed candidate, from
    /// the index alone: `shared` is their value overlap and `name` their
    /// name similarity. Bit-identical to [`signals`](Self::signals) of the
    /// two profiles.
    fn pair_signals(
        &self,
        row: &QueryColumn,
        slot: u32,
        entry: &ColumnEntry,
        shared: u32,
        name: f64,
    ) -> UnionSignals {
        let query = row.profile;
        let containment = if query.tags.numeric || entry.numeric {
            0.0
        } else {
            containment_ratio(shared, query.distinct_values.len())
                .max(containment_ratio(shared, entry.distinct))
        };
        UnionSignals {
            name,
            containment,
            numeric: match (&query.numeric, &entry.numeric_profile) {
                (Some(na), Some(nb)) => numeric_overlap(na, nb),
                _ => 0.0,
            },
            semantic: cosine_with_self_dots(
                &query.solo.content,
                self.columns.solo_row(slot),
                row.solo_self_dot,
                entry.solo_self_dot,
            )
            .max(0.0),
        }
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
    ) -> Vec<UnionCandidate> {
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
        let profile_of = |id: DeId| {
            query
                .iter()
                .find(|(qid, _)| *qid == id)
                .map(|&(_, p)| p)
                .or_else(|| self.profiled.profile(id))
        };
        let mut results: Vec<UnionCandidate> = candidates
            .into_iter()
            .filter_map(|(table, mut pairs)| {
                let mut mapping = Vec::new();
                greedy_matching(&mut pairs, &mut mapping);
                let &(q, c, _) = mapping.first()?;
                let candidate_columns = self.profiled.columns_of_table(&table).len();
                let score = table_score(&mapping, query.len(), candidate_columns);
                Some(UnionCandidate {
                    anchor: self.signals(profile_of(q)?, profile_of(c)?),
                    union: self.named_score(table, score, query, &mapping),
                })
            })
            .collect();
        sort_union_candidates(&mut results);
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

/// The table answers without their anchors.
fn unanchored(candidates: Vec<UnionCandidate>) -> Vec<UnionScore> {
    candidates.into_iter().map(|c| c.union).collect()
}

/// The table-level score of an alignment: its matched weight normalized
/// by the larger column count.
fn table_score<L, R>(
    mapping: &[(L, R, f64)],
    query_columns: usize,
    candidate_columns: usize,
) -> f64 {
    let matched_weight: f64 = mapping.iter().map(|(_, _, s)| s).sum();
    (matched_weight / query_columns.max(candidate_columns) as f64).clamp(0.0, 1.0)
}

/// An upper bound on a table's [`table_score`], from the per-row and
/// per-column maxima of its pairs above the floor (zero where a row or
/// column has none).
///
/// A one-to-one matching takes at most one pair per query column and one
/// per candidate column, so its weight is at most either sum of maxima.
/// The sums are rounded in another order than the matching's sum, so the
/// bound is widened by `(rows + columns - 2)` machine epsilons: each sum
/// of `n` terms rounds at most `n - 1` times, each time by at most half an
/// epsilon relative, and the extra factor two covers the second-order
/// terms and the rounding of the product. With one term on each side
/// (nothing to round) the bound is the score itself. Division and clamp
/// are monotone, so `table_score(matching) <= score_bound(..)` holds in
/// floating point, not only in exact arithmetic.
fn score_bound(row_max: &[f64], column_max: &[f64]) -> f64 {
    let (rows, cols) = (row_max.len(), column_max.len());
    let sum = row_max.iter().sum::<f64>().min(column_max.iter().sum());
    let slack = 1.0 + (rows + cols - 2) as f64 * f64::EPSILON;
    (sum * slack / rows.max(cols) as f64).clamp(0.0, 1.0)
}

/// Sort table-level union answers by score descending, ties by table name —
/// the canonical order, shared by the single-catalog path and the shard
/// router's merge. (The brute scan's candidates come out of a `HashMap`, so
/// without the tie-break equal-scored tables — and any truncated prefix —
/// would surface in a run-dependent order.)
pub fn sort_union_candidates(results: &mut [UnionCandidate]) {
    results.sort_by(|a, b| {
        union_order(
            (a.union.score, &a.union.table),
            (b.union.score, &b.union.table),
        )
    });
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
fn greedy_matching<L: Copy + Eq, R: Copy + Eq>(
    pairs: &mut [(L, R, f64)],
    out: &mut Vec<(L, R, f64)>,
) {
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
