//! Joinability discovery: syntactic joins and PK-FK links.
//!
//! CMDL discovers two flavours of joinability (paper Sections 5.1 and 6.2):
//!
//! * **syntactic joins** between any pair of columns with high value overlap,
//!   measured with the Jaccard *set containment* in both directions — the key
//!   difference from Aurum/D3L, which use symmetric Jaccard similarity and
//!   therefore degrade when the joined columns have skewed cardinalities;
//! * **PK-FK links**: the FK column's values must be (almost) contained in
//!   the PK column, the PK column must be key-like (cardinality ≈ 1), and
//!   the two columns should have similar names; numeric key pairs use the
//!   numeric-overlap similarity as in Aurum.
//!
//! Both are index-first. A text column joins only columns that share at
//! least one value with it (its score is a containment, and a containment
//! of zero overlap is zero), so [`JoinDiscovery::joinable_candidates`]
//! walks the query's values through the [`ColumnIndex`] posting lists and
//! scores exactly the columns it reaches — no candidate is missed, so no
//! recall floor is needed. Numeric queries score the numeric columns
//! only. The PK-FK sweep ([`PkFkLinkSet::sweep`]) builds a transient map
//! from PK value to PK candidate and counts each FK's overlaps through it,
//! so only pairs that share values (or, with a zero containment threshold,
//! every pair) reach the threshold and the name comparison.
//!
//! The links that pass the thresholds do not depend on the query, so a
//! served catalog sweeps once per generation: the first PK-FK query on a
//! generation fills its [`PkFkLinkSet`] (raw containment, name similarity
//! and uniqueness per link), every reader of the generation shares it —
//! as do later generations until a table ingest or removal changes the
//! columns — and each query only re-scores, sorts and cuts it under its
//! own weights.
//! `execute_many` therefore needs no per-batch PK-FK sharing. The
//! pre-index scans survive as [`JoinDiscovery::joinable_candidates_brute`]
//! and [`pkfk_links_over_brute`], the references the parity suite holds
//! the indexed paths to, bit for bit.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use cmdl_datalake::{DeId, DeKind};
use cmdl_sketch::{exact_containment, numeric_overlap};
use cmdl_text::strsim::{name_similarity, NameFeatures};

use crate::column_index::{containment_ratio, ColumnEntry, ColumnIndex, OverlapCounter};
use crate::config::CmdlConfig;
use crate::profile::{DeProfile, ProfiledLake};

/// A discovered PK-FK link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PkFkLink {
    /// Primary-key column id.
    pub pk: DeId,
    /// Foreign-key column id.
    pub fk: DeId,
    /// Qualified name of the PK column.
    pub pk_name: String,
    /// Qualified name of the FK column.
    pub fk_name: String,
    /// Combined link score.
    pub score: f64,
    /// The raw containment signal (FK values ⊂ PK values).
    pub containment: f64,
    /// The raw column-name-similarity signal.
    pub name_sim: f64,
    /// The raw PK-uniqueness signal.
    pub uniqueness: f64,
}

/// Joinability discovery over a profiled lake and its column index (the
/// two must describe the same catalog generation).
pub struct JoinDiscovery<'a> {
    profiled: &'a ProfiledLake,
    columns: &'a ColumnIndex,
    config: &'a CmdlConfig,
}

impl<'a> JoinDiscovery<'a> {
    /// Create a join-discovery engine.
    pub fn new(
        profiled: &'a ProfiledLake,
        columns: &'a ColumnIndex,
        config: &'a CmdlConfig,
    ) -> Self {
        Self {
            profiled,
            columns,
            config,
        }
    }

    /// Bidirectional containment-based join score between two column
    /// profiles: `max(containment(a ⊂ b), containment(b ⊂ a))`, computed
    /// exactly on the distinct value sets, with numeric columns falling
    /// back to the numeric range-overlap measure.
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
        let c_ab = exact_containment(&a.distinct_values, &b.distinct_values);
        let c_ba = exact_containment(&b.distinct_values, &a.distinct_values);
        c_ab.max(c_ba)
    }

    /// Find the `top_k` columns (in other tables) joinable with the given
    /// column. Returns `(column id, score)` sorted by score descending
    /// (ties broken by ascending id, so any truncated prefix is
    /// deterministic and partition-independent).
    pub fn joinable_columns(&self, column: DeId, top_k: usize) -> Vec<(DeId, f64)> {
        let Some(query) = self.profiled.profile(column) else {
            return Vec::new();
        };
        let mut scored = self.joinable_candidates(query);
        sort_join_candidates(&mut scored);
        scored.truncate(top_k);
        scored
    }

    /// The unsorted candidate set underlying
    /// [`joinable_columns`](Self::joinable_columns): every local
    /// join-candidate column of another table with a positive join score
    /// against the query profile. The query profile may be *foreign*
    /// (resident on another shard — its values are looked up by string) —
    /// the shard router scatters this call across shards and merges with
    /// [`sort_join_candidates`], which is exactly the single-catalog order
    /// because the per-shard candidate sets are disjoint.
    pub fn joinable_candidates(&self, query: &DeProfile) -> Vec<(DeId, f64)> {
        self.scored_candidates(query)
            .into_iter()
            .map(|(entry, score)| (entry.id, score))
            .collect()
    }

    /// [`joinable_candidates`](Self::joinable_candidates) as a scan that
    /// scores every column pairwise — the exact reference the indexed
    /// path is held to.
    pub fn joinable_candidates_brute(&self, query: &DeProfile) -> Vec<(DeId, f64)> {
        if query.kind != DeKind::Column || !query.tags.join_candidate {
            return Vec::new();
        }
        self.profiled
            .column_ids
            .iter()
            .filter_map(|&id| {
                if id == query.id {
                    return None;
                }
                let candidate = self.profiled.profile(id)?;
                if !candidate.tags.join_candidate {
                    return None;
                }
                if candidate.table_name == query.table_name {
                    return None; // only joins across tables
                }
                let score = self.join_score(query, candidate);
                if score > 0.0 {
                    Some((id, score))
                } else {
                    None
                }
            })
            .collect()
    }

    /// The indexed candidate walk, keeping each candidate's index entry
    /// (for its table slot).
    fn scored_candidates(&self, query: &DeProfile) -> Vec<(&'a ColumnEntry, f64)> {
        if query.kind != DeKind::Column || !query.tags.join_candidate {
            return Vec::new();
        }
        let columns = self.columns;
        let query_table = query
            .table_name
            .as_deref()
            .and_then(|name| columns.table_slot(name));
        let admissible = |entry: &ColumnEntry| {
            entry.join_candidate && entry.id != query.id && Some(entry.table) != query_table
        };
        if query.tags.numeric {
            // Only numeric pairs score above zero for a numeric query.
            return columns
                .live_entries()
                .filter(|entry| entry.numeric && admissible(entry))
                .filter_map(|entry| {
                    let candidate = self.profiled.profile(entry.id)?;
                    let score = self.join_score(query, candidate);
                    (score > 0.0).then_some((entry, score))
                })
                .collect();
        }
        // A text pair scores above zero iff the two share a value, which
        // is exactly the set of columns the value walk reaches.
        let mut overlap = columns.overlap_counter();
        columns.count_overlaps(&query.distinct_values, &mut overlap);
        let query_len = query.distinct_values.len();
        overlap
            .touched()
            .filter_map(|(slot, shared)| {
                let entry = columns.entry(slot)?;
                if !admissible(entry) {
                    return None;
                }
                let score = containment_ratio(shared, query_len)
                    .max(containment_ratio(shared, entry.distinct));
                Some((entry, score))
            })
            .collect()
    }

    /// Find the `top_k` tables joinable with the given table: the best join
    /// score over any column pair, aggregated per candidate table.
    pub fn joinable_tables(&self, table_name: &str, top_k: usize) -> Vec<(String, f64)> {
        let query_columns: Vec<&DeProfile> = self
            .columns
            .columns_of_table(table_name)
            .filter_map(|id| self.profiled.profile(id))
            .collect();
        let best = self.joinable_table_candidates(&query_columns);
        let mut out: Vec<(String, f64)> = best.into_iter().collect();
        sort_joinable_tables(&mut out);
        out.truncate(top_k);
        out
    }

    /// The per-table-best aggregation underlying
    /// [`joinable_tables`](Self::joinable_tables): the best join score over
    /// any (query column, local candidate column) pair, keyed by candidate
    /// table. The query columns may be foreign profiles; a per-table max is
    /// order-independent, so merging per-shard maps with another max
    /// reproduces the single-catalog aggregate exactly.
    ///
    /// Aggregates over *all* scored partners: the per-table best score is
    /// exact and does not depend on `top_k`, so paginated fetches of
    /// different depths rank tables identically.
    pub fn joinable_table_candidates(&self, query_columns: &[&DeProfile]) -> HashMap<String, f64> {
        let mut best: HashMap<u32, f64> = HashMap::new();
        for query in query_columns {
            for (entry, score) in self.scored_candidates(query) {
                let slot_best = best.entry(entry.table).or_insert(0.0);
                if score > *slot_best {
                    *slot_best = score;
                }
            }
        }
        best.into_iter()
            .map(|(table, score)| (self.columns.table_name(table).to_string(), score))
            .collect()
    }

    /// [`joinable_table_candidates`](Self::joinable_table_candidates) over
    /// [`joinable_candidates_brute`](Self::joinable_candidates_brute) — the
    /// exact reference.
    pub fn joinable_table_candidates_brute(
        &self,
        query_columns: &[&DeProfile],
    ) -> HashMap<String, f64> {
        let mut best: HashMap<String, f64> = HashMap::new();
        for query in query_columns {
            for (other, score) in self.joinable_candidates_brute(query) {
                if let Some(profile) = self.profiled.profile(other) {
                    if let Some(other_table) = &profile.table_name {
                        let entry = best.entry(other_table.clone()).or_insert(0.0);
                        if score > *entry {
                            *entry = score;
                        }
                    }
                }
            }
        }
        best
    }

    /// Discover all PK-FK links in the lake with the configured signal
    /// weights.
    ///
    /// A pair `(p, f)` is reported when `p` is key-like, `f`'s values are
    /// contained in `p`'s values above the configured containment threshold,
    /// the columns have similar names (schema similarity filter), and they
    /// live in different tables.
    pub fn pkfk_links(&self) -> Vec<PkFkLink> {
        self.pkfk_links_weighted(
            self.config.pkfk_containment_weight,
            self.config.pkfk_name_weight,
            self.config.pkfk_uniqueness_weight,
        )
    }

    /// [`pkfk_links`](Self::pkfk_links) with explicit signal weights (the
    /// per-query override path of the unified
    /// [`DiscoveryQuery`](crate::query::DiscoveryQuery) API). The candidate
    /// *filters* (containment and name-similarity thresholds) stay as
    /// configured; only the score blend changes.
    pub fn pkfk_links_weighted(
        &self,
        w_containment: f64,
        w_name: f64,
        w_uniqueness: f64,
    ) -> Vec<PkFkLink> {
        self.pkfk_link_set()
            .ranked((w_containment, w_name, w_uniqueness), usize::MAX)
    }

    /// The PK-FK links of the whole local lake that pass the configured
    /// thresholds, unscored (see [`PkFkLinkSet`]).
    pub fn pkfk_link_set(&self) -> PkFkLinkSet {
        let candidates: Vec<&DeProfile> = self
            .profiled
            .column_ids
            .iter()
            .filter_map(|id| self.profiled.profile(*id))
            .collect();
        PkFkLinkSet::sweep(&candidates, self.config)
    }
}

/// Sort `(table, score)` pairs by score descending, ties by table name —
/// the canonical joinable-tables order, shared by the single-catalog path
/// and the shard router's merge (the pairs come out of a `HashMap`, so
/// without the tie-break equal-scored tables would surface in a
/// run-dependent order).
pub fn sort_joinable_tables(tables: &mut [(String, f64)]) {
    tables.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
}

/// Every PK-FK link among a candidate set that passes the configured
/// containment and name thresholds, with its raw containment, name
/// similarity and PK uniqueness but no score. The thresholds do not depend
/// on a query's weights, so one sweep serves every weight triple: a
/// served catalog keeps one set per generation (see [`crate::snapshot`]),
/// swept by the first PK-FK query that needs it and shared by all its
/// readers, and each query re-scores, sorts and cuts it with
/// [`ranked`](Self::ranked).
#[derive(Debug)]
pub struct PkFkLinkSet {
    /// The passing links in (PK, FK) qualified-name order, each `score` zero.
    links: Vec<PkFkLink>,
}

impl PkFkLinkSet {
    /// The sweep over an explicit candidate set: the single code path
    /// shared by [`JoinDiscovery::pkfk_link_set`] (candidates = the local
    /// lake's columns) and the shard router (candidates = every shard's
    /// columns, gathered).
    ///
    /// Text pairs are proposed by a transient map from PK value to the
    /// text PK candidates holding it: each FK candidate walks its values
    /// through the map, which counts its exact overlap with every PK at
    /// once. With a positive containment threshold only the PKs it shares
    /// a value with can pass; with a zero (or NaN) threshold every text PK
    /// is checked. Numeric pairs are checked exhaustively. Surviving pairs
    /// are then evaluated in (PK, FK) candidate order — the order of the
    /// pairwise scan [`pkfk_links_over_brute`] — so the set holds exactly
    /// the scan's links.
    pub fn sweep(columns: &[&DeProfile], config: &CmdlConfig) -> Self {
        let (pk_candidates, fk_candidates) = pkfk_candidates(columns);

        let (numeric_pks, text_pks): (Vec<u32>, Vec<u32>) = (0..pk_candidates.len() as u32)
            .partition(|&pi| pk_candidates[pi as usize].tags.numeric);
        let mut holders: HashMap<&str, Vec<u32>> = HashMap::new();
        for &pi in &text_pks {
            for value in &pk_candidates[pi as usize].distinct_values {
                holders.entry(value.as_str()).or_default().push(pi);
            }
        }
        // A pair sharing no value has containment 0.0 (or the FK is empty,
        // also 0.0), which passes the threshold only when it is not
        // positive.
        let disjoint_pairs_pass = passes_containment(0.0, config.pkfk_containment);

        // (pk index, fk index, containment) of every pair past the threshold.
        let mut passing: Vec<(u32, u32, f64)> = Vec::new();
        let mut overlap = OverlapCounter::new(pk_candidates.len());
        for (fi, fk) in fk_candidates.iter().enumerate() {
            let fi = fi as u32;
            let mut check = |pi: u32, containment: f64| {
                if passes_containment(containment, config.pkfk_containment) {
                    passing.push((pi, fi, containment));
                }
            };
            if fk.tags.numeric {
                for &pi in &numeric_pks {
                    let pk = pk_candidates[pi as usize];
                    check(pi, numeric_containment(fk, pk));
                }
                continue;
            }
            for value in &fk.distinct_values {
                if let Some(pks) = holders.get(value.as_str()) {
                    for &pi in pks {
                        overlap.bump(pi);
                    }
                }
            }
            let fk_len = fk.distinct_values.len();
            if disjoint_pairs_pass {
                for &pi in &text_pks {
                    check(pi, containment_ratio(overlap.get(pi), fk_len));
                }
            } else {
                for (pi, shared) in overlap.touched() {
                    check(pi, containment_ratio(shared, fk_len));
                }
            }
            overlap.clear();
        }
        passing.sort_unstable_by_key(|&(pi, fi, _)| (pi, fi));

        let mut pk_names: Vec<Option<[NameFeatures; 2]>> = vec![None; pk_candidates.len()];
        let mut fk_names: Vec<Option<[NameFeatures; 2]>> = vec![None; fk_candidates.len()];
        let prepare = |p: &DeProfile| {
            [
                NameFeatures::new(&p.name),
                NameFeatures::new(&p.qualified_name),
            ]
        };
        let mut links = Vec::new();
        let mut seen: HashSet<(DeId, DeId)> = HashSet::new();
        for (pi, fi, containment) in passing {
            let (pk, fk) = (pk_candidates[pi as usize], fk_candidates[fi as usize]);
            if pk.id == fk.id || pk.table_name == fk.table_name {
                continue;
            }
            let [pk_name, pk_qualified] = pk_names[pi as usize].get_or_insert_with(|| prepare(pk));
            let [fk_name, fk_qualified] = fk_names[fi as usize].get_or_insert_with(|| prepare(fk));
            let name_sim = pk_name
                .similarity(fk_name)
                .max(pk_qualified.similarity(fk_qualified));
            if name_sim < config.pkfk_name_similarity {
                continue;
            }
            if !seen.insert((pk.id, fk.id)) {
                continue;
            }
            links.push(unscored_link(pk, fk, containment, name_sim));
        }
        // Name order, the ranking's tie-break, becomes position order.
        links.sort_by(|a, b| (&a.pk_name, &a.fk_name).cmp(&(&b.pk_name, &b.fk_name)));
        Self { links }
    }

    /// The links ranked under one `(containment, name, uniqueness)` weight
    /// triple, cut to the first `fetch`. Each link is scored exactly as the
    /// pairwise scan scores it, and ranked in the scan's order: score
    /// descending, then PK and FK qualified names. The set is kept in name
    /// order, so the tie-break is a position compare. Qualified names are
    /// unique across live tables, so for finite weights the order is total:
    /// the top `fetch` can be selected before they are sorted, the result
    /// is bit for bit the scan's, and it does not depend on the candidate
    /// ordering — a partitioned gather reproduces the single-catalog links.
    pub fn ranked(&self, weights: (f64, f64, f64), fetch: usize) -> Vec<PkFkLink> {
        let mut order: Vec<(f64, u32)> = self
            .links
            .iter()
            .enumerate()
            .map(|(at, link)| (link_score(link, weights), at as u32))
            .collect();
        let rank = |a: &(f64, u32), b: &(f64, u32)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        if fetch < order.len() {
            order.select_nth_unstable_by(fetch, rank);
            order.truncate(fetch);
        }
        order.sort_unstable_by(rank);
        order
            .into_iter()
            .map(|(score, at)| PkFkLink {
                score,
                ..self.links[at as usize].clone()
            })
            .collect()
    }
}

/// The PK-FK sweep over an explicit candidate set, scored under one weight
/// triple: [`PkFkLinkSet::sweep`] then [`PkFkLinkSet::ranked`], uncut.
pub fn pkfk_links_over(
    columns: &[&DeProfile],
    config: &CmdlConfig,
    w_containment: f64,
    w_name: f64,
    w_uniqueness: f64,
) -> Vec<PkFkLink> {
    PkFkLinkSet::sweep(columns, config).ranked((w_containment, w_name, w_uniqueness), usize::MAX)
}

/// [`pkfk_links_over`] as a scan over every (PK, FK) candidate pair — the
/// exact reference the indexed sweep is held to.
pub fn pkfk_links_over_brute(
    columns: &[&DeProfile],
    config: &CmdlConfig,
    w_containment: f64,
    w_name: f64,
    w_uniqueness: f64,
) -> Vec<PkFkLink> {
    let (pk_candidates, fk_candidates) = pkfk_candidates(columns);

    let mut links = Vec::new();
    let mut seen: HashSet<(DeId, DeId)> = HashSet::new();
    for pk in &pk_candidates {
        for fk in &fk_candidates {
            if pk.id == fk.id || pk.table_name == fk.table_name {
                continue;
            }
            if pk.tags.numeric != fk.tags.numeric {
                continue;
            }
            let containment = if pk.tags.numeric {
                numeric_containment(fk, pk)
            } else {
                exact_containment(&fk.distinct_values, &pk.distinct_values)
            };
            if containment < config.pkfk_containment {
                continue;
            }
            let name_sim = name_similarity(&pk.name, &fk.name)
                .max(name_similarity(&pk.qualified_name, &fk.qualified_name));
            if name_sim < config.pkfk_name_similarity {
                continue;
            }
            if !seen.insert((pk.id, fk.id)) {
                continue;
            }
            let mut link = unscored_link(pk, fk, containment, name_sim);
            link.score = link_score(&link, (w_containment, w_name, w_uniqueness));
            links.push(link);
        }
    }
    links.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.pk_name.cmp(&b.pk_name))
            .then_with(|| a.fk_name.cmp(&b.fk_name))
    });
    links
}

/// The PK candidates (key-like join candidates) and FK candidates (join
/// candidates) among `columns`, in their order.
fn pkfk_candidates<'c>(columns: &[&'c DeProfile]) -> (Vec<&'c DeProfile>, Vec<&'c DeProfile>) {
    let pks = columns
        .iter()
        .copied()
        .filter(|p| p.tags.key_like && p.tags.join_candidate)
        .collect();
    let fks = columns
        .iter()
        .copied()
        .filter(|p| p.tags.join_candidate)
        .collect();
    (pks, fks)
}

/// Does a PK-FK pair's containment pass the threshold? Exactly the scan's
/// "not below": a NaN threshold passes every pair.
fn passes_containment(containment: f64, threshold: f64) -> bool {
    containment.partial_cmp(&threshold) != Some(std::cmp::Ordering::Less)
}

/// The containment signal of a numeric (FK, PK) pair: 1 when the FK range
/// lies inside the PK range, the range overlap otherwise.
fn numeric_containment(fk: &DeProfile, pk: &DeProfile) -> f64 {
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
}

/// One passing link with its raw signals and a zero score.
fn unscored_link(pk: &DeProfile, fk: &DeProfile, containment: f64, name_sim: f64) -> PkFkLink {
    PkFkLink {
        pk: pk.id,
        fk: fk.id,
        pk_name: pk.qualified_name.clone(),
        fk_name: fk.qualified_name.clone(),
        score: 0.0,
        containment,
        name_sim,
        uniqueness: pk.uniqueness,
    }
}

/// A link's `(containment, name, uniqueness)` blend.
fn link_score(link: &PkFkLink, (w_containment, w_name, w_uniqueness): (f64, f64, f64)) -> f64 {
    w_containment * link.containment + w_name * link.name_sim + w_uniqueness * link.uniqueness
}

/// Sort scored join candidates by score descending, ties by ascending id —
/// the canonical joinable-columns order, shared by the single-catalog path
/// and the shard router's merge.
pub fn sort_join_candidates(scored: &mut [(DeId, f64)]) {
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiler;
    use cmdl_datalake::synth;

    fn setup() -> (ProfiledLake, ColumnIndex, CmdlConfig) {
        let config = CmdlConfig::fast();
        let profiled = Profiler::new(&config)
            .profile_lake(synth::pharma::generate(&synth::PharmaConfig::tiny()).lake);
        let columns = ColumnIndex::build(&profiled);
        (profiled, columns, config)
    }

    #[test]
    fn joinable_columns_find_fk_partners() {
        let (profiled, columns, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &columns, &config);
        let id = profiled.lake.column_id_by_name("Drugs", "Id").unwrap();
        let results = discovery.joinable_columns(id, 10);
        assert!(!results.is_empty());
        let names: Vec<String> = results
            .iter()
            .map(|(c, _)| profiled.profile(*c).unwrap().qualified_name.clone())
            .collect();
        assert!(
            names.iter().any(|n| n == "Enzyme_Targets.Drug_Key"),
            "expected Enzyme_Targets.Drug_Key among {names:?}"
        );
        // Scores sorted descending.
        for w in results.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn joinable_excludes_same_table() {
        let (profiled, columns, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &columns, &config);
        let id = profiled.lake.column_id_by_name("Drugs", "Id").unwrap();
        for (col, _) in discovery.joinable_columns(id, 50) {
            assert_ne!(
                profiled.profile(col).unwrap().table_name.as_deref(),
                Some("Drugs")
            );
        }
    }

    #[test]
    fn joinable_tables_aggregates() {
        let (profiled, columns, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &columns, &config);
        let tables = discovery.joinable_tables("Drugs", 5);
        assert!(!tables.is_empty());
        let names: Vec<&str> = tables.iter().map(|(t, _)| t.as_str()).collect();
        assert!(
            names.contains(&"Enzyme_Targets")
                || names.contains(&"Drug_Interactions")
                || names.contains(&"Dosages"),
            "expected a drug-key table among {names:?}"
        );
    }

    #[test]
    fn pkfk_links_recover_schema_keys() {
        let (profiled, columns, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &columns, &config);
        let links = discovery.pkfk_links();
        assert!(!links.is_empty());
        let pairs: Vec<(String, String)> = links
            .iter()
            .map(|l| (l.pk_name.clone(), l.fk_name.clone()))
            .collect();
        assert!(
            pairs
                .iter()
                .any(|(pk, fk)| pk == "Drugs.Id" && fk == "Enzyme_Targets.Drug_Key"),
            "expected Drugs.Id -> Enzyme_Targets.Drug_Key among {} links",
            pairs.len()
        );
        // All reported links satisfy the containment threshold by construction.
        assert!(links.iter().all(|l| l.score > 0.0));
    }

    #[test]
    fn unknown_column_returns_empty() {
        let (profiled, columns, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &columns, &config);
        assert!(discovery.joinable_columns(DeId(999_999), 5).is_empty());
        assert!(discovery.joinable_tables("NoSuchTable", 5).is_empty());
    }

    #[test]
    fn numeric_and_text_columns_do_not_join() {
        let (profiled, columns, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &columns, &config);
        let text = profiled.lake.column_id_by_name("Drugs", "Drug").unwrap();
        let numeric = profiled
            .lake
            .column_id_by_name("Dosages", "Dose_Mg")
            .unwrap();
        let a = profiled.profile(text).unwrap();
        let b = profiled.profile(numeric).unwrap();
        assert_eq!(discovery.join_score(a, b), 0.0);
    }
}
