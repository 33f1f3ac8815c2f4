//! Structured-discovery parity: the index-first join, union and PK-FK
//! scorers must return exactly what the pairwise `*_brute` scans return —
//! every score compared by its bits, every union mapping compared whole.
//!
//! The column index is maintained by ingest and removal and rebuilt by
//! compaction, so parity is checked on batch-built lakes (pharma and
//! UK-Open), after a hand-picked mutation sequence (an all-null text
//! column, a removed table name ingested again, a new table reusing a
//! removed table's column names), and after every step of
//! random ingest / remove / compact interleavings. The served paths are
//! held to the same references: PK-FK answers read from a generation's
//! shared link set (single and sharded, across weight triples and cuts,
//! and across the generations an ingest and a removal create), unionable
//! breakdowns taken from the kernel's anchor pair, and the bound-ordered
//! table phase on a lake of exact ties. The CI `incremental-parity` job
//! runs it at bench scale (`PARITY_SCALE=bench`); the default scale keeps
//! it cheap enough for the tier-1 suite.

mod common;

use proptest::prelude::*;

use cmdl::core::join::{pkfk_links_over, pkfk_links_over_brute, sort_join_candidates};
use cmdl::core::union::UnionSignals;
use cmdl::core::{
    Cmdl, CmdlConfig, DeProfile, DiscoveryQuery, JoinDiscovery, PkFkLink, QueryBuilder,
    QueryResponse, ScoreBreakdown, ShardedCmdl, Signal, UnionDiscovery, UnionScore,
};
use cmdl::datalake::{synth, Column, DataLake, Table, Value};

const MEASURES: [&str; 5] = ["name", "containment", "numeric", "semantic", "ensemble"];

fn bench_scale() -> bool {
    std::env::var("PARITY_SCALE").as_deref() == Ok("bench")
}

fn pharma_lake() -> DataLake {
    let config = if bench_scale() {
        synth::PharmaConfig {
            num_drugs: 60,
            num_enzymes: 30,
            num_documents: 80,
            num_interactions: 120,
            num_synthetic_tables: 10,
            ..Default::default()
        }
    } else {
        synth::PharmaConfig::tiny()
    };
    synth::pharma::generate(&config).lake
}

fn ukopen_lake() -> DataLake {
    let config = if bench_scale() {
        synth::UkOpenConfig::default()
    } else {
        synth::UkOpenConfig::tiny()
    };
    synth::ukopen::generate(&config).lake
}

/// Bit patterns of a `(column, score)` list.
fn join_bits(scored: &[(cmdl::datalake::DeId, f64)]) -> Vec<(u64, u64)> {
    scored
        .iter()
        .map(|(id, s)| (id.raw(), s.to_bits()))
        .collect()
}

/// Bit patterns of a `(table, score)` map, in name order.
fn table_bits(best: std::collections::HashMap<String, f64>) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = best.into_iter().map(|(t, s)| (t, s.to_bits())).collect();
    out.sort();
    out
}

/// Everything a union answer carries, with floats as bits.
type UnionBits = (String, u64, Vec<(String, String, u64)>, Vec<(u64, u64)>);

fn union_bits(scores: &[UnionScore]) -> Vec<UnionBits> {
    scores
        .iter()
        .map(|u| {
            (
                u.table.clone(),
                u.score.to_bits(),
                u.mapping
                    .iter()
                    .map(|(q, c, s)| (q.clone(), c.clone(), s.to_bits()))
                    .collect(),
                u.id_mapping
                    .iter()
                    .map(|(q, c)| (q.raw(), c.raw()))
                    .collect(),
            )
        })
        .collect()
}

/// Everything a link carries, with floats as bits.
type LinkBits = (u64, u64, String, String, [u64; 4]);

fn link_bits(links: &[PkFkLink]) -> Vec<LinkBits> {
    links
        .iter()
        .map(|l| {
            (
                l.pk.raw(),
                l.fk.raw(),
                l.pk_name.clone(),
                l.fk_name.clone(),
                [
                    l.score.to_bits(),
                    l.containment.to_bits(),
                    l.name_sim.to_bits(),
                    l.uniqueness.to_bits(),
                ],
            )
        })
        .collect()
}

fn live_tables(cmdl: &Cmdl) -> Vec<String> {
    let lake = &cmdl.profiled.lake;
    let mut names: Vec<String> = lake
        .tables()
        .iter()
        .enumerate()
        .filter(|&(i, _)| !lake.is_table_removed(i))
        .map(|(_, t)| t.name.clone())
        .collect();
    names.sort();
    names
}

/// The column index lists a table's live columns (none for a removed or
/// unknown table) in `column_ids` order.
fn assert_column_list(tag: &str, cmdl: &Cmdl, table: &str) {
    assert!(
        cmdl.indexes
            .columns
            .columns_of_table(table)
            .eq(cmdl.profiled.columns_of_table(table)),
        "{tag}: the column index's columns of {table}"
    );
}

/// Compare every indexed structured scorer with its brute-force reference
/// on the catalog's current generation.
fn assert_structured_parity(tag: &str, cmdl: &Cmdl) {
    let profiled = &cmdl.profiled;
    let columns = &cmdl.indexes.columns;
    assert!(
        columns.column_ids().eq(profiled.column_ids.iter().copied()),
        "{tag}: the column index's live slots are the live columns in `column_ids` order"
    );
    for table in live_tables(cmdl) {
        assert_column_list(tag, cmdl, &table);
    }
    let join = JoinDiscovery::new(profiled, columns, &cmdl.config);
    let union = UnionDiscovery::new(profiled, columns);

    for &id in &profiled.column_ids {
        let query = profiled.profile(id).unwrap();
        let mut indexed = join.joinable_candidates(query);
        let mut brute = join.joinable_candidates_brute(query);
        sort_join_candidates(&mut indexed);
        sort_join_candidates(&mut brute);
        assert_eq!(
            join_bits(&indexed),
            join_bits(&brute),
            "{tag}: joinable columns of {}",
            query.qualified_name
        );
        assert!(indexed.iter().all(|(_, s)| s.is_finite() && *s > 0.0));
    }

    for table in live_tables(cmdl) {
        let query: Vec<&DeProfile> = profiled
            .columns_of_table(&table)
            .into_iter()
            .filter_map(|id| profiled.profile(id))
            .collect();
        assert_eq!(
            table_bits(join.joinable_table_candidates(&query)),
            table_bits(join.joinable_table_candidates_brute(&query)),
            "{tag}: joinable tables of {table}"
        );
        // A small `top_k` cuts the indexed path before it names its
        // tables, where ties at the cut decide membership.
        for (measure, top_k) in MEASURES
            .iter()
            .flat_map(|&m| [usize::MAX, 1, 3].map(|k| (m, k)))
        {
            let indexed = union.unionable_tables_with(&table, top_k, measure);
            let brute = union.unionable_tables_with_brute(&table, top_k, measure);
            assert_eq!(
                union_bits(&indexed),
                union_bits(&brute),
                "{tag}: unionable tables of {table} by {measure}, top {top_k}"
            );
            assert!(indexed.iter().all(|u| u.score.is_finite()));
        }
    }

    let gathered: Vec<&DeProfile> = profiled
        .column_ids
        .iter()
        .filter_map(|&id| profiled.profile(id))
        .collect();
    let default_weights = (
        cmdl.config.pkfk_containment_weight,
        cmdl.config.pkfk_name_weight,
        cmdl.config.pkfk_uniqueness_weight,
    );
    let any_threshold = CmdlConfig {
        pkfk_containment: 0.0,
        ..cmdl.config.clone()
    };
    for config in [&cmdl.config, &any_threshold] {
        for (wc, wn, wu) in [default_weights, (0.2, 0.5, 0.3), (1.0, 0.0, 0.0)] {
            let indexed = pkfk_links_over(&gathered, config, wc, wn, wu);
            let brute = pkfk_links_over_brute(&gathered, config, wc, wn, wu);
            assert_eq!(
                link_bits(&indexed),
                link_bits(&brute),
                "{tag}: PK-FK links at threshold {} and weights ({wc}, {wn}, {wu})",
                config.pkfk_containment
            );
            assert!(indexed.iter().all(|l| l.score.is_finite()));
        }
    }
}

#[test]
fn indexed_scorers_match_brute_force_on_pharma() {
    assert_structured_parity("pharma", &Cmdl::build(pharma_lake(), CmdlConfig::fast()));
}

#[test]
fn indexed_scorers_match_brute_force_on_ukopen() {
    assert_structured_parity("ukopen", &Cmdl::build(ukopen_lake(), CmdlConfig::fast()));
}

/// A table whose text column holds no value at all (an empty distinct
/// set, whose containment must be 0, not `0 / 0`), next to a key-like
/// numeric column and a text column sharing values with nothing.
fn sparse_table(name: &str) -> Table {
    Table::new(
        name,
        vec![
            Column::new("Drug_Key", vec![Value::Null; 6]),
            Column::from_numbers("Row_Id", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            Column::from_texts("Comment", ["qa", "qb", "qc", "qd", "qe", "qf"]),
        ],
    )
}

#[test]
fn parity_survives_empty_columns_removal_and_reingest() {
    let mut cmdl = Cmdl::build(pharma_lake(), CmdlConfig::fast());
    cmdl.ingest_table(sparse_table("Notes")).unwrap();
    assert_structured_parity("with an all-null column", &cmdl);

    let drugs = cmdl.profiled.lake.table("Drugs").unwrap().clone();
    cmdl.remove_table("Drugs").unwrap();
    assert_structured_parity("Drugs removed", &cmdl);
    cmdl.ingest_table(drugs).unwrap();
    cmdl.remove_table("Notes").unwrap();
    cmdl.ingest_table(sparse_table("Notes")).unwrap();
    assert_structured_parity("Drugs and Notes re-ingested", &cmdl);

    cmdl.compact();
    assert_structured_parity("compacted", &cmdl);
}

#[test]
fn parity_holds_when_a_new_table_reuses_removed_column_names() {
    // The column index interns names and keeps a name after its last
    // column leaves, so "Remedies" takes over the name ids of "Drugs".
    let mut cmdl = Cmdl::build(pharma_lake(), CmdlConfig::fast());
    let drugs = cmdl.profiled.lake.table("Drugs").unwrap().clone();
    cmdl.remove_table("Drugs").unwrap();
    let remedies = Table::new(
        "Remedies",
        drugs
            .columns
            .iter()
            .map(|c| {
                let values = c.values.iter().rev().map(|v| match v {
                    Value::Text(t) => Value::Text(format!("{t}-c")),
                    other => other.clone(),
                });
                Column::new(c.name.clone(), values.collect())
            })
            .collect(),
    );
    cmdl.ingest_table(remedies).unwrap();
    assert_structured_parity("Drugs' column names reused", &cmdl);
    cmdl.compact();
    assert_structured_parity("reused names compacted", &cmdl);
}

/// A random miniature table: text columns over a small shared vocabulary
/// (so values overlap across tables), sometimes an all-null column, and
/// sometimes a numeric column.
fn mini_table(name: String, spec: &[u32]) -> Table {
    const VOCAB: [&str; 12] = [
        "alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta", "iota", "kappa", "lam",
        "mu",
    ];
    const NAMES: [&str; 6] = ["id", "code", "name", "Drug_Key", "region", "value"];
    let rows = 3 + (spec[0] % 5) as usize;
    let mut columns: Vec<Column> = spec[1..]
        .iter()
        .enumerate()
        .map(|(ci, &seed)| {
            let column_name = format!("{}_{ci}", NAMES[seed as usize % NAMES.len()]);
            match seed % 7 {
                0 => Column::new(column_name, vec![Value::Null; rows]),
                1 => Column::from_numbers(
                    column_name,
                    (0..rows).map(|r| f64::from(seed % 13) + r as f64),
                ),
                _ => Column::from_texts(
                    column_name,
                    (0..rows).map(|r| {
                        VOCAB[(seed as usize / 7 + r * (seed as usize % 3 + 1)) % VOCAB.len()]
                    }),
                ),
            }
        })
        .collect();
    if columns.is_empty() {
        columns.push(Column::from_texts("id", ["alpha", "beta"]));
    }
    Table::new(name, columns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of table ingestion, removal (including of a name
    /// that is later ingested again) and compaction keeps the indexed
    /// scorers bit-identical to the brute-force scans, and the index's
    /// column list of every table (live or not) equal to the lake's, after
    /// every step.
    #[test]
    fn parity_holds_under_random_ingest_remove_compact(
        specs in prop::collection::vec(prop::collection::vec(0u32..10_000, 2..5), 3..7),
        ops in prop::collection::vec(0u32..1_000, 4..10),
    ) {
        let tables: Vec<Table> = specs
            .iter()
            .enumerate()
            .map(|(ti, spec)| mini_table(format!("t{ti}"), spec))
            .collect();
        // No automatic compaction (delta pressure never exceeds 1), so
        // removals stay in the index's delta state until a `compact` step.
        let mut cmdl = Cmdl::build(
            common::lake_of("mini", &tables[..2], &[]),
            CmdlConfig {
                compaction_ratio: 1.0,
                ..CmdlConfig::fast()
            },
        );
        let mut live: Vec<usize> = vec![0, 1];
        for (step, &op) in ops.iter().enumerate() {
            let pick = op as usize / 3;
            match op % 3 {
                0 => {
                    // Ingest a table that is not live (possibly one removed
                    // earlier, re-using its name).
                    let offline: Vec<usize> =
                        (0..tables.len()).filter(|t| !live.contains(t)).collect();
                    if let Some(&t) = offline.get(pick % offline.len().max(1)) {
                        cmdl.ingest_table(tables[t].clone()).unwrap();
                        live.push(t);
                    }
                }
                1 if live.len() > 1 => {
                    let t = live.remove(pick % live.len());
                    cmdl.remove_table(&tables[t].name).unwrap();
                }
                _ => cmdl.compact(),
            }
            let tag = format!("step {step} (op {op})");
            for table in &tables {
                assert_column_list(&tag, &cmdl, &table.name);
            }
            assert_structured_parity(&tag, &cmdl);
        }
    }
}

/// The weight triples the served PK-FK tests rank under: the configured
/// default (no override) and two overrides.
const PKFK_WEIGHTS: [Option<(f64, f64, f64)>; 3] =
    [None, Some((0.2, 0.5, 0.3)), Some((1.0, 0.0, 0.0))];

/// "Every link" as a page size.
const ALL: usize = 1_000_000;

fn pkfk_query(weights: Option<(f64, f64, f64)>, top_k: usize) -> DiscoveryQuery {
    let builder = QueryBuilder::pkfk().top_k(top_k);
    match weights {
        Some((wc, wn, wu)) => builder
            .weight_containment(wc)
            .weight_name(wn)
            .weight_uniqueness(wu)
            .build(),
        None => builder.build(),
    }
}

/// The links of a served PK-FK answer, every hit score checked against its
/// link's.
fn served_links(response: QueryResponse) -> Vec<PkFkLink> {
    response
        .hits
        .into_iter()
        .map(|hit| {
            let link = hit.pkfk.expect("a PK-FK hit carries its link");
            assert_eq!(hit.score.to_bits(), link.score.to_bits());
            link
        })
        .collect()
}

/// The brute-force PK-FK answer over `columns` under a query's weights,
/// cut to `top_k`.
fn brute_links(
    columns: &[&DeProfile],
    config: &CmdlConfig,
    weights: Option<(f64, f64, f64)>,
    top_k: usize,
) -> Vec<PkFkLink> {
    let (wc, wn, wu) = weights.unwrap_or((
        config.pkfk_containment_weight,
        config.pkfk_name_weight,
        config.pkfk_uniqueness_weight,
    ));
    let mut links = pkfk_links_over_brute(columns, config, wc, wn, wu);
    links.truncate(top_k);
    links
}

/// Every column profile of a set of shard catalogs, in id order.
fn gathered_columns<'a>(
    shards: impl IntoIterator<Item = &'a cmdl::core::ProfiledLake>,
) -> Vec<&'a DeProfile> {
    let mut columns: Vec<&DeProfile> = shards
        .into_iter()
        .flat_map(|profiled| {
            profiled
                .column_ids
                .iter()
                .filter_map(|&id| profiled.profile(id))
        })
        .collect();
    columns.sort_by_key(|p| p.id);
    columns
}

fn sharded_config(shards: usize) -> CmdlConfig {
    CmdlConfig {
        shards,
        ..CmdlConfig::fast()
    }
}

/// One pinned snapshot answers every weight triple and cut from the link
/// set its first PK-FK query swept, single and sharded, exactly as the
/// brute scan ranks under the same weights. (Later triples re-rank the
/// stored set, so a set stored pre-ranked under the first triple fails.)
#[test]
fn served_pkfk_reranks_one_link_set_per_generation() {
    let config = CmdlConfig::fast();
    let single = Cmdl::build(pharma_lake(), config.clone()).snapshot();
    let columns = gathered_columns([&*single.profiled]);
    let sharded = ShardedCmdl::build(pharma_lake(), sharded_config(3)).snapshot();
    let sharded_columns = gathered_columns(sharded.shards.iter().map(|s| &*s.profiled));
    assert!(
        !brute_links(&columns, &config, None, ALL).is_empty(),
        "the lake has PK-FK links"
    );
    for weights in PKFK_WEIGHTS {
        for top_k in [1, 7, ALL] {
            let query = pkfk_query(weights, top_k);
            let expected = link_bits(&brute_links(&columns, &config, weights, top_k));
            assert_eq!(
                link_bits(&served_links(single.execute(&query).unwrap())),
                expected,
                "single catalog, weights {weights:?}, top {top_k}"
            );
            assert_eq!(
                link_bits(&brute_links(&sharded_columns, &config, weights, top_k)),
                expected,
                "the shards hold the same columns"
            );
            assert_eq!(
                link_bits(&served_links(sharded.execute(&query).unwrap())),
                expected,
                "3 shards, weights {weights:?}, top {top_k}"
            );
        }
    }
}

/// A table that adds one PK-FK link: a copy of `Enzyme_Targets`, whose
/// `Drug_Key` references `Drugs.Id`.
fn extra_link_table(cmdl_lake: &cmdl::datalake::DataLake) -> Table {
    let mut table = cmdl_lake.table("Enzyme_Targets").unwrap().clone();
    table.name = "Enzyme_Targets_Copy".into();
    table
}

fn mentions(links: &[PkFkLink], table: &str) -> bool {
    let prefix = format!("{table}.");
    links
        .iter()
        .any(|l| l.pk_name.starts_with(&prefix) || l.fk_name.starts_with(&prefix))
}

/// A pinned generation keeps its PK-FK answer across an ingest that adds a
/// link and a removal that drops one, while each new generation answers
/// from a link set of its own (a set shared across generations fails
/// here), single and sharded.
#[test]
fn served_pkfk_link_sets_are_isolated_per_generation() {
    let query = pkfk_query(None, ALL);
    let config = CmdlConfig::fast();

    let mut cmdl = Cmdl::build(pharma_lake(), config.clone());
    let extra = extra_link_table(&cmdl.profiled.lake);
    let pinned = cmdl.snapshot();
    let pinned_answer = link_bits(&served_links(pinned.execute(&query).unwrap()));
    let check_new = |snapshot: &cmdl::core::CatalogSnapshot, tag: &str| {
        let links = served_links(snapshot.execute(&query).unwrap());
        let columns = gathered_columns([&*snapshot.profiled]);
        assert_eq!(
            link_bits(&links),
            link_bits(&brute_links(&columns, &config, None, ALL)),
            "single catalog, {tag}"
        );
        links
    };
    cmdl.ingest_table(extra.clone()).unwrap();
    let ingested = check_new(&cmdl.snapshot(), "after the ingest");
    assert!(mentions(&ingested, &extra.name), "the ingest adds a link");
    cmdl.remove_table("Enzyme_Targets").unwrap();
    let removed = check_new(&cmdl.snapshot(), "after the removal");
    assert!(
        !mentions(&removed, "Enzyme_Targets"),
        "the removal drops a link"
    );
    assert_eq!(
        link_bits(&served_links(pinned.execute(&query).unwrap())),
        pinned_answer,
        "the pinned generation keeps its links"
    );

    let sharded = ShardedCmdl::build(pharma_lake(), sharded_config(3));
    let pinned = sharded.snapshot();
    let pinned_answer = link_bits(&served_links(pinned.execute(&query).unwrap()));
    let check_new = |tag: &str| {
        let snapshot = sharded.snapshot();
        let links = served_links(snapshot.execute(&query).unwrap());
        let columns = gathered_columns(snapshot.shards.iter().map(|s| &*s.profiled));
        assert_eq!(
            link_bits(&links),
            link_bits(&brute_links(&columns, &config, None, ALL)),
            "3 shards, {tag}"
        );
        links
    };
    sharded.ingest_table(extra.clone()).unwrap();
    assert!(mentions(&check_new("after the ingest"), &extra.name));
    sharded.remove_table("Enzyme_Targets").unwrap();
    assert!(!mentions(&check_new("after the removal"), "Enzyme_Targets"));
    assert_eq!(
        link_bits(&served_links(pinned.execute(&query).unwrap())),
        pinned_answer,
        "the pinned sharded generation keeps its links"
    );
}

/// `(signal, value bits, weight bits)` of a breakdown.
fn breakdown_bits(breakdown: &ScoreBreakdown) -> Vec<(Signal, u64, u64)> {
    breakdown
        .signals
        .iter()
        .map(|c| (c.signal, c.value.to_bits(), c.weight.to_bits()))
        .collect()
}

/// The breakdown a unionable hit shows for an anchor pair's signals: the
/// ensemble `0.7 * max + 0.3 * avg` credits the first largest signal with
/// `0.7 + 0.3 / 4` and every signal with `0.3 / 4`.
fn expected_union_breakdown(signals: &UnionSignals) -> Vec<(Signal, u64, u64)> {
    let values = [
        (Signal::NameSimilarity, signals.name),
        (Signal::Containment, signals.containment),
        (Signal::NumericOverlap, signals.numeric),
        (Signal::EmbeddingCosine, signals.semantic),
    ];
    let mut top = 0;
    for (i, &(_, value)) in values.iter().enumerate() {
        if value >= values[top].1 {
            top = i;
        }
    }
    values
        .iter()
        .enumerate()
        .map(|(i, &(signal, value))| {
            let weight: f64 = 0.3 / 4.0 + if i == top { 0.7 } else { 0.0 };
            (signal, value.to_bits(), weight.to_bits())
        })
        .collect()
}

/// Every served unionable hit's breakdown holds the signals of its first
/// `id_mapping` pair, bit for bit as `signals` computes them from the two
/// profiles, single and sharded.
#[test]
fn served_union_breakdowns_are_the_anchor_pairs_signals() {
    let cmdl = Cmdl::build(ukopen_lake(), CmdlConfig::fast());
    let sharded = ShardedCmdl::build(ukopen_lake(), sharded_config(3));
    let union = UnionDiscovery::new(&cmdl.profiled, &cmdl.indexes.columns);
    let mut hits = 0;
    for table in live_tables(&cmdl) {
        let query = QueryBuilder::unionable(table.clone()).top_k(ALL).build();
        for (tag, response) in [
            ("single", cmdl.execute(&query).unwrap()),
            ("3 shards", sharded.execute(&query).unwrap()),
        ] {
            for hit in &response.hits {
                let answer = hit
                    .union
                    .as_ref()
                    .expect("a unionable hit carries its answer");
                let (q, c) = answer.id_mapping[0];
                let signals = union.signals(
                    cmdl.profiled.profile(q).unwrap(),
                    cmdl.profiled.profile(c).unwrap(),
                );
                assert_eq!(
                    breakdown_bits(&hit.breakdown),
                    expected_union_breakdown(&signals),
                    "{tag}: {table} -> {}",
                    answer.table
                );
                hits += 1;
            }
        }
    }
    assert!(hits > 0);
}

/// `copies` copies of `table` named `{prefix}_{copies - 1}` down to
/// `{prefix}_0`: slot order is the reverse of name order, so a table phase
/// that settles equal scores by slot instead of name is caught.
fn named_copies(table: &Table, prefix: &str, copies: usize) -> Vec<Table> {
    (0..copies)
        .rev()
        .map(|i| {
            let mut copy = table.clone();
            copy.name = format!("{prefix}_{i:02}");
            copy
        })
        .collect()
}

/// The bound-ordered table phase on a lake of exact ties: `k` copies of a
/// one-column table (whose bound is exactly its score, so stopping at a
/// bound *equal* to the `fetch`-th score drops tied tables that win on
/// name) and `k` copies of a six-column table (whose bound sums round
/// differently from the matching's, so a bound without its slack can fall
/// below a tied score), queried by the originals and by probes that match
/// the copies column by column with graded overlap. Indexed equals brute
/// at every `top_k` in `1..=k` and beyond.
#[test]
fn unionable_is_exact_on_a_lake_of_tied_copies() {
    const K: usize = 6;
    let words =
        |stem: &str, n: usize| -> Vec<String> { (0..n).map(|i| format!("{stem}{i}")).collect() };
    let single = Table::new("single", vec![Column::from_texts("code", words("c", 8))]);
    let wide = Table::new(
        "wide",
        vec![
            Column::from_texts("region", words("r", 9)),
            Column::from_numbers("amount", (0..9).map(|i| f64::from(i) * 1.5)),
            Column::from_texts("Drug_Key", words("d", 9)),
            Column::from_texts("status", words("s", 5)),
            Column::from_numbers("year", (0..9).map(|i| 1990.0 + f64::from(i))),
            Column::from_texts("label", words("l", 7)),
        ],
    );
    // Probes: each column shares a different fraction of a wide column's
    // values, listed in an order unlike the matching's weight order.
    let probe = |name: &str, take: [usize; 4]| {
        Table::new(
            name,
            vec![
                Column::from_texts("labels", words("l", take[0])),
                Column::from_texts("regions", words("r", take[1])),
                Column::from_texts("key", words("d", take[2])),
                Column::from_texts("state", words("s", take[3])),
                Column::from_numbers("amounts", (0..4).map(|i| f64::from(i) * 2.0)),
            ],
        )
    };
    let single_probe = Table::new(
        "single_probe",
        vec![Column::from_texts("codes", words("c", 5))],
    );
    let mut tables = vec![single.clone(), wide.clone()];
    tables.extend(named_copies(&single, "single_copy", K));
    tables.extend(named_copies(&wide, "wide_copy", K));
    tables.push(single_probe);
    tables.push(probe("probe_a", [1, 3, 7, 2]));
    tables.push(probe("probe_b", [6, 2, 4, 5]));
    tables.push(probe("probe_c", [3, 8, 1, 4]));
    let cmdl = Cmdl::build(common::lake_of("ties", &tables, &[]), CmdlConfig::fast());
    let union = UnionDiscovery::new(&cmdl.profiled, &cmdl.indexes.columns);
    for table in live_tables(&cmdl) {
        for top_k in 1..=tables.len() {
            assert_eq!(
                union_bits(&union.unionable_tables_with(&table, top_k, "ensemble")),
                union_bits(&union.unionable_tables_with_brute(&table, top_k, "ensemble")),
                "unionable tables of {table}, top {top_k}"
            );
        }
    }
    let copies_of_single = union.unionable_tables_with_brute("single", K, "ensemble");
    assert!(
        copies_of_single
            .iter()
            .all(|u| u.table.starts_with("single_copy_"))
            && copies_of_single
                .windows(2)
                .all(|w| w[0].score == w[1].score),
        "the single-column copies tie"
    );
}

/// The table answers of a served unionable response.
fn served_unions(response: QueryResponse) -> Vec<UnionScore> {
    response
        .hits
        .into_iter()
        .map(|hit| hit.union.expect("a unionable hit carries its answer"))
        .collect()
}

/// A copy of `Drugs` named `name` whose drug-name column is renamed to a
/// name no other column has.
fn renamed_drugs(lake: &DataLake, name: &str, column: &str) -> Table {
    let mut table = lake.table("Drugs").unwrap().clone();
    table.name = name.into();
    table.columns[1].name = column.into();
    table
}

/// The index's name-similarity rows outlive the generation that filled
/// them, and a row ends before the names interned after it was filled: a
/// pinned snapshot fills a row for every table's names, an ingest interns
/// a new name, and every table's unionable answer on the new generation —
/// the new table's included — still equals the brute scan.
#[test]
fn name_rows_filled_before_an_ingest_serve_the_new_generation() {
    let mut cmdl = Cmdl::build(pharma_lake(), CmdlConfig::fast());
    let pinned = cmdl.snapshot();
    for table in live_tables(&cmdl) {
        pinned
            .execute(&QueryBuilder::unionable(table).top_k(ALL).build())
            .unwrap();
    }
    let filled = pinned.stats().index_sizes.name_similarity_rows;
    assert_eq!(filled, pinned.stats().index_sizes.column_names);

    let formulary = renamed_drugs(&cmdl.profiled.lake, "Formulary", "Drug_Label_Text");
    cmdl.ingest_table(formulary).unwrap();
    let sizes = cmdl.stats().index_sizes;
    assert_eq!(sizes.column_names, filled + 1, "one name is new");
    assert_eq!(
        sizes.name_similarity_rows, filled,
        "the filled rows are kept"
    );

    let union = UnionDiscovery::new(&cmdl.profiled, &cmdl.indexes.columns);
    let mut saw_new_column = false;
    for table in live_tables(&cmdl) {
        let served = served_unions(
            cmdl.execute(&QueryBuilder::unionable(table.clone()).top_k(ALL).build())
                .unwrap(),
        );
        saw_new_column |= served
            .iter()
            .any(|u| u.mapping.iter().any(|(_, c, _)| c == "Drug_Label_Text"));
        assert_eq!(
            union_bits(&served),
            union_bits(&union.unionable_tables_with_brute(&table, ALL, "ensemble")),
            "unionable tables of {table} after the ingest"
        );
    }
    assert!(saw_new_column, "an older row's query matches the new name");
}

/// A sharded query table whose column name no other shard interns: each
/// shard prepares the foreign name itself, and the merged answer equals
/// the single catalog's brute scan.
#[test]
fn sharded_unionable_with_a_name_known_to_one_shard_matches_brute() {
    const UNIQUE: &str = "Zygomorphic_Label";
    let mut lake = pharma_lake();
    let oddities = renamed_drugs(&lake, "Oddities", UNIQUE);
    lake.add_table(oddities);
    let single = Cmdl::build(lake.clone(), CmdlConfig::fast());
    let union = UnionDiscovery::new(&single.profiled, &single.indexes.columns);
    let sharded = ShardedCmdl::build(lake, sharded_config(3));
    let snapshot = sharded.snapshot();
    let owner = snapshot
        .shards
        .iter()
        .position(|s| s.profiled.lake.table("Oddities").is_some())
        .unwrap();
    let has_name = |profiled: &cmdl::core::ProfiledLake| {
        profiled
            .column_ids
            .iter()
            .any(|&id| profiled.profile(id).unwrap().name == UNIQUE)
    };
    for (i, shard) in snapshot.shards.iter().enumerate() {
        assert_eq!(has_name(&shard.profiled), i == owner);
    }
    let mut foreign_matches = 0;
    for top_k in [1, 3, ALL] {
        let served = served_unions(
            snapshot
                .execute(&QueryBuilder::unionable("Oddities").top_k(top_k).build())
                .unwrap(),
        );
        foreign_matches += served
            .iter()
            .filter(|u| {
                snapshot.shards[owner]
                    .profiled
                    .lake
                    .table(&u.table)
                    .is_none()
                    && u.mapping.iter().any(|(q, _, _)| q == UNIQUE)
            })
            .count();
        assert_eq!(
            union_bits(&served),
            union_bits(&union.unionable_tables_with_brute("Oddities", top_k, "ensemble")),
            "3 shards, unionable tables of Oddities, top {top_k}"
        );
    }
    assert!(
        foreign_matches > 0,
        "another shard aligns the uniquely named column"
    );
}
