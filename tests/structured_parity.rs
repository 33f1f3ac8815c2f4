//! Structured-discovery parity: the index-first join, union and PK-FK
//! scorers must return exactly what the pairwise `*_brute` scans return —
//! every score compared by its bits, every union mapping compared whole.
//!
//! The column index is maintained by ingest and removal and rebuilt by
//! compaction, so parity is checked on batch-built lakes (pharma and
//! UK-Open), after a hand-picked mutation sequence (an all-null text
//! column, a removed table name ingested again, a new table reusing a
//! removed table's column names), and after every step of
//! random ingest / remove / compact interleavings. The CI
//! `incremental-parity` job runs it at bench scale (`PARITY_SCALE=bench`);
//! the default scale keeps it cheap enough for the tier-1 suite.

mod common;

use proptest::prelude::*;

use cmdl::core::join::{pkfk_links_over, pkfk_links_over_brute, sort_join_candidates};
use cmdl::core::{
    Cmdl, CmdlConfig, DeProfile, JoinDiscovery, PkFkLink, UnionDiscovery, UnionScore,
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

/// Compare every indexed structured scorer with its brute-force reference
/// on the catalog's current generation.
fn assert_structured_parity(tag: &str, cmdl: &Cmdl) {
    let profiled = &cmdl.profiled;
    let columns = &cmdl.indexes.columns;
    assert_eq!(
        columns.len(),
        profiled.column_ids.len(),
        "{tag}: column index covers the live columns"
    );
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
    /// scorers bit-identical to the brute-force scans after every step.
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
        let mut cmdl = Cmdl::build(
            common::lake_of("mini", &tables[..2], &[]),
            CmdlConfig::fast(),
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
            assert_structured_parity(&format!("step {step} (op {op})"), &cmdl);
        }
    }
}
