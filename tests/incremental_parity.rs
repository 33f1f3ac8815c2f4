//! Incremental-ingestion parity: building the pharma lake in one batch and
//! building it as a seed subset plus `ingest_*` deltas (with a final
//! `compact()`) must yield identical discovery results.
//!
//! This is the guard that keeps the delta path honest: every index delta
//! (BM25 postings with lazy IDF, LSH pending inserts and tombstones, ANN
//! delta tails, document-frequency flip patching) must fold back into a
//! catalog that is indistinguishable from a batch build over the same
//! elements. The CI `incremental-parity` job runs this test at bench scale
//! (`PARITY_SCALE=bench`); the default scale keeps it cheap enough for the
//! tier-1 suite.
//!
//! Results are compared modulo reordering within exact score ties (element
//! ids differ between the two systems, so equal-scored elements may be
//! enumerated in a different order; see `common::assert_result_parity`).
//!
//! The same file holds the pinned-snapshot property: a snapshot taken before
//! any writer step (ingest, remove, compact, a document-frequency flip)
//! answers the query battery exactly as before the step, and its profiles
//! keep their content. Generations share unchanged profiles, so this is what
//! proves a writer never edits a profile a reader can still see.

mod common;

use std::sync::OnceLock;

use cmdl::core::{CatalogSnapshot, Cmdl, CmdlConfig, QueryBuilder, SearchMode};
use cmdl::datalake::{synth, DataLake, DeId, Document, Table};
use cmdl::text::BagOfWords;
use common::{assert_result_parity, lake_of, ranked};
use proptest::prelude::*;

fn parity_config() -> synth::PharmaConfig {
    if std::env::var("PARITY_SCALE").as_deref() == Ok("bench") {
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
    }
}

/// The full pharma lake plus its raw tables and documents (for replay).
fn full_lake() -> (DataLake, Vec<Table>, Vec<Document>) {
    let lake = synth::pharma::generate(&parity_config()).lake;
    let tables = lake.tables().to_vec();
    let documents = lake.documents().to_vec();
    (lake, tables, documents)
}

/// Deterministic query workload derived from the raw lake data (identical
/// strings for both systems, independent of either system's ids).
fn query_workload(tables: &[Table], documents: &[Document]) -> Vec<String> {
    let mut queries = Vec::new();
    for table in tables.iter().take(6) {
        for column in table.columns.iter().take(2) {
            if let Some(v) = column.values.first() {
                let text = v.as_text();
                if !text.is_empty() {
                    queries.push(text);
                }
            }
        }
    }
    for doc in documents.iter().take(6) {
        queries.push(doc.title.clone());
        queries.push(doc.text.chars().take(60).collect());
    }
    queries.push("drug enzyme inhibitor target".to_string());
    queries
}

/// Collect every discovery surface of a catalog generation as comparable
/// `(tag, results)` pairs.
fn discovery_surface(
    snap: &CatalogSnapshot,
    queries: &[String],
) -> Vec<(String, Vec<(String, f64)>)> {
    let mut surfaces = Vec::new();
    for (qi, query) in queries.iter().enumerate() {
        for (mode, mode_name) in [
            (SearchMode::All, "all"),
            (SearchMode::Text, "text"),
            (SearchMode::Tables, "tables"),
        ] {
            let keyword = QueryBuilder::keyword(query).mode(mode).top_k(10).build();
            surfaces.push((
                format!("content[{qi}][{mode_name}]"),
                ranked(snap, &keyword),
            ));
        }
        let cross_modal = QueryBuilder::cross_modal_text(query).top_k(5).build();
        surfaces.push((format!("cross_modal[{qi}]"), ranked(snap, &cross_modal)));
    }
    for name in &live_tables(snap) {
        let joins = QueryBuilder::joinable(name).top_k(5).build();
        surfaces.push((format!("joinable[{name}]"), ranked(snap, &joins)));
        let unions = QueryBuilder::unionable(name).top_k(5).build();
        surfaces.push((format!("unionable[{name}]"), ranked(snap, &unions)));
    }
    let pkfk = QueryBuilder::pkfk().top_k(usize::MAX).build();
    surfaces.push(("pkfk".to_string(), ranked(snap, &pkfk)));
    surfaces
}

/// Names of the live tables of a generation, sorted.
fn live_tables(snap: &CatalogSnapshot) -> Vec<String> {
    let lake = &snap.profiled.lake;
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

fn assert_systems_agree(batch: &Cmdl, incremental: &Cmdl, queries: &[String]) {
    let batch_surface = discovery_surface(&batch.snapshot(), queries);
    let incremental_surface = discovery_surface(&incremental.snapshot(), queries);
    assert_eq!(batch_surface.len(), incremental_surface.len());
    for ((tag_a, results_a), (tag_b, results_b)) in
        batch_surface.iter().zip(incremental_surface.iter())
    {
        assert_eq!(tag_a, tag_b);
        assert_result_parity(tag_a, results_a, results_b);
    }
}

#[test]
fn batch_and_incremental_builds_agree() {
    let (lake, tables, documents) = full_lake();
    let config = CmdlConfig::fast();
    let batch = Cmdl::build(lake, config.clone());

    // Seed with ~90% of the lake, ingest the remainder element by element.
    let table_seed = (tables.len() * 9).div_ceil(10);
    let doc_seed = (documents.len() * 9).div_ceil(10);
    let mut incremental = Cmdl::build(
        lake_of("pharma-seed", &tables[..table_seed], &documents[..doc_seed]),
        config,
    );
    for table in &tables[table_seed..] {
        incremental.ingest_table(table.clone()).unwrap();
    }
    for doc in &documents[doc_seed..] {
        incremental.ingest_document(doc.clone()).unwrap();
    }
    incremental.compact();

    assert_eq!(
        batch.profiled.len(),
        incremental.profiled.len(),
        "element counts must agree"
    );
    assert_eq!(
        batch.profiled.doc_df.num_docs(),
        incremental.profiled.doc_df.num_docs(),
        "corpus statistics must agree"
    );
    let queries = query_workload(&tables, &documents);
    assert_systems_agree(&batch, &incremental, &queries);
}

#[test]
fn removal_then_compact_matches_batch_of_survivors() {
    let (lake, tables, documents) = full_lake();
    let config = CmdlConfig::fast();

    // Incremental: build everything, then remove the last two tables and the
    // last two documents.
    let mut incremental = Cmdl::build(lake, config.clone());
    let removed_tables: Vec<String> = tables
        .iter()
        .rev()
        .take(2)
        .map(|t| t.name.clone())
        .collect();
    for name in &removed_tables {
        incremental.remove_table(name).unwrap();
    }
    for index in (documents.len() - 2..documents.len()).rev() {
        incremental.remove_document(index).unwrap();
    }
    incremental.compact();

    // Batch: build only the survivors.
    let surviving_tables: Vec<Table> = tables
        .iter()
        .filter(|t| !removed_tables.contains(&t.name))
        .cloned()
        .collect();
    let surviving_docs: Vec<Document> = documents[..documents.len() - 2].to_vec();
    let batch = Cmdl::build(
        lake_of("pharma-survivors", &surviving_tables, &surviving_docs),
        config,
    );

    assert_eq!(batch.profiled.len(), incremental.profiled.len());
    let queries = query_workload(&surviving_tables, &surviving_docs);
    assert_systems_agree(&batch, &incremental, &queries);
}

/// The full lake built once, with its source data and query battery.
struct PinnedBase {
    /// The generation every proptest case starts its writer from.
    snapshot: CatalogSnapshot,
    tables: Vec<Table>,
    documents: Vec<Document>,
    queries: Vec<String>,
}

fn pinned_base() -> &'static PinnedBase {
    static BASE: OnceLock<PinnedBase> = OnceLock::new();
    BASE.get_or_init(|| {
        let (lake, tables, documents) = full_lake();
        PinnedBase {
            queries: query_workload(&tables, &documents),
            snapshot: Cmdl::build(lake, CmdlConfig::fast()).snapshot(),
            tables,
            documents,
        }
    })
}

/// Apply one writer step decoded from `op`; returns its name for failure
/// messages, or `None` when there was nothing to remove. A
/// document-frequency flip step ingests one-term documents on the most
/// frequent kept term until its ratio crosses the keep bound, which
/// re-derives every document holding it.
fn writer_step(cmdl: &mut Cmdl, step: usize, op: u32) -> Option<String> {
    let PinnedBase {
        tables, documents, ..
    } = pinned_base();
    let pick = (op >> 3) as usize;
    match op % 6 {
        0 => {
            let mut table = tables[pick % tables.len()].clone();
            table.name = format!("{}_{step}", table.name);
            cmdl.ingest_table(table).unwrap();
            Some("ingest table".into())
        }
        1 => {
            cmdl.ingest_document(documents[pick % documents.len()].clone())
                .unwrap();
            Some("ingest document".into())
        }
        2 => {
            let live = live_tables(&cmdl.snapshot());
            let name = live.get(pick % live.len().max(1))?;
            cmdl.remove_table(name).unwrap();
            Some(format!("remove table {name}"))
        }
        3 => {
            let lake = &cmdl.profiled.lake;
            let live: Vec<usize> = (0..lake.num_documents())
                .filter(|&i| {
                    lake.document_id(i)
                        .is_some_and(|id| cmdl.profiled.profile(id).is_some())
                })
                .collect();
            let index = *live.get(pick % live.len().max(1))?;
            cmdl.remove_document(index).unwrap();
            Some(format!("remove document {index}"))
        }
        4 => {
            cmdl.compact();
            Some("compact".into())
        }
        _ => {
            let df = &cmdl.profiled.doc_df;
            let (term, _) = df
                .iter()
                .filter(|&(term, _)| df.keep(term))
                .map(|(term, count)| (term.to_string(), count))
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))?;
            for i in 0..documents.len() * 2 {
                if !cmdl.profiled.doc_df.keep(&term) {
                    break;
                }
                let title = format!("flip-{step}-{i}");
                cmdl.ingest_document(Document::new(title, "synthetic", &term))
                    .unwrap();
            }
            Some(format!("flip {term}"))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A snapshot pinned before a writer step is frozen through it: same
    /// answers to the whole query battery, same profile content.
    #[test]
    fn pinned_snapshots_stay_frozen_through_every_mutation(
        ops in prop::collection::vec(0u32..u32::MAX, 4..8),
    ) {
        let PinnedBase { snapshot, queries, .. } = pinned_base();
        let mut cmdl = Cmdl::from_snapshot(snapshot.clone());
        for (step, &op) in ops.iter().enumerate() {
            let pinned = cmdl.snapshot();
            let answers = discovery_surface(&pinned, queries);
            let content: Vec<(DeId, BagOfWords)> = pinned
                .profiled
                .profiles
                .iter()
                .map(|(id, p)| (*id, p.content.clone()))
                .collect();

            let Some(name) = writer_step(&mut cmdl, step, op) else {
                continue;
            };

            prop_assert!(
                discovery_surface(&pinned, queries) == answers,
                "step {step} ({name}) changed a pinned answer"
            );
            for (id, before) in &content {
                prop_assert!(
                    &pinned.profiled.profile(*id).unwrap().content == before,
                    "step {step} ({name}) changed pinned profile {id:?}"
                );
            }
            if name.starts_with("flip") {
                // The flip really re-derived a document the snapshot still
                // holds in its old form.
                prop_assert!(
                    pinned.profiled.doc_ids.iter().any(|&id| {
                        cmdl.profiled.profile(id).map(|p| &p.content)
                            != pinned.profiled.profile(id).map(|p| &p.content)
                    }),
                    "step {step} ({name}) re-derived no document"
                );
            }
        }
    }
}
