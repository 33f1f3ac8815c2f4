//! Shared helpers for the workspace integration tests.

// Each test binary includes this module and uses a subset of it.
#![allow(dead_code)]

use std::collections::BTreeMap;

use cmdl::core::{CatalogSnapshot, DiscoveryQuery};
use cmdl::datalake::{DataLake, Document, Table};

/// A lake containing `tables` then `documents`, in order.
pub fn lake_of(name: &str, tables: &[Table], documents: &[Document]) -> DataLake {
    let mut lake = DataLake::new(name);
    for t in tables {
        lake.add_table(t.clone());
    }
    for d in documents {
        lake.add_document(d.clone());
    }
    lake
}

/// Execute `query` against `snapshot` and keep each hit's `(label, score)`,
/// the shape [`assert_result_parity`] compares. Panics if the query fails.
pub fn ranked(snapshot: &CatalogSnapshot, query: &DiscoveryQuery) -> Vec<(String, f64)> {
    snapshot
        .execute(query)
        .unwrap_or_else(|e| panic!("{} query failed: {e}", query.kind()))
        .hits
        .into_iter()
        .map(|hit| (hit.label, hit.score))
        .collect()
}

/// Assert that two ranked `(label, score)` result lists are identical modulo
/// reordering *within* exact score ties.
///
/// Scores are compared at 1e-9 resolution and must match pairwise. Labels
/// must match exactly within every tie group except the lowest-scoring one:
/// when `top_k` cuts through a group of exactly equal scores, which of the
/// tied elements survive is an arbitrary (but score-correct) choice, so only
/// the group's size is compared there.
pub fn assert_result_parity(tag: &str, a: &[(String, f64)], b: &[(String, f64)]) {
    assert_eq!(
        a.len(),
        b.len(),
        "{tag}: result counts differ ({} vs {})\n  a: {a:?}\n  b: {b:?}",
        a.len(),
        b.len()
    );
    let group = |list: &[(String, f64)]| -> BTreeMap<i64, Vec<String>> {
        let mut grouped: BTreeMap<i64, Vec<String>> = BTreeMap::new();
        for (label, score) in list {
            grouped
                .entry((score * 1e9).round() as i64)
                .or_default()
                .push(label.clone());
        }
        for labels in grouped.values_mut() {
            labels.sort();
        }
        grouped
    };
    let grouped_a = group(a);
    let grouped_b = group(b);
    let keys_a: Vec<i64> = grouped_a.keys().copied().collect();
    let keys_b: Vec<i64> = grouped_b.keys().copied().collect();
    assert_eq!(
        keys_a, keys_b,
        "{tag}: score sequences differ\n  a: {a:?}\n  b: {b:?}"
    );
    let boundary = keys_a.first().copied();
    for (score, labels_a) in &grouped_a {
        let labels_b = &grouped_b[score];
        assert_eq!(
            labels_a.len(),
            labels_b.len(),
            "{tag}: tie-group size differs at score {}",
            *score as f64 / 1e9
        );
        if Some(*score) != boundary {
            assert_eq!(
                labels_a,
                labels_b,
                "{tag}: labels differ at score {}",
                *score as f64 / 1e9
            );
        }
    }
}
