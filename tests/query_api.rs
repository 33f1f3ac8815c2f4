//! Contract tests for the unified `DiscoveryQuery` API.
//!
//! Three families of guarantees, per the API redesign:
//!
//! 1. **Pagination**: on the exact surfaces (keyword, joinable, unionable,
//!    PK-FK) concatenated pages equal the un-paginated top-k, for any page
//!    size.
//! 2. **Filter pushdown**: the kind/mode scope filter evaluated inside the
//!    index scan returns the same results as brute-force post-filtering an
//!    unscoped search.
//! 3. **Batch parity**: `execute_many` matches sequential `execute`.
//!
//! Plus serde round-trips of the wire envelope.

mod common;

use std::sync::OnceLock;

use proptest::prelude::*;

use cmdl::core::{
    Cmdl, CmdlConfig, CrossModalStrategy, DiscoveryQuery, DocQuery, QueryBuilder, SearchMode,
};
use cmdl::datalake::synth;

/// One shared system (built once): proptest runs many cases, and the lake
/// build dominates the cost of each.
fn system() -> &'static Cmdl {
    static SYSTEM: OnceLock<Cmdl> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        Cmdl::build(lake, CmdlConfig::fast())
    })
}

/// The exact (probe-depth-independent) query kinds, parameterized by top_k.
fn exact_queries(top_k: usize) -> Vec<DiscoveryQuery> {
    vec![
        QueryBuilder::keyword("drug enzyme inhibitor")
            .mode(SearchMode::All)
            .top_k(top_k)
            .build(),
        QueryBuilder::keyword("trial dose")
            .mode(SearchMode::Tables)
            .top_k(top_k)
            .build(),
        QueryBuilder::joinable("Drugs").top_k(top_k).build(),
        QueryBuilder::joinable_column("Drugs", "Id")
            .top_k(top_k)
            .build(),
        QueryBuilder::unionable("Drugs").top_k(top_k).build(),
        QueryBuilder::pkfk().top_k(top_k).build(),
    ]
}

fn labels_and_scores(hits: &[cmdl::core::Hit]) -> Vec<(String, f64)> {
    hits.iter().map(|h| (h.label.clone(), h.score)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Pages concatenated equal the un-paginated top-k on every exact
    /// surface, for arbitrary page sizes.
    #[test]
    fn paginated_pages_concatenate_to_topk(top_k in 1usize..25, page in 1usize..8) {
        let snap = system().snapshot();
        for query in exact_queries(top_k) {
            let full = snap.execute(&query).unwrap();
            let mut paged: Vec<(String, f64)> = Vec::new();
            let mut offset = 0usize;
            while paged.len() < full.hits.len() {
                let mut q = query.clone();
                match &mut q {
                    DiscoveryQuery::Keyword { options, .. }
                    | DiscoveryQuery::CrossModalDoc { options, .. }
                    | DiscoveryQuery::CrossModalText { options, .. }
                    | DiscoveryQuery::DocToTable { options, .. }
                    | DiscoveryQuery::JoinableTable { options, .. }
                    | DiscoveryQuery::JoinableColumn { options, .. }
                    | DiscoveryQuery::Unionable { options, .. }
                    | DiscoveryQuery::PkFk { options } => {
                        options.top_k = page.min(full.hits.len() - paged.len());
                        options.offset = offset;
                    }
                }
                let response = snap.execute(&q).unwrap();
                prop_assert!(
                    !response.hits.is_empty(),
                    "page at offset {offset} empty for {} while {} hits remain",
                    query.kind(),
                    full.hits.len() - paged.len()
                );
                paged.extend(labels_and_scores(&response.hits));
                offset += response.hits.len();
            }
            let expected = labels_and_scores(&full.hits);
            prop_assert!(
                paged == expected,
                "concatenated pages diverge for {} (top_k {top_k}, page {page}): {paged:?} vs {expected:?}",
                query.kind()
            );
        }
    }

    /// (b) The pushed-down mode filter matches brute-force post-filtering of
    /// an unscoped search (modulo reordering inside exact score ties).
    #[test]
    fn mode_filter_matches_brute_force(top_k in 1usize..20) {
        let snap = system().snapshot();
        let total = snap.profiled.len();
        for query_text in ["drug", "enzyme inhibitor", "trial patient dose"] {
            for (mode, kind) in [
                (SearchMode::Text, cmdl::datalake::DeKind::Document),
                (SearchMode::Tables, cmdl::datalake::DeKind::Column),
            ] {
                let pushed = common::ranked(
                    &snap,
                    &QueryBuilder::keyword(query_text).mode(mode).top_k(top_k).build(),
                );
                // Brute force: fetch everything unscoped, post-filter by
                // kind, truncate.
                let brute: Vec<(String, f64)> = snap
                    .execute(&QueryBuilder::keyword(query_text).top_k(total).build())
                    .unwrap()
                    .hits
                    .into_iter()
                    .filter(|hit| {
                        hit.element
                            .and_then(|id| snap.profiled.profile(id))
                            .map(|p| p.kind == kind)
                            .unwrap_or(false)
                    })
                    .take(top_k)
                    .map(|hit| (hit.label, hit.score))
                    .collect();
                common::assert_result_parity(
                    &format!("pushdown[{query_text}][{mode:?}]"),
                    &brute,
                    &pushed,
                );
            }
        }
    }

    /// Thresholding is exactly a filter of the unthresholded ranking.
    #[test]
    fn min_score_is_a_pure_filter(top_k in 1usize..20, threshold in 0.0f64..1.0) {
        let snap = system().snapshot();
        for query in exact_queries(top_k) {
            let unthresholded = snap.execute(&query).unwrap();
            let mut q = query.clone();
            match &mut q {
                DiscoveryQuery::Keyword { options, .. }
                | DiscoveryQuery::CrossModalDoc { options, .. }
                | DiscoveryQuery::CrossModalText { options, .. }
                | DiscoveryQuery::DocToTable { options, .. }
                | DiscoveryQuery::JoinableTable { options, .. }
                | DiscoveryQuery::JoinableColumn { options, .. }
                | DiscoveryQuery::Unionable { options, .. }
                | DiscoveryQuery::PkFk { options } => options.min_score = threshold,
            }
            let thresholded = snap.execute(&q).unwrap();
            let expected: Vec<(String, f64)> = labels_and_scores(&unthresholded.hits)
                .into_iter()
                .filter(|(_, score)| *score >= threshold)
                .collect();
            let actual = labels_and_scores(&thresholded.hits);
            prop_assert!(
                actual == expected,
                "min_score {threshold} is not a pure filter for {}: {actual:?} vs {expected:?}",
                query.kind()
            );
            prop_assert!(thresholded.hits.iter().all(|h| h.score >= threshold));
        }
    }
}

/// Batched execution returns exactly the per-query results, in input order,
/// and per-query failures do not poison the batch.
#[test]
fn execute_many_matches_sequential() {
    let snap = system().snapshot();
    let mut queries = exact_queries(6);
    queries.push(
        QueryBuilder::cross_modal_text("antifolate agent")
            .top_k(4)
            .build(),
    );
    queries.push(QueryBuilder::joinable("NoSuchTable").top_k(4).build());
    let batched = snap.execute_many(&queries);
    assert_eq!(batched.len(), queries.len());
    for (query, outcome) in queries.iter().zip(&batched) {
        match (outcome, snap.execute(query)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.hits, b.hits, "batched hits diverge for {}", query.kind());
                assert_eq!(a.generation, b.generation);
                assert_eq!(a.total_candidates, b.total_candidates);
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string());
            }
            (a, b) => panic!("divergent outcomes for {}: {a:?} vs {b:?}", query.kind()),
        }
    }
}

/// The request and response envelope round-trip through serde_json.
#[test]
fn envelope_roundtrips_through_serde_json() {
    let snap = system().snapshot();
    let mut queries = exact_queries(4);
    queries.push(QueryBuilder::cross_modal_text("enzyme").top_k(3).build());
    queries.push(
        QueryBuilder::doc_to_table(DocQuery::Document(0), CrossModalStrategy::SoloEmbedding)
            .top_k(3)
            .offset(1)
            .min_score(0.05)
            .weight_containment(0.4)
            .build(),
    );
    for query in queries {
        let query_json = serde_json::to_string(&query).unwrap();
        let query_back: DiscoveryQuery = serde_json::from_str(&query_json).unwrap();
        assert_eq!(query_back, query, "query round-trip");

        let response = snap.execute(&query).unwrap();
        let json = serde_json::to_string(&response).unwrap();
        let back: cmdl::core::QueryResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, response, "response round-trip for {}", query.kind());
    }
}

/// Offsets beyond the result set yield empty pages, and the page is always
/// full while hits remain.
#[test]
fn offset_beyond_end_is_empty() {
    let snap = system().snapshot();
    let response = snap
        .execute(
            &QueryBuilder::joinable("Drugs")
                .top_k(5)
                .offset(10_000)
                .build(),
        )
        .unwrap();
    assert!(response.hits.is_empty());
    assert!(response.total_candidates <= 10_005);
}
