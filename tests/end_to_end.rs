//! Workspace-level integration tests: the full CMDL pipeline over synthetic
//! lakes, cross-crate interactions, and the paper's qualitative claims at a
//! small scale.

use cmdl::core::{Cmdl, CmdlConfig, Hit, QueryBuilder, SearchMode};
use cmdl::datalake::benchmarks::{
    doc_to_table_benchmark, pkfk_benchmark, syntactic_join_benchmark, unionable_benchmark,
};
use cmdl::datalake::{synth, BenchmarkId, DeKind};
use cmdl::eval::{
    evaluate_doc2table, evaluate_join, evaluate_pkfk, evaluate_union, Doc2TableMethod,
    StructuredSystem,
};

/// Execute a query against the current generation and keep the hits.
fn hits(cmdl: &Cmdl, query: QueryBuilder) -> Vec<Hit> {
    cmdl.execute(&query.build()).expect("query executes").hits
}

fn pharma_system() -> (Cmdl, synth::SyntheticLake) {
    let synth_lake = synth::pharma::generate(&synth::pharma::PharmaConfig::tiny());
    let cmdl = Cmdl::build(synth_lake.lake.clone(), CmdlConfig::fast());
    (cmdl, synth_lake)
}

#[test]
fn full_pipeline_q1_to_q5_returns_planted_answers() {
    let (mut cmdl, synth_lake) = pharma_system();
    cmdl.train_joint(None);

    // Q1: keyword search over documents for an enzyme name.
    let enzyme = synth_lake
        .lake
        .table("Enzymes")
        .unwrap()
        .column("Target")
        .unwrap()
        .values[0]
        .as_text();
    let docs = hits(
        &cmdl,
        QueryBuilder::keyword(&enzyme)
            .mode(SearchMode::Text)
            .top_k(3),
    );
    assert!(!docs.is_empty(), "Q1 should return documents");
    for d in &docs {
        let kind = cmdl.profiled.profile(d.element.unwrap()).unwrap().kind;
        assert_eq!(kind, DeKind::Document);
    }

    // Q2: cross-modal search for the first document.
    let doc_idx = cmdl
        .profiled
        .lake
        .document_index(docs[0].element.unwrap())
        .unwrap();
    let tables = hits(&cmdl, QueryBuilder::cross_modal_doc(doc_idx).top_k(4));
    assert!(!tables.is_empty(), "Q2 should return tables");
    let expected = synth_lake.truth.tables_for_doc(doc_idx).unwrap();
    assert!(
        tables
            .iter()
            .any(|t| expected.contains(t.table.as_deref().unwrap_or(""))),
        "Q2 should hit at least one ground-truth table: got {:?}, expected {:?}",
        tables.iter().map(|t| &t.label).collect::<Vec<_>>(),
        expected
    );

    // Q4: joinable tables with Drugs must include an FK partner.
    let joins = hits(&cmdl, QueryBuilder::joinable("Drugs").top_k(4));
    let join_names: Vec<&str> = joins.iter().map(|j| j.label.as_str()).collect();
    assert!(
        join_names
            .iter()
            .any(|n| ["Enzyme_Targets", "Drug_Interactions", "Dosages", "Trials"].contains(n)),
        "Q4 should find a drug-key table, got {join_names:?}"
    );

    // Q5: unionable tables with Drugs should surface the planted projections.
    let unions: Vec<String> = hits(&cmdl, QueryBuilder::unionable("Drugs").top_k(5))
        .into_iter()
        .filter_map(|hit| hit.union.map(|u| u.table))
        .collect();
    assert!(
        unions
            .iter()
            .any(|t| t.starts_with("Drugs_proj_") || t == "Compounds" || t == "Chemical_Entities"),
        "Q5 should find projection or name-aligned tables, got {unions:?}"
    );
}

#[test]
fn cmdl_outperforms_schema_only_keyword_baseline_on_doc_to_table() {
    let (cmdl, synth_lake) = pharma_system();
    let benchmark = doc_to_table_benchmark(BenchmarkId::B1B, &synth_lake);
    let ks = [4, 8];
    let cmdl_eval = evaluate_doc2table(&cmdl, &benchmark, Doc2TableMethod::CmdlSolo, &ks);
    let schema_eval =
        evaluate_doc2table(&cmdl, &benchmark, Doc2TableMethod::ElasticSchemaOnly, &ks);
    let cmdl_recall: f64 = cmdl_eval.curve.iter().map(|p| p.recall).sum();
    let schema_recall: f64 = schema_eval.curve.iter().map(|p| p.recall).sum();
    assert!(
        cmdl_recall >= schema_recall,
        "CMDL ({cmdl_recall:.3}) should not lose to schema-only keyword search ({schema_recall:.3})"
    );
    assert!(cmdl_recall > 0.0);
}

#[test]
fn joint_training_does_not_degrade_below_random() {
    let (mut cmdl, synth_lake) = pharma_system();
    cmdl.train_joint(None);
    let benchmark = doc_to_table_benchmark(BenchmarkId::B1B, &synth_lake);
    let joint = evaluate_doc2table(&cmdl, &benchmark, Doc2TableMethod::CmdlJoint, &[6]);
    let point = joint.curve[0];
    // 6 of ~17 tables are related per query; random precision would be ~0.35.
    assert!(
        point.precision > 0.2,
        "joint model precision collapsed: {point:?}"
    );
}

#[test]
fn syntactic_join_containment_beats_jaccard_under_skew() {
    let (cmdl, synth_lake) = pharma_system();
    let benchmark = syntactic_join_benchmark(BenchmarkId::B2B, &synth_lake);
    let ours = evaluate_join(&cmdl, &benchmark, StructuredSystem::Cmdl);
    let aurum = evaluate_join(&cmdl, &benchmark, StructuredSystem::Aurum);
    let d3l = evaluate_join(&cmdl, &benchmark, StructuredSystem::D3l);
    assert!(ours.r_precision >= aurum.r_precision - 1e-9);
    assert!(ours.r_precision >= d3l.r_precision - 1e-9);
    assert!(
        ours.r_precision > 0.3,
        "CMDL join R-precision: {}",
        ours.r_precision
    );
}

#[test]
fn pkfk_recall_shape_matches_table_4() {
    let (cmdl, synth_lake) = pharma_system();
    let benchmark = pkfk_benchmark(BenchmarkId::B2D, &synth_lake);
    let ours = evaluate_pkfk(&cmdl, &benchmark, StructuredSystem::Cmdl);
    let aurum = evaluate_pkfk(&cmdl, &benchmark, StructuredSystem::Aurum);
    assert!(ours.recall >= aurum.recall);
    assert!(
        ours.recall > 0.4,
        "CMDL PK-FK recall too low: {}",
        ours.recall
    );
    // The paper reports CMDL trading precision for recall on DrugBank
    // (Table 4: 0.33 precision, 0.91 recall); symmetric 1:1 key coverage in
    // the synthetic lake produces reverse-direction false positives, so only
    // a loose lower bound is asserted here.
    assert!(
        ours.precision > 0.1,
        "CMDL PK-FK precision too low: {}",
        ours.precision
    );
}

#[test]
fn unionability_cmdl_and_d3l_beat_aurum_on_ukopen() {
    let synth_lake = synth::ukopen::generate(&synth::ukopen::UkOpenConfig::tiny());
    let benchmark = unionable_benchmark(BenchmarkId::B3A, &synth_lake);
    let cmdl = Cmdl::build(synth_lake.lake.clone(), CmdlConfig::fast());
    let ks = [3];
    let ours = evaluate_union(&cmdl, &benchmark, StructuredSystem::Cmdl, &ks, "ensemble");
    let aurum = evaluate_union(&cmdl, &benchmark, StructuredSystem::Aurum, &ks, "ensemble");
    assert!(
        ours.curve[0].recall >= aurum.curve[0].recall - 0.15,
        "CMDL union recall {} should be roughly >= Aurum {}",
        ours.curve[0].recall,
        aurum.curve[0].recall
    );
    assert!(ours.curve[0].recall > 0.2);
}

#[test]
fn bm25_heap_matches_exhaustive_on_pharma_lake() {
    // The optimized query path must return the same ranked set as the
    // pre-optimization exhaustive scorer over the real (synthetic pharma)
    // catalog, for every document-profile query.
    use cmdl::index::ScoringFunction;
    let (cmdl, _) = pharma_system();
    for doc_id in &cmdl.profiled.doc_ids {
        let profile = cmdl.profiled.profile(*doc_id).unwrap();
        for scoring in [
            ScoringFunction::default(),
            ScoringFunction::LmDirichlet { mu: 2000.0 },
        ] {
            let heap = cmdl
                .indexes
                .content
                .search_with(&profile.content, 10, scoring);
            let exhaustive = cmdl
                .indexes
                .content
                .search_exhaustive(&profile.content, 10, scoring);
            assert_eq!(heap.len(), exhaustive.len());
            for (h, e) in heap.iter().zip(exhaustive.iter()) {
                assert!(
                    (h.1 - e.1).abs() < 1e-9,
                    "ranked scores diverge for doc {doc_id:?}: {h:?} vs {e:?}"
                );
            }
        }
    }
}

#[test]
fn containment_probe_matches_brute_force_on_pharma_lake() {
    let (cmdl, _) = pharma_system();
    for doc_id in cmdl.profiled.doc_ids.iter().take(20) {
        let profile = cmdl.profiled.profile(*doc_id).unwrap();
        let probe = cmdl.indexes.containment.query_top_k(&profile.minhash, 10);
        let brute = cmdl
            .indexes
            .containment
            .query_top_k_brute(&profile.minhash, 10);
        assert_eq!(probe.len(), brute.len());
        for (p, b) in probe.iter().zip(brute.iter()) {
            assert!(
                (p.1 - b.1).abs() < 1e-9,
                "containment scores diverge for doc {doc_id:?}: {p:?} vs {b:?}"
            );
        }
    }
}

#[test]
fn kind_filtered_search_fills_top_k() {
    // The streaming kind filter must deliver `top_k` results whenever that
    // many elements of the kind match — the seed's over-fetch post-filter
    // could come up short under heavy filters.
    use cmdl::index::ScoringFunction;
    let (cmdl, _) = pharma_system();
    let doc_id = cmdl.profiled.doc_ids[0];
    let profile = cmdl.profiled.profile(doc_id).unwrap();
    let k = 15;
    let filtered = cmdl.indexes.content_search(
        &cmdl.profiled,
        &profile.content,
        Some(DeKind::Column),
        k,
        ScoringFunction::default(),
    );
    // Reference: exhaustively score everything, post-filter by kind.
    let all = cmdl.indexes.content.search_exhaustive(
        &profile.content,
        100_000,
        ScoringFunction::default(),
    );
    let expected = all
        .iter()
        .filter(|(id, _)| {
            cmdl.profiled
                .profile(cmdl::datalake::DeId(*id))
                .map(|p| p.kind == DeKind::Column)
                .unwrap_or(false)
        })
        .count()
        .min(k);
    assert_eq!(
        filtered.len(),
        expected,
        "kind-filtered search must fill top_k when enough columns match"
    );
}

#[test]
fn mlopen_lake_end_to_end_smoke() {
    let synth_lake = synth::mlopen(synth::MlOpenScale::Small);
    let cmdl = Cmdl::build(synth_lake.lake, CmdlConfig::fast());
    // Cross-modal search for a review document should surface its dataset's
    // split tables or the catalog.
    let results = hits(&cmdl, QueryBuilder::cross_modal_doc(0).top_k(3));
    assert!(!results.is_empty());
    let links = hits(&cmdl, QueryBuilder::pkfk().top_k(usize::MAX));
    assert!(
        links
            .iter()
            .filter_map(|hit| hit.pkfk.as_ref())
            .any(|l| l.pk_name.starts_with("dataset_catalog")),
        "catalog PK-FK links should be discovered"
    );
}
