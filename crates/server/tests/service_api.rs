//! In-process (socket-free) wire-contract tests: JSON bytes in → handler →
//! JSON bytes out for **every** `ServiceRequest` variant, including at
//! least one stable-error-code case per mutating endpoint.

use cmdl_core::{Cmdl, CmdlConfig, ErrorCode, QueryBuilder};
use cmdl_datalake::{synth, Column, Document, Table};
use cmdl_server::{route_envelope, CmdlService, ResponsePayload, ServiceRequest, ServiceResponse};

fn service() -> CmdlService {
    let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
    CmdlService::new(Cmdl::build(lake, CmdlConfig::fast()))
}

/// Serialize a request, push the bytes through the handler, parse the bytes
/// that come back.
fn round_trip(service: &CmdlService, request: &ServiceRequest) -> ServiceResponse {
    let request_json = serde_json::to_string(request).expect("request serializes");
    let response_bytes = service.handle_json_bytes(request_json.as_bytes());
    let response_json = std::str::from_utf8(&response_bytes).expect("response is UTF-8");
    serde_json::from_str(response_json).expect("response parses back")
}

fn expect_payload(response: &ServiceResponse) -> &ResponsePayload {
    assert!(response.ok, "expected success, got {:?}", response.error);
    assert!(response.error.is_none());
    response.payload.as_ref().expect("ok implies payload")
}

fn expect_code(response: &ServiceResponse, code: ErrorCode) {
    assert!(!response.ok, "expected failure, got {:?}", response.payload);
    assert!(response.payload.is_none());
    assert_eq!(response.error_code(), Some(code));
}

#[test]
fn query_round_trips_and_rejects_invalid() {
    let service = service();
    let ok = round_trip(
        &service,
        &ServiceRequest::Query(QueryBuilder::keyword("drug").top_k(5).build()),
    );
    match expect_payload(&ok) {
        ResponsePayload::Query(inner) => {
            assert!(!inner.hits.is_empty());
            assert_eq!(inner.generation, 0);
        }
        other => panic!("wrong payload: {other:?}"),
    }

    let invalid = round_trip(
        &service,
        &ServiceRequest::Query(QueryBuilder::keyword("drug").top_k(0).build()),
    );
    expect_code(&invalid, ErrorCode::InvalidQuery);

    let missing = round_trip(
        &service,
        &ServiceRequest::Query(QueryBuilder::joinable("NoSuch").build()),
    );
    expect_code(&missing, ErrorCode::UnknownTable);
}

#[test]
fn query_batch_round_trips_with_per_query_outcomes() {
    let service = service();
    let response = round_trip(
        &service,
        &ServiceRequest::QueryBatch(vec![
            QueryBuilder::keyword("drug").top_k(3).build(),
            QueryBuilder::joinable("NoSuch").build(),
            QueryBuilder::pkfk().top_k(3).build(),
        ]),
    );
    match expect_payload(&response) {
        ResponsePayload::QueryBatch(outcomes) => {
            assert_eq!(outcomes.len(), 3);
            assert!(outcomes[0].response.is_some() && outcomes[0].error.is_none());
            let error = outcomes[1].error.as_ref().expect("per-query failure kept");
            assert_eq!(error.code, ErrorCode::UnknownTable);
            assert_eq!(error.subject.as_deref(), Some("NoSuch"));
            assert!(outcomes[2].response.is_some());
            // One pinned snapshot for the whole batch.
            let generations: Vec<u64> = outcomes
                .iter()
                .filter_map(|o| o.response.as_ref())
                .map(|r| r.generation)
                .collect();
            assert!(generations.windows(2).all(|w| w[0] == w[1]));
        }
        other => panic!("wrong payload: {other:?}"),
    }
}

#[test]
fn ingest_table_round_trips_and_duplicate_is_conflict() {
    let service = service();
    let table = Table::new(
        "Wire_Trials",
        vec![Column::from_texts("Site", ["Boston", "Lyon", "Osaka"])],
    );
    let ok = round_trip(&service, &ServiceRequest::IngestTable(table.clone()));
    match expect_payload(&ok) {
        ResponsePayload::IngestedTable { generation, .. } => assert!(*generation > 0),
        other => panic!("wrong payload: {other:?}"),
    }
    // The ingested table is immediately discoverable through the service.
    let hits = round_trip(
        &service,
        &ServiceRequest::Query(QueryBuilder::keyword("Lyon").top_k(5).build()),
    );
    match expect_payload(&hits) {
        ResponsePayload::Query(inner) => assert!(inner
            .hits
            .iter()
            .any(|h| h.table.as_deref() == Some("Wire_Trials"))),
        other => panic!("wrong payload: {other:?}"),
    }

    // Error case: duplicate live name.
    let dup = round_trip(&service, &ServiceRequest::IngestTable(table));
    expect_code(&dup, ErrorCode::DuplicateTable);
    assert_eq!(
        dup.error.as_ref().unwrap().subject.as_deref(),
        Some("Wire_Trials")
    );
}

#[test]
fn ingest_document_round_trips_and_malformed_body_is_rejected() {
    let service = service();
    let ok = round_trip(
        &service,
        &ServiceRequest::IngestDocument(Document::new(
            "wire-note",
            "PubMed",
            "Febuxostat potently inhibits xanthine oxidase.",
        )),
    );
    match expect_payload(&ok) {
        ResponsePayload::IngestedDocument { generation, .. } => assert!(*generation > 0),
        other => panic!("wrong payload: {other:?}"),
    }

    // Error case: a payload that is not a Document.
    let bad = service.handle_json_bytes(br#"{"IngestDocument": 42}"#);
    let bad: ServiceResponse = serde_json::from_str(std::str::from_utf8(&bad).unwrap()).unwrap();
    expect_code(&bad, ErrorCode::MalformedRequest);
}

#[test]
fn remove_table_round_trips_and_unknown_is_not_found() {
    let service = service();
    let ok = round_trip(
        &service,
        &ServiceRequest::RemoveTable {
            name: "Enzymes".into(),
        },
    );
    match expect_payload(&ok) {
        ResponsePayload::RemovedTable {
            elements,
            generation,
        } => {
            assert!(*elements > 0);
            assert!(*generation > 0);
        }
        other => panic!("wrong payload: {other:?}"),
    }

    // Error case: removing it again.
    let gone = round_trip(
        &service,
        &ServiceRequest::RemoveTable {
            name: "Enzymes".into(),
        },
    );
    expect_code(&gone, ErrorCode::UnknownTable);
    assert_eq!(
        gone.error.as_ref().unwrap().subject.as_deref(),
        Some("Enzymes")
    );
}

#[test]
fn remove_document_round_trips_and_unknown_is_not_found() {
    let service = service();
    let ok = round_trip(&service, &ServiceRequest::RemoveDocument { index: 0 });
    match expect_payload(&ok) {
        ResponsePayload::RemovedDocument { generation } => assert!(*generation > 0),
        other => panic!("wrong payload: {other:?}"),
    }

    // Error case: the slot is already tombstoned.
    let gone = round_trip(&service, &ServiceRequest::RemoveDocument { index: 0 });
    expect_code(&gone, ErrorCode::UnknownDocument);
}

#[test]
fn compact_round_trips_and_unknown_variant_is_malformed() {
    let service = service();
    round_trip(
        &service,
        &ServiceRequest::RemoveTable {
            name: "Dosages".into(),
        },
    );
    let ok = round_trip(&service, &ServiceRequest::Compact);
    let generation = match expect_payload(&ok) {
        ResponsePayload::Compacted { generation } => *generation,
        other => panic!("wrong payload: {other:?}"),
    };
    assert!(generation > 0);
    // Compaction folded the tombstones: pressure back to zero.
    let stats = round_trip(&service, &ServiceRequest::Stats);
    match expect_payload(&stats) {
        ResponsePayload::Stats(stats) => {
            assert_eq!(stats.generation, generation);
            assert_eq!(stats.delta_pressure, 0.0);
        }
        other => panic!("wrong payload: {other:?}"),
    }

    // Error case: an unknown admin verb never reaches a handler.
    let bad = service.handle_json_bytes(br#""Compactt""#);
    let bad: ServiceResponse = serde_json::from_str(std::str::from_utf8(&bad).unwrap()).unwrap();
    expect_code(&bad, ErrorCode::MalformedRequest);
}

#[test]
fn stats_round_trips_with_lake_cardinalities() {
    let service = service();
    let response = round_trip(&service, &ServiceRequest::Stats);
    match expect_payload(&response) {
        ResponsePayload::Stats(stats) => {
            assert_eq!(stats.generation, 0);
            assert!(stats.tables > 0);
            assert!(stats.documents > 0);
            assert!(stats.columns > 0);
            assert!(!stats.joint_trained);
            assert!(stats.index_sizes.content > 0);
            assert_eq!(stats.delta_pressure, 0.0);
        }
        other => panic!("wrong payload: {other:?}"),
    }
}

#[test]
fn health_round_trips() {
    let service = service();
    let response = round_trip(&service, &ServiceRequest::Health);
    match expect_payload(&response) {
        ResponsePayload::Health(report) => {
            assert_eq!(report.status, "ok");
            assert_eq!(report.generation, 0);
        }
        other => panic!("wrong payload: {other:?}"),
    }
}

#[test]
fn recover_route_and_envelope_round_trip() {
    // The HTTP router maps the admin endpoint to the Recover envelope.
    assert_eq!(
        route_envelope("POST", "/admin/recover", "").as_deref(),
        Some("\"Recover\"")
    );
    // A healthy gate answers it as a no-op success.
    let response = round_trip(&service(), &ServiceRequest::Recover);
    match expect_payload(&response) {
        ResponsePayload::Recovered {
            generation,
            was_wedged,
        } => {
            assert_eq!(*generation, 0);
            assert!(!was_wedged);
        }
        other => panic!("wrong payload: {other:?}"),
    }
}

#[test]
fn metrics_count_the_wire_traffic() {
    let service = service();
    round_trip(&service, &ServiceRequest::Health);
    round_trip(
        &service,
        &ServiceRequest::Query(QueryBuilder::keyword("drug").build()),
    );
    round_trip(
        &service,
        &ServiceRequest::RemoveTable {
            name: "NoSuch".into(),
        },
    );
    let text = service.render_metrics();
    assert!(
        text.contains("cmdl_requests_total{kind=\"health\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("cmdl_requests_total{kind=\"query\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("cmdl_requests_total{kind=\"remove_table\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("cmdl_errors_total{code=\"unknown_table\"} 1"),
        "{text}"
    );
    assert!(text.contains("cmdl_snapshot_generation 0"), "{text}");
}
