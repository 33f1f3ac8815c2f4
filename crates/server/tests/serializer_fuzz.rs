//! Round-trip fuzz of the zero-DOM streaming serializer on the service
//! wire contract: for arbitrary `ServiceResponse` envelopes — floats,
//! nested payloads, unicode strings, error subjects — the streamed bytes
//! must (a) be byte-identical to the DOM path and (b) parse back to the
//! same `Json` value the DOM path parses back to.

use proptest::prelude::*;

use cmdl_core::{
    DiscoveryQuery, ErrorCode, Hit, QueryBuilder, QueryResponse, ScoreBreakdown, SearchMode, Signal,
};
use cmdl_server::{BatchOutcome, ResponsePayload, ServiceError, ServiceResponse};
use serde::{Json, Serialize};

/// Splice non-ASCII/escape-heavy fragments into generated ASCII so the
/// fuzz covers multi-byte UTF-8, quotes, backslashes, and control chars
/// (the vendored proptest's string patterns are printable-ASCII only).
const SPICE: [&str; 8] = [
    "é",
    "wörld",
    "😀",
    "\n",
    "\t",
    "\"quoted\"",
    "back\\slash",
    "\u{1}ctl",
];

fn spiced_string(ascii: String, picks: Vec<usize>) -> String {
    let mut out = ascii;
    for p in picks {
        out.push_str(SPICE[p % SPICE.len()]);
    }
    out
}

fn signal_of(i: usize) -> Signal {
    const SIGNALS: [Signal; 6] = [
        Signal::Bm25,
        Signal::Containment,
        Signal::EmbeddingCosine,
        Signal::NameSimilarity,
        Signal::NumericOverlap,
        Signal::Uniqueness,
    ];
    SIGNALS[i % SIGNALS.len()]
}

fn code_of(i: usize) -> ErrorCode {
    ErrorCode::ALL[i % ErrorCode::ALL.len()]
}

/// A query with string payloads and float options (exercises enum
/// variants, nested options, and shortest-round-trip float rendering).
fn query_of(label: &str, kind: usize, min_score: f64, top_k: usize) -> DiscoveryQuery {
    match kind % 4 {
        0 => QueryBuilder::keyword(label)
            .mode(SearchMode::Tables)
            .min_score(min_score)
            .top_k(top_k.max(1))
            .build(),
        1 => QueryBuilder::cross_modal_text(label)
            .weight_embedding(min_score)
            .build(),
        2 => QueryBuilder::joinable(label).offset(top_k).build(),
        _ => QueryBuilder::pkfk().min_score(min_score).build(),
    }
}

fn hit_of(label: String, score: f64, signals: Vec<(usize, f64)>) -> Hit {
    let mut breakdown = ScoreBreakdown::default();
    for (s, v) in signals {
        breakdown.push(signal_of(s), v, v / 3.0);
    }
    Hit {
        element: None,
        table: Some(label.clone()),
        label,
        score,
        breakdown,
        pkfk: None,
        union: None,
    }
}

/// The DOM reference rendering: build the `Json` tree, then write it.
fn dom(response: &ServiceResponse) -> String {
    let mut out = String::new();
    serde::write_compact(&response.to_json(), &mut out);
    out
}

/// Every envelope checked three ways: byte equality against the DOM
/// encoder, and Json-tree equality after parsing both renderings back.
fn assert_roundtrip(response: &ServiceResponse) -> Result<(), TestCaseError> {
    let dom = dom(response);
    let mut streamed = String::new();
    serde_json::write_to_string(response, &mut streamed);
    prop_assert_eq!(&streamed, &dom);
    let parsed_stream: Json = parse_tree(&streamed)?;
    let parsed_dom: Json = parse_tree(&dom)?;
    prop_assert_eq!(parsed_stream, parsed_dom);
    // And the typed round trip still works off the streamed bytes.
    let back: ServiceResponse = serde_json::from_str(&streamed).expect("typed round-trip");
    prop_assert_eq!(&back, response);
    Ok(())
}

fn parse_tree(text: &str) -> Result<Json, TestCaseError> {
    serde_json::from_str_value(text).map_err(|e| TestCaseError::Fail(format!("parse failed: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn streamed_envelope_matches_dom(
        labels in prop::collection::vec("[ -~]{0,24}", 1..6),
        spice in prop::collection::vec(0usize..SPICE.len(), 0..6),
        scores in prop::collection::vec(-1.0e6f64..1.0e6, 1..8),
        kinds in prop::collection::vec(0usize..4, 1..5),
        top_k in 1usize..50,
        generation in 0u64..u64::MAX,
        elapsed in 0u64..10_000_000,
    ) {
        let labels: Vec<String> = labels
            .into_iter()
            .map(|l| spiced_string(l, spice.clone()))
            .collect();
        // A batch payload mixing successful query responses (nested hits,
        // floats, echoed queries) and typed errors.
        let mut outcomes = Vec::new();
        for (i, kind) in kinds.iter().enumerate() {
            let label = &labels[i % labels.len()];
            let query = query_of(label, *kind, scores[i % scores.len()] / 1e6, top_k);
            if i % 3 == 2 {
                outcomes.push(BatchOutcome {
                    response: None,
                    error: Some(ServiceError::with_subject(code_of(i), label.clone())),
                });
            } else {
                let hits = scores
                    .iter()
                    .enumerate()
                    .map(|(j, s)| hit_of(
                        labels[j % labels.len()].clone(),
                        *s,
                        vec![(j, s / 7.0), (j + 1, s * 0.1)],
                    ))
                    .collect();
                outcomes.push(BatchOutcome {
                    response: Some(QueryResponse {
                        query: query.clone(),
                        generation,
                        hits,
                        total_candidates: top_k,
                        elapsed_micros: elapsed,
                    }),
                    error: None,
                });
            }
        }
        assert_roundtrip(&ServiceResponse::success(ResponsePayload::QueryBatch(outcomes)))?;
    }

    #[test]
    fn streamed_errors_and_edge_floats_match_dom(
        subject in "[ -~]{0,40}",
        spice in prop::collection::vec(0usize..SPICE.len(), 0..8),
        code in 0usize..16,
    ) {
        let subject = spiced_string(subject, spice);
        assert_roundtrip(&ServiceResponse::failure(ServiceError::with_subject(
            code_of(code),
            subject.clone(),
        )))?;
        // Edge floats through a hit payload: negative zero, subnormals,
        // huge/tiny magnitudes, and non-finite values (rendered as null by
        // both encoders).
        for score in [
            0.0, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, 1e-300, -1e300,
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
        ] {
            let response = ServiceResponse::success(ResponsePayload::Query(QueryResponse {
                query: QueryBuilder::keyword(&subject).build(),
                generation: 7,
                hits: vec![hit_of(subject.clone(), score, vec![(0, score)])],
                total_candidates: 1,
                elapsed_micros: 3,
            }));
            let dom = dom(&response);
            let mut streamed = String::new();
            serde_json::write_to_string(&response, &mut streamed);
            prop_assert_eq!(&streamed, &dom);
            prop_assert_eq!(parse_tree(&streamed)?, parse_tree(&dom)?);
        }
    }
}
