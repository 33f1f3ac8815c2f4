//! Service-layer overhead and transport benchmarks: a closed-loop load
//! generator driving the in-process `CmdlService`, plus socket-level rows
//! for the epoll reactor.
//!
//! In-process rows (always emitted):
//!
//! 1. **Direct batched** — `snapshot.execute_many(&queries)`, no envelope
//!    (the in-crate ceiling).
//! 2. **Service single** — one `{"Query": …}` JSON request per query
//!    through `handle_json_bytes` (the per-request wire cost).
//! 3. **Service batched** — one `{"QueryBatch": […]}` JSON request for the
//!    whole workload (amortizing the envelope like a real serving batch).
//! 4. **Reactor cache hit** — the generation-keyed result cache answering
//!    the same workload from stored bytes (the repeated-dashboard-query
//!    path; CI enforces a >= 5x speedup over cold execution).
//!
//! Socket rows (skipped with a note when the sandbox denies loopback
//! binds):
//!
//! 5. **Open-loop latency** — `conns` keep-alive connections,
//!    Poisson-free fixed arrival schedule at `rate` req/s, latency
//!    measured from the *scheduled* send time (coordinated omission
//!    corrected), reported as p50/p99 + achieved QPS.
//! 6. **Saturation throughput** — closed-loop clients with the cache
//!    disabled, so the throughput comes from coalescing, not caching.
//! 7. **Idle connection capacity** — how many established keep-alive
//!    connections the reactor holds while still serving (parser state per
//!    connection instead of a thread).
//!
//! Emits `target/reports/server_load.json`; the CI `server-smoke` job
//! publishes it as `BENCH_server.json` and enforces the floors.

use std::sync::Arc;
use std::time::Instant;

use cmdl_bench::{build_system, emit, pharma_lake};
use cmdl_core::{DiscoveryQuery, QueryBuilder, SearchMode};
use cmdl_eval::{ExperimentReport, MethodResult};
use cmdl_server::reactor::cache::{CacheConfig, CacheOutcome, ResultCache};
use cmdl_server::{CmdlService, ServiceRequest};

/// The mixed discovery workload: keyword, cross-modal, join, union and
/// PK-FK queries.
fn workload(snapshot: &cmdl_core::CatalogSnapshot) -> Vec<DiscoveryQuery> {
    let lake = &snapshot.profiled.lake;
    let mut queries = Vec::new();
    let keyword_texts: Vec<String> = lake
        .tables()
        .iter()
        .take(10)
        .flat_map(|t| t.columns.first())
        .flat_map(|c| c.values.iter().take(12))
        .map(|v| v.as_text())
        .collect();
    for (i, text) in keyword_texts.iter().enumerate() {
        let mode = match i % 3 {
            0 => SearchMode::All,
            1 => SearchMode::Text,
            _ => SearchMode::Tables,
        };
        queries.push(QueryBuilder::keyword(text).mode(mode).top_k(10).build());
    }
    for doc in lake.documents().iter().take(25) {
        queries.push(QueryBuilder::cross_modal_text(&doc.title).top_k(5).build());
    }
    let table_names: Vec<String> = lake.tables().iter().map(|t| t.name.clone()).collect();
    for name in table_names.iter().take(12) {
        queries.push(QueryBuilder::joinable(name).top_k(5).build());
    }
    for name in table_names.iter().take(6) {
        queries.push(QueryBuilder::unionable(name).top_k(5).build());
    }
    queries.push(QueryBuilder::pkfk().top_k(20).build());
    queries
}

fn main() {
    let cmdl = build_system(pharma_lake().lake);
    let service = Arc::new(CmdlService::new(cmdl));
    let snapshot = service.snapshot();
    let queries = workload(&snapshot);
    let rounds = 9usize;

    // Pre-serialize the wire requests (a closed-loop client would reuse
    // buffers the same way; we are measuring the service, not the client).
    let single_requests: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| {
            serde_json::to_string(&ServiceRequest::Query(q.clone()))
                .expect("query serializes")
                .into_bytes()
        })
        .collect();
    let batch_request: Vec<u8> =
        serde_json::to_string(&ServiceRequest::QueryBatch(queries.clone()))
            .expect("batch serializes")
            .into_bytes();

    // Warm every path once.
    let _ = snapshot.execute_many(&queries);
    for request in &single_requests {
        let _ = service.handle_json_bytes(request);
    }
    let _ = service.handle_json_bytes(&batch_request);

    let mut direct_secs = f64::MAX;
    let mut single_secs = f64::MAX;
    let mut batched_secs = f64::MAX;
    for _ in 0..rounds {
        let start = Instant::now();
        let outcomes = snapshot.execute_many(&queries);
        direct_secs = direct_secs.min(start.elapsed().as_secs_f64());
        assert!(outcomes.iter().all(|o| o.is_ok()));

        let start = Instant::now();
        for request in &single_requests {
            let response = service.handle_json_bytes(request);
            assert!(!response.is_empty());
        }
        single_secs = single_secs.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let response = service.handle_json_bytes(&batch_request);
        batched_secs = batched_secs.min(start.elapsed().as_secs_f64());
        assert!(!response.is_empty());
    }

    // The generation-keyed result cache: the same workload answered from
    // stored bytes. This is what a reactor cache hit does — one xxh64,
    // one map probe, one `Arc` clone of the serialized envelope.
    let cache = ResultCache::new(CacheConfig::default());
    let generation = service.published_generation();
    for request in &single_requests {
        let body = service.handle_json_bytes(request);
        cache.insert(generation, request, 200, None, &body);
    }
    let mut hit_secs = f64::MAX;
    for _ in 0..rounds {
        let mut served_bytes = 0usize;
        let start = Instant::now();
        for request in &single_requests {
            match cache.lookup(generation, request) {
                CacheOutcome::Hit(hit) => served_bytes += hit.body.len(),
                CacheOutcome::Miss { .. } => unreachable!("cache holds the whole workload"),
            }
        }
        hit_secs = hit_secs.min(start.elapsed().as_secs_f64());
        assert!(served_bytes > 0);
    }

    let n = queries.len() as f64;
    let direct_qps = n / direct_secs;
    let single_qps = n / single_secs;
    let batched_qps = n / batched_secs;
    let hit_qps = n / hit_secs;

    let mut report = ExperimentReport::new(
        "Server Load",
        format!(
            "Closed-loop mixed Q1-Q5 workload of {} queries over the bench-scale pharma \
             lake: direct snapshot.execute_many vs the in-process CmdlService JSON wire \
             (per-query envelopes and one QueryBatch envelope) vs the reactor's \
             generation-keyed result cache, plus the epoll reactor's socket-level \
             open-loop latency, cache-disabled saturation throughput, and idle \
             keep-alive connection capacity. Best of {rounds} rounds for the \
             closed-loop rows.",
            queries.len(),
        ),
    );
    report.push(
        MethodResult::new("Direct execute_many")
            .with("Seconds", direct_secs)
            .with("Qps", direct_qps),
    );
    report.push(
        MethodResult::new("Service single requests")
            .with("Seconds", single_secs)
            .with("Qps", single_qps)
            .with("Overhead_vs_direct", direct_qps / single_qps),
    );
    report.push(
        MethodResult::new("Service batched request")
            .with("Seconds", batched_secs)
            .with("Qps", batched_qps)
            .with("Overhead_vs_direct", direct_qps / batched_qps)
            .with("Speedup_vs_single", batched_qps / single_qps),
    );
    report.push(
        MethodResult::new("Reactor cache hit")
            .with("Seconds", hit_secs)
            .with("Qps", hit_qps)
            .with("Speedup_vs_cold", hit_qps / single_qps),
    );

    #[cfg(target_os = "linux")]
    sockets::bench_transports(&service, &queries, &mut report);

    emit(&report);
}

/// Socket-level reactor benchmarks. Linux-only because the reactor's
/// epoll front end is.
#[cfg(target_os = "linux")]
mod sockets {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use cmdl_core::DiscoveryQuery;
    use cmdl_eval::MethodResult;
    use cmdl_server::reactor::cache::CacheConfig;
    use cmdl_server::{serve_reactor, CmdlService, ReactorConfig};

    const OPEN_LOOP_CONNS: usize = 32;
    const OPEN_LOOP_RATE: f64 = 400.0;
    const OPEN_LOOP_SECS: f64 = 2.5;
    const SATURATION_CONNS: usize = 8;
    const SATURATION_SECS: f64 = 2.0;
    const IDLE_TARGET: usize = 10_000;

    pub fn bench_transports(
        service: &Arc<CmdlService>,
        queries: &[DiscoveryQuery],
        report: &mut cmdl_eval::ExperimentReport,
    ) {
        let bodies: Vec<String> = queries
            .iter()
            .map(|q| serde_json::to_string(q).expect("query serializes"))
            .collect();

        // Cache disabled: the saturation row must show the coalescer's
        // throughput, not the cache's.
        let reactor_config = ReactorConfig {
            cache: CacheConfig {
                enabled: false,
                ..CacheConfig::default()
            },
            max_connections: IDLE_TARGET + 64,
            ..ReactorConfig::default()
        };
        let reactor = match serve_reactor(Arc::clone(service), reactor_config) {
            Ok(handle) => handle,
            Err(err) => {
                eprintln!("loopback bind denied ({err}); skipping socket transport rows");
                return;
            }
        };

        // Open-loop latency at a fixed arrival rate.
        let reactor_open = open_loop(reactor.addr(), OPEN_LOOP_CONNS, OPEN_LOOP_RATE, &bodies);
        report.push(
            MethodResult::new("Reactor open-loop")
                .with("Conns", OPEN_LOOP_CONNS as f64)
                .with("Rate_per_sec", OPEN_LOOP_RATE)
                .with("P50_micros", reactor_open.p50 as f64)
                .with("P99_micros", reactor_open.p99 as f64)
                .with("Qps", reactor_open.qps),
        );

        // Saturation throughput: closed-loop clients, cache disabled.
        let reactor_sat = saturate(reactor.addr(), SATURATION_CONNS, &bodies);
        let coalesced = service.metrics().coalesce_queries_total() as f64;
        let batches = service.metrics().coalesce_batches_total().max(1) as f64;
        report.push(
            MethodResult::new("Reactor saturation")
                .with("Conns", SATURATION_CONNS as f64)
                .with("Qps", reactor_sat)
                .with("Mean_coalesce_batch", coalesced / batches),
        );

        // Idle keep-alive capacity: the reactor holds a parser struct per
        // connection, not a thread.
        let reactor_capacity = reactor_idle_capacity(reactor.addr());
        report.push(
            MethodResult::new("Idle connection capacity")
                .with("Reactor_conns", reactor_capacity as f64),
        );
        reactor.shutdown();
    }

    struct OpenLoopOutcome {
        p50: u64,
        p99: u64,
        qps: f64,
    }

    /// `conns` keep-alive connections, each issuing requests on a fixed
    /// arrival schedule of `rate / conns` per second. Latency is measured
    /// from the *scheduled* send time, so server-side queueing delay is
    /// charged to the server (no coordinated omission).
    fn open_loop(addr: SocketAddr, conns: usize, rate: f64, bodies: &[String]) -> OpenLoopOutcome {
        let interval = Duration::from_secs_f64(conns as f64 / rate);
        let per_conn = ((rate * OPEN_LOOP_SECS) / conns as f64).ceil() as usize;
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let bodies = bodies.to_vec();
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let start = Instant::now();
                    let mut latencies = Vec::with_capacity(per_conn);
                    for i in 0..per_conn {
                        let scheduled = start + interval.mul_f64(i as f64);
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let body = &bodies[(c + i) % bodies.len()];
                        post_query(&mut stream, &mut reader, body);
                        latencies.push(scheduled.elapsed().as_micros() as u64);
                    }
                    latencies
                })
            })
            .collect();
        let started = Instant::now();
        let mut latencies: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        let wall = started.elapsed().as_secs_f64().max(1e-9);
        latencies.sort_unstable();
        let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
        OpenLoopOutcome {
            p50: pct(0.50),
            p99: pct(0.99),
            qps: latencies.len() as f64 / wall,
        }
    }

    /// Closed-loop saturation: `conns` clients send back-to-back for a
    /// fixed window; returns achieved QPS.
    fn saturate(addr: SocketAddr, conns: usize, bodies: &[String]) -> f64 {
        let total = Arc::new(AtomicUsize::new(0));
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(SATURATION_SECS);
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let bodies = bodies.to_vec();
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        post_query(&mut stream, &mut reader, &bodies[(c + i) % bodies.len()]);
                        total.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
        total.load(Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
    }

    /// Open keep-alive connections against the reactor until the file
    /// descriptor budget runs out, verifying liveness along the way.
    fn reactor_idle_capacity(addr: SocketAddr) -> usize {
        // Each held connection costs two descriptors (client + server end
        // in this one process); leave headroom for everything else.
        let limit = raise_nofile_limit();
        let target = IDLE_TARGET.min(((limit.saturating_sub(512)) / 2) as usize);
        let mut held = Vec::with_capacity(target);
        for i in 0..target {
            match TcpStream::connect(addr) {
                Ok(stream) => held.push(stream),
                Err(err) => {
                    eprintln!("idle-capacity connect stopped at {i}: {err}");
                    break;
                }
            }
            // Pace the storm so the listener backlog never overflows, and
            // prove the newest connection is actually being served.
            if i % 512 == 0 {
                let stream = held.last_mut().expect("just pushed");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                get_healthz(stream, &mut reader);
            }
        }
        // Every connection is still established; prove the ends are live.
        for probe in [0, held.len() / 2, held.len() - 1] {
            let stream = &mut held[probe];
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            get_healthz(stream, &mut reader);
        }
        held.len()
    }

    fn post_query<R: BufRead>(stream: &mut TcpStream, reader: &mut R, body: &str) {
        let request = format!(
            "POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("write request");
        let (status, len) = read_response(reader).expect("response");
        assert_eq!(status, 200, "query must succeed under load");
        assert!(len > 0);
    }

    fn get_healthz<R: BufRead>(stream: &mut TcpStream, reader: &mut R) {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n")
            .expect("write healthz");
        let (status, _) = read_response(reader).expect("healthz response");
        assert_eq!(status, 200);
    }

    /// Read one framed response, returning (status, body length). `None`
    /// on any read failure (timeout, reset, EOF).
    fn read_response<R: BufRead>(reader: &mut R) -> Option<(u16, usize)> {
        let mut status_line = String::new();
        if reader.read_line(&mut status_line).ok()? == 0 {
            return None;
        }
        let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header).ok()? == 0 {
                return None;
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().ok()?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).ok()?;
        Some((status, content_length))
    }

    // -- RLIMIT_NOFILE ------------------------------------------------------

    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    /// Raise the soft file-descriptor limit to the hard limit and return
    /// the resulting soft limit (the default soft limit of 1024 would cap
    /// the idle-capacity measurement at ~256 connections).
    fn raise_nofile_limit() -> u64 {
        let mut limit = RLimit { cur: 0, max: 0 };
        // SAFETY: plain struct out-parameter syscall wrappers from the C
        // runtime std already links.
        unsafe {
            if getrlimit(RLIMIT_NOFILE, &mut limit) != 0 {
                return 1024;
            }
            if limit.cur < limit.max {
                let raised = RLimit {
                    cur: limit.max,
                    max: limit.max,
                };
                if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
                    limit.cur = limit.max;
                }
            }
        }
        limit.cur
    }
}
