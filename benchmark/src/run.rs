//! One run of one workload: set-up, warm-up, saturation phase, rate phase,
//! verification — or, traced, a short saturation phase, the per-depth
//! replay and the kernel probes.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmdl_core::CatalogSnapshot;

use crate::client::{closed_loop, open_loop, Connection, LaneStats, Window};
use crate::layers::{front_end_kernels, kernel_metrics, LayerMetrics};
use crate::report::{end_to_end, measured, per_layer, RunReport};
use crate::scrape::Scrape;
use crate::setup::{set_up, Scale, Served};
use crate::stats::{median, percentile, Summary};
use crate::trace::Trace;
use crate::verify::{verify, TruthSample, Verified};
use crate::workload::{
    dashboard_requests, read_stream, Kind, MutationStream, Request, RequestSource, Workload,
    MUTATION_RATE,
};

/// Client connections (the reference box has two cores; the count is part
/// of the frozen benchmark, not a function of the machine).
pub const CONNECTIONS: usize = 2;
/// Callers sharing one connection in the saturation phase.
pub const PIPELINE_DEPTH: usize = 8;
/// A rate phase is void when its generator ran later than this at p95 —
/// or, where the median latency is above 10 ms, later than a tenth of it:
/// on a box whose cores the server saturates, a woken sender can wait a
/// scheduler slice, which is noise against a 30 ms request and not against
/// a 1 ms one.
pub const LATENESS_LIMIT_US: f64 = 1000.0;
/// The saturation phase's share of the measured seconds; the rate phase
/// gets the rest (it is the one whose percentiles need the samples).
const SATURATION_SHARE: f64 = 0.3;
/// Time between deciding a phase's window and its first request.
const LEAD: Duration = Duration::from_millis(20);

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Measured seconds (saturation and rate phases together).
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Full size or smoke.
    pub scale: Scale,
    /// The truth sample of the verification pass.
    pub truth: TruthSample,
    /// A directory inside the checkout for catalogs and trace files.
    pub out_dir: PathBuf,
}

/// The lanes of a phase: the read streams and, on the writing workload,
/// the mutation stream, each with its own connection.
struct Lanes {
    reads: Vec<Box<dyn RequestSource>>,
    writes: Option<MutationStream>,
}

impl Lanes {
    fn new(workload: Workload, served: &Served, seed: u64) -> Self {
        // The writing workload spends its second connection on mutations.
        let read_lanes = if workload.writes() {
            CONNECTIONS - 1
        } else {
            CONNECTIONS
        };
        Self {
            reads: (0..read_lanes)
                .map(|lane| read_stream(workload, &served.lake, seed, lane))
                .collect(),
            writes: workload
                .writes()
                .then(|| MutationStream::new(Arc::clone(&served.lake))),
        }
    }

    /// Run one phase: read lane `i` through `read(i, source)`, the write
    /// lane on its fixed schedule, all over the same window. Returns
    /// (reads, writes).
    fn run(
        &mut self,
        addr: SocketAddr,
        window: Window,
        read: impl Fn(usize, &mut dyn RequestSource) -> LaneStats + Sync,
    ) -> (LaneStats, LaneStats) {
        let read = &read;
        std::thread::scope(|scope| {
            let readers: Vec<_> = self
                .reads
                .iter_mut()
                .enumerate()
                .map(|(lane, source)| scope.spawn(move || read(lane, source.as_mut())))
                .collect();
            let writer = self.writes.as_mut().map(|source| {
                scope.spawn(move || open_loop(addr, source, MUTATION_RATE, Duration::ZERO, window))
            });
            let mut reads = LaneStats::default();
            for reader in readers {
                reads.merge(reader.join().expect("read lane panicked"));
            }
            let writes = writer.map_or_else(LaneStats::default, |w| {
                w.join().expect("write lane panicked")
            });
            (reads, writes)
        })
    }
}

fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn catalog_dir(options: &RunOptions, attempt: usize) -> Option<PathBuf> {
    options.workload.writes().then(|| {
        options
            .out_dir
            .join(format!("catalog-{}-{attempt}", std::process::id()))
    })
}

fn header_notes(options: &RunOptions, served: &Served) -> Vec<String> {
    let sizes = options.scale.sizes;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!(
            "commit {}, nproc {nproc}, {CONNECTIONS} connections, pipeline depth {PIPELINE_DEPTH}",
            std::env::var("CMDL_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())
        ),
        format!(
            "lake: {} tables ({} families x {}, 8 columns, {} rows), {} documents, digest {:016x}",
            sizes.tables(),
            sizes.families,
            sizes.members,
            sizes.rows,
            sizes.documents,
            served.lake.digest()
        ),
        format!(
            "set-up: generate {:.3} s, build {:.3} s, train {:.3} s, open {:.3} s, bind {:.4} s",
            served.timings.generate_s,
            served.timings.build_s,
            served.timings.train_s,
            served.timings.open_s,
            served.timings.bind_s
        ),
    ]
}

/// The dashboard's working set must be resident before timing starts —
/// that is the workload's premise — so each fixed request is sent once.
fn preload(workload: Workload, served: &Served, seed: u64) -> LaneStats {
    if workload != Workload::RepeatDashboard {
        return LaneStats::default();
    }
    let Ok(mut connection) = Connection::open(served.addr) else {
        return LaneStats::unreachable();
    };
    let mut stats = LaneStats::default();
    for request in dashboard_requests(&served.lake, seed) {
        stats.attempted += 1;
        let answered = connection.round_trip(request.path, request.body.as_bytes());
        stats.failed += u64::from(!answered.is_ok_and(|r| r.is_ok()));
    }
    stats
}

/// Run the workload and report.
pub fn run(options: &RunOptions) -> Result<RunReport, String> {
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("creating {}: {e}", options.out_dir.display()))?;
    if options.trace {
        // On a spawned thread, as the server's executors are: on glibc a
        // non-main thread allocates from its own arena, which makes the
        // allocation-heavy join and union kernels about 12 % slower than the
        // same call on the main thread. Probing from the main thread would
        // book that difference as front-end time.
        std::thread::scope(|scope| {
            scope
                .spawn(|| run_traced(options))
                .join()
                .unwrap_or_else(|_| Err("the traced run panicked".into()))
        })
    } else {
        run_untraced(options)
    }
}

fn run_untraced(options: &RunOptions) -> Result<RunReport, String> {
    let (workload, seed) = (options.workload, options.seed);
    let served = set_up(
        seed,
        options.scale.sizes,
        catalog_dir(options, 0).as_deref(),
    )?;
    let mut setup_times = vec![served.timings.total_s()];
    let rss_after_setup = rss_peak_mb();
    let mut notes = header_notes(options, &served);
    let mut attempted = 0;
    let mut failed = 0;
    let mut count = |stats: &LaneStats| {
        attempted += stats.attempted;
        failed += stats.failed;
    };
    count(&preload(workload, &served, seed));

    // Saturation: a closed loop that runs straight from warm-up into the
    // measured window, so both edges of the window see steady state.
    let mut lanes = Lanes::new(workload, &served, seed);
    let saturation = Duration::from_secs_f64(options.seconds * SATURATION_SHARE);
    let window = Window::opening_in(LEAD, options.scale.warmup, saturation);
    let addr = served.addr;
    let (sat_reads, sat_writes) = lanes.run(addr, window, |_, source| {
        closed_loop(addr, source, PIPELINE_DEPTH, window)
    });
    count(&sat_reads);
    count(&sat_writes);
    let sat_rps = sat_reads.completed_ok as f64 / saturation.as_secs_f64();
    notes.push(format!(
        "saturation: {} replies in {:.1} s from {} callers",
        sat_reads.completed_ok,
        saturation.as_secs_f64(),
        lanes.reads.len() * PIPELINE_DEPTH
    ));

    // Rate: an open loop at the workload's frozen arrival rate.
    let rate = Duration::from_secs_f64(options.seconds * (1.0 - SATURATION_SHARE));
    let window = Window::opening_in(LEAD, options.scale.ramp, rate);
    // Lane i sends requests i, i + lanes, i + 2 lanes, … of one evenly
    // spaced arrival process.
    let spacing = Duration::from_secs_f64(1.0 / workload.rate_rps());
    let lane_rate = workload.rate_rps() / lanes.reads.len() as f64;
    let (rate_reads, rate_writes) = lanes.run(addr, window, |lane, source| {
        open_loop(addr, source, lane_rate, spacing * lane as u32, window)
    });
    count(&rate_reads);
    count(&rate_writes);
    let mut sorted = rate_reads.latencies_us;
    sorted.sort_by(f64::total_cmp);
    let latency = Summary::of(&sorted).ok_or("the rate phase completed no request")?;
    let mut lateness = rate_reads.lateness_us.clone();
    lateness.sort_by(f64::total_cmp);
    let lateness_p95 = percentile(&lateness, 0.95);
    notes.push(format!(
        "rate: {} rps offered, {:.1} rps answered; latency {}",
        workload.rate_rps(),
        rate_reads.completed_ok as f64 / rate.as_secs_f64(),
        latency.describe()
    ));
    notes.push(format!(
        "latency profile (ms): {}",
        [0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
            .iter()
            .map(|&q| format!("p{} {:.3}", q * 100.0, percentile(&sorted, q) / 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let lateness_limit = LATENESS_LIMIT_US.max(0.1 * latency.p50);
    notes.push(format!(
        "generator lateness p95 {lateness_p95:.1} us (limit {lateness_limit:.0} us)"
    ));
    if let Some(acks) = Summary::of(&rate_writes.latencies_us) {
        notes.push(format!(
            "write acks: p50 {:.3} ms ({})",
            acks.p50 / 1e3,
            acks.describe()
        ));
    }
    let void = (lateness_p95 > lateness_limit).then(|| {
        format!("generator lateness p95 {lateness_p95:.0} us exceeds {lateness_limit:.0} us")
    });

    let verified = verify(
        &served,
        workload,
        seed,
        options.truth,
        300,
        Duration::from_secs_f64(1.0),
    );
    attempted += verified.attempted;
    failed += verified.failed;
    notes.push(verification_note(&verified));
    if !Served::tear_down(served) {
        notes.push("warning: a server thread did not stop within the shutdown bound".into());
    }
    // The peak of one set-up and the load it served; the set-ups below
    // would only add allocator history to it.
    let rss_peak = rss_peak_mb();
    notes.push(format!(
        "rss peak: {rss_after_setup:.0} MB after set-up, {rss_peak:.0} MB after the load"
    ));
    // Set up again, for a median: after the measurement, so the phases
    // above ran in a process that had set up exactly once.
    for attempt in 1..options.scale.setups {
        let again = set_up(
            seed,
            options.scale.sizes,
            catalog_dir(options, attempt).as_deref(),
        )?;
        setup_times.push(again.timings.total_s());
        Served::tear_down(again);
    }
    notes.push(format!("setup_s samples: {setup_times:.3?}"));

    let values = vec![
        ("setup_s".to_string(), median(&setup_times)),
        ("sat_rps".to_string(), sat_rps),
        ("lat_p50_ms".to_string(), latency.p50 / 1e3),
        ("lat_p95_ms".to_string(), latency.p95 / 1e3),
        ("truth_recall".to_string(), verified.recall()),
        ("rss_peak_mb".to_string(), rss_peak),
    ];
    Ok(RunReport {
        workload,
        seed,
        traced: false,
        attempted,
        failed,
        metrics: measured(&end_to_end(), &values)?,
        notes,
        void,
    })
}

fn verification_note(verified: &Verified) -> String {
    format!(
        "verification: {} requests checked against in-process execution, {} failed; {} of {} planted relations in the top-k",
        verified.attempted, verified.failed, verified.found, verified.planted
    )
}

/// The layer a query kind's `execute` time belongs to.
fn execute_layer(kind: Kind) -> &'static str {
    match kind {
        Kind::Joinable | Kind::JoinableColumn | Kind::PkFk => "core.join",
        Kind::Unionable => "core.union",
        Kind::Keyword | Kind::CrossModalText | Kind::DocToTable => "core.query",
    }
}

/// The index and sketch kernels under one text query, as spans under its
/// `execute` span. Join and union queries have no public kernel beneath
/// `execute`: their whole time is the layer's own.
fn kernel_spans(
    trace: &mut Trace,
    snapshot: &CatalogSnapshot,
    request: &Request,
    parent: usize,
    id: u64,
) {
    use cmdl_core::{DiscoveryQuery, DocQuery};
    let text = match request.query.as_ref() {
        Some(
            DiscoveryQuery::Keyword { text, .. } | DiscoveryQuery::CrossModalText { text, .. },
        ) => text,
        Some(DiscoveryQuery::DocToTable {
            query: DocQuery::Text(text),
            ..
        }) => text,
        _ => return,
    };
    let profiler = &snapshot.profiler;
    let (_, bow) = trace.record("text.pipeline", Some(parent), id, || {
        profiler.doc_pipeline().process(text)
    });
    let (_, solo) = trace.record("embed.solo", Some(parent), id, || {
        profiler
            .solo_embedder()
            .embed_element(&bow, &cmdl_text::BagOfWords::new())
    });
    if request.kind() == Some(Kind::Keyword) {
        trace.record("index.bm25", Some(parent), id, || {
            snapshot.indexes.content.search(&bow, 10)
        });
    } else {
        trace.record("index.ann", Some(parent), id, || {
            snapshot.indexes.solo_search(&solo.content, 60)
        });
        let (_, signature) = trace.record("sketch.minhash", Some(parent), id, || {
            profiler.minhasher().signature(bow.terms())
        });
        trace.record("sketch.lshensemble", Some(parent), id, || {
            snapshot.indexes.containment_search(&signature, 60)
        });
    }
}

/// What the per-depth replay measured.
struct Replay {
    trace: Trace,
    requests: u64,
    failed: u64,
    transport_us: Vec<f64>,
    envelope_us: Vec<f64>,
    response_bytes: Vec<f64>,
    bodies: Vec<String>,
}

/// Replay the head of a fresh lane once per depth: over an otherwise idle
/// socket, through `handle_json_bytes`, through `execute`, through the
/// kernels. A request the result cache answers (its bytes were seen before
/// under this generation) never reaches the service, so only its socket
/// span is recorded — its whole time is the front end's.
fn replay(
    served: &Served,
    workload: Workload,
    seed: u64,
    limit: usize,
    budget: Duration,
) -> Result<Replay, String> {
    let mut out = Replay {
        trace: Trace::default(),
        requests: 0,
        failed: 0,
        transport_us: Vec::new(),
        envelope_us: Vec::new(),
        response_bytes: Vec::new(),
        bodies: Vec::new(),
    };
    let mut connection =
        Connection::open(served.addr).map_err(|e| format!("connecting for the replay: {e}"))?;
    // A lane no phase sent, so the first sight of a request here is the
    // server's first sight too — except the dashboard's working set, which
    // the preload made resident.
    let mut stream = read_stream(workload, &served.lake, seed, CONNECTIONS);
    let mut seen: std::collections::HashSet<String> = if workload == Workload::RepeatDashboard {
        dashboard_requests(&served.lake, seed)
            .into_iter()
            .map(|r| r.body)
            .collect()
    } else {
        std::collections::HashSet::new()
    };
    let mut seen_generation = served.service.snapshot().generation;
    let started = Instant::now();
    while out.requests < limit as u64 && started.elapsed() < budget {
        let request = stream.next_request();
        let id = out.requests;
        out.requests += 1;
        let snapshot = served.service.snapshot();
        if snapshot.generation != seen_generation {
            // A new generation empties the result cache.
            seen.clear();
            seen_generation = snapshot.generation;
        }
        let cached = !seen.insert(request.body.clone());
        if !cached {
            // The three depths are separate executions of one query; an
            // untimed one first, so that all three run against warm data
            // and their differences are the layers, not the cache misses.
            let _ = std::hint::black_box(
                snapshot.execute(request.query.as_ref().expect("read streams hold queries")),
            );
        }
        let (socket, response) = out.trace.record("server.reactor", None, id, || {
            connection.round_trip(request.path, request.body.as_bytes())
        });
        match response {
            Ok(response) if response.is_ok() => out.response_bytes.push(response.body.len() as f64),
            _ => {
                out.failed += 1;
                continue;
            }
        }
        if cached {
            out.transport_us.push(out.trace.duration_us(socket));
            out.bodies.push(request.body);
            continue;
        }
        let envelope = format!("{{\"Query\":{}}}", request.body);
        let (service, _) = out.trace.record("server.service", Some(socket), id, || {
            served.service.handle_json_bytes(envelope.as_bytes())
        });
        let query = request.query.as_ref().expect("read streams hold queries");
        let kind = request.kind().expect("read streams hold queries");
        let (execute, _) = out
            .trace
            .record(execute_layer(kind), Some(service), id, || {
                snapshot.execute(query)
            });
        kernel_spans(&mut out.trace, &snapshot, &request, execute, id);
        out.transport_us
            .push((out.trace.duration_us(socket) - out.trace.duration_us(service)).max(0.0));
        out.envelope_us
            .push((out.trace.duration_us(service) - out.trace.duration_us(execute)).max(0.0));
        out.bodies.push(request.body);
    }
    Ok(out)
}

/// Five sequential document ingests over the socket: the acknowledgement
/// times in microseconds.
fn write_ack_probe(served: &Served) -> (LaneStats, Vec<f64>) {
    let mut stats = LaneStats::default();
    let mut acks_us = Vec::new();
    let generator = &served.lake.generator;
    let Ok(mut connection) = Connection::open(served.addr) else {
        return (LaneStats::unreachable(), acks_us);
    };
    for i in 0..5 {
        // Indices no mutation stream reaches.
        let (document, _, _) = generator.document(
            generator.sizes().documents + 300_000 + i,
            &served.lake.tables,
        );
        let body = serde_json::to_string(&document).expect("document serializes");
        stats.attempted += 1;
        let started = Instant::now();
        match connection.round_trip("/ingest/document", body.as_bytes()) {
            Ok(response) if response.is_ok() => acks_us.push(started.elapsed().as_secs_f64() * 1e6),
            _ => stats.failed += 1,
        }
    }
    (stats, acks_us)
}

fn run_traced(options: &RunOptions) -> Result<RunReport, String> {
    let (workload, seed) = (options.workload, options.seed);
    let served = set_up(
        seed,
        options.scale.sizes,
        catalog_dir(options, 0).as_deref(),
    )?;
    let mut notes = header_notes(options, &served);
    let mut values = LayerMetrics::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut count = |stats: &LaneStats| {
        attempted += stats.attempted;
        failed += stats.failed;
    };
    count(&preload(workload, &served, seed));
    let addr = served.addr;
    let before = Scrape::fetch(addr).map_err(|e| format!("scraping /metrics: {e}"))?;

    // The saturation phase again, shorter: printed beside the untraced
    // `sat_rps`, the difference is what tracing costs.
    let mut lanes = Lanes::new(workload, &served, seed);
    let saturation = Duration::from_secs_f64(options.seconds * 0.2);
    let window = Window::opening_in(LEAD, options.scale.warmup, saturation);
    let (reads, writes) = lanes.run(addr, window, |_, source| {
        closed_loop(addr, source, PIPELINE_DEPTH, window)
    });
    count(&reads);
    count(&writes);
    values.push((
        "trace.sat_rps".into(),
        reads.completed_ok as f64 / saturation.as_secs_f64(),
    ));

    let replayed = replay(
        &served,
        workload,
        seed,
        options.scale.trace_prefix,
        Duration::from_secs_f64(options.seconds * 0.25),
    )?;
    attempted += replayed.requests;
    failed += replayed.failed;
    let after = Scrape::fetch(addr).map_err(|e| format!("scraping /metrics: {e}"))?;
    let trace_path = options
        .out_dir
        .join(format!("trace-{}.jsonl", workload.name()));
    replayed
        .trace
        .write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    notes.push(format!(
        "trace: {} requests, {} spans, written to {}",
        replayed.requests,
        replayed.trace.spans().len(),
        trace_path.display()
    ));

    let self_ns = replayed.trace.self_time_by_layer();
    let total_ns: u64 = self_ns.values().sum();
    let share = |layers: &[&str]| {
        layers
            .iter()
            .map(|l| self_ns.get(l).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / total_ns.max(1) as f64
    };
    let mut layers: Vec<_> = self_ns.iter().collect();
    layers.sort();
    notes.push(format!(
        "self time by layer: {}",
        layers
            .iter()
            .map(|(layer, ns)| format!(
                "{layer} {:.1}%",
                **ns as f64 * 100.0 / total_ns.max(1) as f64
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    values.push(("trace.requests".into(), replayed.requests as f64));
    values.push((
        "trace.front_end_self_share".into(),
        share(&["server.reactor", "server.service"]),
    ));
    values.push((
        "trace.join_union_self_share".into(),
        share(&["core.join", "core.union"]),
    ));
    values.push((
        "server.reactor.transport_us".into(),
        median(&replayed.transport_us),
    ));
    values.push((
        "server.service.envelope_us".into(),
        median(&replayed.envelope_us),
    ));
    values.push((
        "server.service.response_bytes_mean".into(),
        replayed.response_bytes.iter().sum::<f64>() / replayed.response_bytes.len().max(1) as f64,
    ));
    values.push((
        "server.reactor.coalesce_batch_mean".into(),
        after.coalesce_batch_mean(&before),
    ));
    values.push((
        "server.reactor.shed_total".into(),
        after.delta(&before, "cmdl_shed_total"),
    ));
    values.push((
        "server.cache.hit_ratio".into(),
        after.cache_hit_ratio(&before),
    ));
    values.push((
        "server.cache.evicted_total".into(),
        after.delta(&before, "cmdl_cache_evicted_total"),
    ));
    values.push((
        "server.cache.invalidated_total".into(),
        after.delta(&before, "cmdl_cache_invalidated_total"),
    ));

    let verified = verify(
        &served,
        workload,
        seed,
        options.truth.traced(),
        50,
        Duration::from_secs_f64(0.3),
    );
    attempted += verified.attempted;
    failed += verified.failed;
    notes.push(verification_note(&verified));

    // While the replay's entries are still resident in the cache.
    let recent = &replayed.bodies[replayed.bodies.len().saturating_sub(512)..];
    front_end_kernels(&served, recent, &mut values);

    // After everything that reads the served lake as it was set up: five
    // sequential document ingests, pooled with whatever the write lane
    // acknowledged above.
    let (probe, mut acks_us) = write_ack_probe(&served);
    attempted += probe.attempted;
    failed += probe.failed;
    acks_us.extend(&writes.latencies_us);
    let write_ack_ms = median(&acks_us) / 1e3;
    notes.push(format!("write acks: n={}", acks_us.len()));
    values.push(("server.service.write_ack_p50_ms".into(), write_ack_ms));
    values.extend(kernel_metrics(
        &served,
        seed,
        &options.scale,
        &options.out_dir,
    )?);
    if !Served::tear_down(served) {
        notes.push("warning: a server thread did not stop within the shutdown bound".into());
    }
    Ok(RunReport {
        workload,
        seed,
        traced: true,
        attempted,
        failed,
        metrics: measured(&per_layer(), &values)?,
        notes,
        void: None,
    })
}
