//! Noisy-neighbor isolation benchmark for the multi-tenant control plane.
//!
//! Two lakes share one in-process [`TenantHub`]: the **victim** is created
//! without quotas and queried by a fixed closed loop of workers; the
//! **noisy** tenant opts into `max_inflight = 1` at `CreateLake` time and
//! is hammered by more workers than it has slots, so the overflow is shed
//! with the typed `QuotaExceeded` 429 (clients back off briefly on a shed,
//! as a real 429/Retry-After client would).
//!
//! The admission-control claim under test: sheds happen at the hub before
//! the request touches the catalog, so a tenant blowing through its cap
//! burns (almost) none of the shared compute and the victim keeps its
//! throughput. Measured as victim QPS solo vs under noise; the CI
//! `tenant-isolation` job publishes the report as `BENCH_tenant.json` and
//! enforces `victim_retention >= 0.7`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmdl_bench::{emit, pharma_lake};
use cmdl_core::{DiscoveryQuery, ErrorCode, QueryBuilder, SearchMode};
use cmdl_eval::{ExperimentReport, MethodResult};
use cmdl_server::{Backoff, LakeQuotas, ServiceRequest, TenantDefaults, TenantHub, DEFAULT_TENANT};

const NOISY_MAX_INFLIGHT: usize = 1;
const NOISY_THREADS: usize = 4;
/// Victim workers outnumber the noisy tenant's single admitted slot by
/// enough that even on a one-core runner the noisy execution share stays
/// well under the CI retention floor's slack.
const VICTIM_THREADS: usize = 8;
const VICTIM_QUERIES_PER_THREAD: usize = 150;
/// Best-of rounds per phase (scheduler noise on small runners straddles
/// the CI floor on a single measurement).
const ROUNDS: usize = 3;
/// Client backoff after a 429: jittered exponential from base to cap
/// (deterministically seeded per worker), reset on the first admitted
/// request.
const SHED_BACKOFF_BASE: Duration = Duration::from_micros(250);
const SHED_BACKOFF_CAP: Duration = Duration::from_millis(2);

/// Mixed discovery workload over the bench-scale pharma lake, sized for
/// the two-tenant closed loop.
fn workload(lake: &cmdl_datalake::DataLake) -> Vec<DiscoveryQuery> {
    let mut queries = Vec::new();
    let keyword_texts: Vec<String> = lake
        .tables()
        .iter()
        .take(6)
        .flat_map(|t| t.columns.first())
        .flat_map(|c| c.values.iter().take(4))
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
    for doc in lake.documents().iter().take(6) {
        queries.push(QueryBuilder::cross_modal_text(&doc.title).top_k(5).build());
    }
    let table_names: Vec<String> = lake.tables().iter().map(|t| t.name.clone()).collect();
    for name in table_names.iter().take(4) {
        queries.push(QueryBuilder::joinable(name).top_k(5).build());
    }
    for name in table_names.iter().take(4) {
        queries.push(QueryBuilder::unionable(name).top_k(5).build());
    }
    queries.push(QueryBuilder::pkfk().top_k(10).build());
    queries
}

/// Seed one tenant's lake element by element through the hub, the same
/// admission-controlled path the benchmark later queries.
fn populate(hub: &TenantHub, tenant: &str, lake: &cmdl_datalake::DataLake) {
    for table in lake.tables() {
        let response = hub.handle(tenant, ServiceRequest::IngestTable(table.clone()));
        assert!(response.ok, "seed {tenant}: {response:?}");
    }
    for doc in lake.documents() {
        let response = hub.handle(tenant, ServiceRequest::IngestDocument(doc.clone()));
        assert!(response.ok, "seed {tenant}: {response:?}");
    }
}

/// Closed-loop victim measurement, best of [`ROUNDS`]: `VICTIM_THREADS`
/// workers each issue `VICTIM_QUERIES_PER_THREAD` queries per round. The
/// victim has no quotas, so every response must succeed — a victim shed
/// would mean the noisy tenant leaked into the victim's admission path.
fn victim_qps(hub: &Arc<TenantHub>, queries: &[DiscoveryQuery]) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for worker in 0..VICTIM_THREADS {
                let hub = Arc::clone(hub);
                scope.spawn(move || {
                    for i in 0..VICTIM_QUERIES_PER_THREAD {
                        let query = queries[(worker + i) % queries.len()].clone();
                        let response = hub.handle("victim", ServiceRequest::Query(query));
                        assert!(response.ok, "victim query must succeed: {response:?}");
                    }
                });
            }
        });
        let total = (VICTIM_THREADS * VICTIM_QUERIES_PER_THREAD) as f64;
        best = best.max(total / started.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let lake = pharma_lake().lake;
    let queries = workload(&lake);

    let hub = TenantHub::new(TenantDefaults::default()).expect("hub");
    for (name, quotas) in [
        ("victim", None),
        (
            "noisy",
            Some(LakeQuotas {
                max_inflight: Some(NOISY_MAX_INFLIGHT),
                ..LakeQuotas::default()
            }),
        ),
    ] {
        let created = hub.handle(
            DEFAULT_TENANT,
            ServiceRequest::CreateLake {
                name: name.to_string(),
                config: None,
                quotas,
            },
        );
        assert!(created.ok, "create {name}: {created:?}");
        populate(&hub, name, &lake);
    }

    // Warm both tenants' query paths once before timing.
    for query in &queries {
        for tenant in ["victim", "noisy"] {
            let response = hub.handle(tenant, ServiceRequest::Query(query.clone()));
            assert!(response.ok, "warmup {tenant}: {response:?}");
        }
    }

    // Phase 1: the victim alone.
    let solo_qps = victim_qps(&hub, &queries);

    // Phase 2: the victim re-measured while the noisy tenant's workers
    // outnumber its in-flight slots — the overflow must shed as typed
    // quota 429s, and at most NOISY_MAX_INFLIGHT noisy queries execute.
    let stop = AtomicBool::new(false);
    let noisy_ok = AtomicU64::new(0);
    let noisy_shed = AtomicU64::new(0);
    let contended_qps = std::thread::scope(|scope| {
        for worker in 0..NOISY_THREADS {
            let hub = Arc::clone(&hub);
            let (stop, noisy_ok, noisy_shed) = (&stop, &noisy_ok, &noisy_shed);
            let queries = &queries;
            scope.spawn(move || {
                let mut backoff =
                    Backoff::seeded(SHED_BACKOFF_BASE, SHED_BACKOFF_CAP, 0x5EED ^ worker as u64);
                let mut i = worker;
                while !stop.load(Ordering::Acquire) {
                    let query = queries[i % queries.len()].clone();
                    i += 1;
                    let response = hub.handle("noisy", ServiceRequest::Query(query));
                    if response.ok {
                        noisy_ok.fetch_add(1, Ordering::Relaxed);
                        backoff.reset();
                    } else {
                        assert_eq!(
                            response.error_code(),
                            Some(ErrorCode::QuotaExceeded),
                            "noisy failures must be the typed quota 429: {response:?}"
                        );
                        noisy_shed.fetch_add(1, Ordering::Relaxed);
                        backoff.sleep();
                    }
                }
            });
        }
        let qps = victim_qps(&hub, &queries);
        stop.store(true, Ordering::Release);
        qps
    });

    let shed = noisy_shed.load(Ordering::Relaxed);
    assert!(
        shed > 0,
        "the noisy tenant never hit its quota; the benchmark measured nothing"
    );

    let retention = contended_qps / solo_qps;
    let mut report = ExperimentReport::new(
        "Multi Tenant",
        format!(
            "Noisy-neighbor isolation on one TenantHub: victim QPS over a mixed \
             {}-query workload, solo vs alongside a tenant whose {} workers share \
             max_inflight = {} (a per-lake CreateLake quota override; overflow \
             sheds as typed QuotaExceeded 429s at admission, before touching the \
             catalog, and clients back off with jittered exponential delays of \
             {}us..{}us on a shed, reset on the next admit). Best of {} \
             rounds per phase. CI floor: victim_retention >= 0.7.",
            queries.len(),
            NOISY_THREADS,
            NOISY_MAX_INFLIGHT,
            SHED_BACKOFF_BASE.as_micros(),
            SHED_BACKOFF_CAP.as_micros(),
            ROUNDS,
        ),
    );
    report.push(MethodResult::new("Victim solo").with("Qps", solo_qps));
    report.push(
        MethodResult::new("Victim under noise")
            .with("Qps", contended_qps)
            .with("Victim_retention", retention),
    );
    report.push(
        MethodResult::new("Noisy neighbor")
            .with("Workers", NOISY_THREADS as f64)
            .with("Served", noisy_ok.load(Ordering::Relaxed) as f64)
            .with("Quota_429s", shed as f64),
    );
    emit(&report);
}
