//! The transport-agnostic CMDL service.
//!
//! [`CmdlService`] routes every [`ServiceRequest`] to a [`ServiceResponse`]
//! over one of two backends, chosen by `config.shards` at construction
//! ([`CmdlService::build`]):
//!
//! * **Single** (`shards <= 1`) — one [`Cmdl`] behind a writer gate.
//!   Reads never block behind writers: the service keeps a *published*
//!   [`CatalogSnapshot`] under a lock that is only ever held for a handful
//!   of `Arc` clones, and query execution happens entirely outside any
//!   lock. Writes serialize through a flat-combining mutation queue:
//!   whichever thread wins the gate drains the *whole* queue, applies the
//!   deltas in arrival order, and publishes one fresh snapshot per drained
//!   batch. [`Cmdl`]'s own `delta_pressure` policy triggers `compact()`
//!   inside the gate.
//! * **Sharded** (`shards > 1`) — a [`ShardedCmdl`] router over N
//!   catalogs. Reads pin a published [`ShardedSnapshot`] the same way;
//!   queries scatter across shards and merge under the single-catalog
//!   total order (bit parity — see [`cmdl_core::shard`]). Mutations go
//!   straight to the router, whose per-shard writer gates let table
//!   ingests routed to different shards profile concurrently — a single
//!   flat-combining queue here would serialize exactly the work sharding
//!   parallelizes. The sharded backend is in-memory only (no WAL).
//!
//! The wire contract is bytes-in/bytes-out JSON
//! ([`handle_json_bytes`](CmdlService::handle_json_bytes)), so every
//! handler is testable in-process without sockets and the HTTP front ends
//! ([`crate::reactor`], [`crate::blocking`]) are nothing but framing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use cmdl_core::snapshot::{publish, publish_if};
use cmdl_core::{
    CatalogSnapshot, Cmdl, CmdlConfig, CmdlError, CmdlStats, DiscoveryQuery, ErrorCode,
    QueryResponse, ShardedCmdl, ShardedSnapshot,
};
use cmdl_datalake::{DataLake, Document, Table};

use crate::api::{
    BatchOutcome, HealthReport, ResponsePayload, ServiceError, ServiceRequest, ServiceResponse,
};
use crate::metrics::ServiceMetrics;

/// One queued mutation, paired with the slot its result lands in.
struct PendingMutation {
    request: ServiceRequest,
    result: Arc<Mutex<Option<ServiceResponse>>>,
}

/// The single-catalog backend: one [`Cmdl`] behind the flat-combining
/// writer gate.
struct SingleGate {
    /// The writer gate: the catalog is only ever mutated while this lock is
    /// held, so mutations (and the compactions they trigger) are serialized.
    writer: Mutex<Cmdl>,
    /// The published snapshot readers pin. Held only for `Arc` clones —
    /// never across query execution — so readers do not block behind
    /// writers applying a batch.
    published: RwLock<CatalogSnapshot>,
    /// The mutation queue drained (flat-combining) by whichever writer
    /// holds the gate.
    queue: Mutex<VecDeque<PendingMutation>>,
    /// Set when a panicked mutation on a persistent catalog could not be
    /// reconciled with disk ([`Cmdl::recover_after_panic`] failed): the
    /// in-memory state may diverge from the WAL/segment, so accepting
    /// further mutations would compound the damage. Reads keep serving
    /// the last published snapshot; mutations are refused and health
    /// reports `degraded`.
    wedged: AtomicBool,
    /// While a background reconfiguration is rebuilding the catalog,
    /// `Some(log)`: every mutation the gate successfully applies is also
    /// recorded here (in apply order) so the rebuilt catalog can replay
    /// the deltas it missed before being swapped in. `None` otherwise.
    /// Only ever locked while holding (or inside) the writer gate, so the
    /// lock order writer → recording is global.
    recording: Mutex<Option<Vec<ServiceRequest>>>,
    /// Guards the one-reconfiguration-at-a-time invariant: set by CAS when
    /// a `Reconfigure` starts, cleared when it swaps or aborts. A second
    /// request while set gets `ReconfigurePending`.
    reconfiguring: AtomicBool,
}

/// The sharded backend: the internally-synchronized [`ShardedCmdl`]
/// router plus the published snapshot readers pin.
struct ShardedGate {
    router: ShardedCmdl,
    published: RwLock<ShardedSnapshot>,
    /// Set when a mutation panicked inside the router: its internal locks
    /// may be poisoned mid-update, so further mutations are refused and
    /// health reports `degraded` while reads keep serving the last
    /// published snapshot. (The sharded backend has no WAL, so there is no
    /// disk state to reconcile — wedging is the whole recovery story.)
    wedged: AtomicBool,
}

// One Backend exists per service (never in collections), so the size skew
// between the gate variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Backend {
    Single(SingleGate),
    Sharded(ShardedGate),
}

/// A pinned read view over either backend — the common surface
/// `handle_read` executes against.
enum View {
    Single(CatalogSnapshot),
    Sharded(ShardedSnapshot),
}

impl View {
    fn execute(&self, query: &DiscoveryQuery) -> Result<QueryResponse, CmdlError> {
        match self {
            View::Single(snapshot) => snapshot.execute(query),
            View::Sharded(snapshot) => snapshot.execute(query),
        }
    }

    fn execute_many(&self, queries: &[DiscoveryQuery]) -> Vec<Result<QueryResponse, CmdlError>> {
        match self {
            View::Single(snapshot) => snapshot.execute_many(queries),
            View::Sharded(snapshot) => snapshot.execute_many(queries),
        }
    }

    fn stats(&self) -> CmdlStats {
        match self {
            View::Single(snapshot) => snapshot.stats(),
            View::Sharded(snapshot) => snapshot.stats(),
        }
    }

    fn generation(&self) -> u64 {
        match self {
            View::Single(snapshot) => snapshot.generation,
            View::Sharded(snapshot) => snapshot.generation,
        }
    }
}

/// The transport-agnostic service façade over one catalog — single or
/// sharded (see the module docs).
pub struct CmdlService {
    backend: Backend,
    metrics: Arc<ServiceMetrics>,
}

impl CmdlService {
    /// Wrap a built catalog as a single-backend service.
    pub fn new(cmdl: Cmdl) -> Self {
        Self {
            backend: Backend::Single(SingleGate::around(cmdl)),
            metrics: Arc::new(ServiceMetrics::default()),
        }
    }

    /// Wrap a built shard router as a sharded-backend service.
    pub fn sharded(router: ShardedCmdl) -> Self {
        let published = RwLock::new(router.snapshot());
        Self {
            backend: Backend::Sharded(ShardedGate {
                router,
                published,
                wedged: AtomicBool::new(false),
            }),
            metrics: Arc::new(ServiceMetrics::default()),
        }
    }

    /// Build a service from a lake, dispatching on the config: a
    /// [`ShardedCmdl`] router when `shards > 1`, one plain catalog
    /// otherwise. This is the config-driven in-memory server entry point.
    ///
    /// ```no_run
    /// use cmdl_core::CmdlConfig;
    /// use cmdl_datalake::synth;
    /// use cmdl_server::CmdlService;
    ///
    /// let mut config = CmdlConfig::fast();
    /// config.shards = 4;
    /// let service = CmdlService::build(synth::pharma().lake, config);
    /// assert_eq!(service.num_shards(), 4);
    /// ```
    pub fn build(lake: DataLake, config: CmdlConfig) -> Self {
        if config.shards > 1 {
            Self::sharded(ShardedCmdl::build(lake, config))
        } else {
            Self::new(Cmdl::build(lake, config))
        }
    }

    /// Open (or recover) a durable catalog at `dir` and wrap it as a
    /// single-backend service — the server-startup entry point. Recovery
    /// is logged: a loaded segment reports its replayed WAL tail, a
    /// damaged directory reports why it degraded to rebuild-from-source.
    ///
    /// Sharded serving is in-memory only; it has no durable form to open,
    /// so `shards > 1` is refused with [`CmdlError::InvalidQuery`] before
    /// anything touches `dir`, rather than silently serving one shard.
    pub fn open(
        dir: &std::path::Path,
        config: CmdlConfig,
        source: impl FnOnce() -> DataLake,
    ) -> Result<Self, CmdlError> {
        if config.shards > 1 {
            return Err(CmdlError::InvalidQuery(format!(
                "shards = {}: a durable catalog is single-shard; drop `shards` or serve \
                 the sharded backend in memory",
                config.shards
            )));
        }
        let cmdl = Cmdl::open(dir, config, source)?;
        if let Some(report) = cmdl.recovery_report() {
            eprintln!("cmdl: catalog at {} recovered: {report:?}", dir.display());
        }
        Ok(Self::new(cmdl))
    }

    /// How many shards serve this catalog (`1` for the single backend).
    pub fn num_shards(&self) -> usize {
        match &self.backend {
            Backend::Single(_) => 1,
            Backend::Sharded(gate) => gate.router.num_shards(),
        }
    }

    /// Drain the writer queue and publish the resulting snapshot — the
    /// graceful-shutdown flush. Every mutation applied here appends and
    /// fsyncs its WAL record before being acknowledged, so after `flush`
    /// returns there is no acknowledged-but-volatile state left. On the
    /// sharded backend mutations apply synchronously (nothing is queued),
    /// so this is a no-op.
    pub fn flush(&self) {
        match &self.backend {
            Backend::Single(gate) => gate.flush(),
            Backend::Sharded(_) => {}
        }
    }

    /// Pin the currently published single-catalog generation (cheap: a few
    /// `Arc` clones).
    ///
    /// # Panics
    ///
    /// Panics on a sharded service — a sharded generation is not one
    /// [`CatalogSnapshot`]; pin it with
    /// [`sharded_snapshot`](Self::sharded_snapshot) instead.
    pub fn snapshot(&self) -> CatalogSnapshot {
        match &self.backend {
            Backend::Single(gate) => gate
                .published
                .read()
                .unwrap_or_else(|poison| poison.into_inner())
                .clone(),
            Backend::Sharded(_) => {
                panic!("CmdlService::snapshot on a sharded service; use sharded_snapshot")
            }
        }
    }

    /// Pin the currently published sharded generation, or `None` on a
    /// single-backend service.
    pub fn sharded_snapshot(&self) -> Option<ShardedSnapshot> {
        match &self.backend {
            Backend::Single(_) => None,
            Backend::Sharded(gate) => Some(
                gate.published
                    .read()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .clone(),
            ),
        }
    }

    /// Pin the published generation of whichever backend is active.
    fn view(&self) -> View {
        match &self.backend {
            Backend::Single(gate) => View::Single(
                gate.published
                    .read()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .clone(),
            ),
            Backend::Sharded(gate) => View::Sharded(
                gate.published
                    .read()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .clone(),
            ),
        }
    }

    /// Whether the writer gate is wedged: mutations are refused while
    /// reads keep serving the last published snapshot, and health reports
    /// `degraded`. The tenant hub surfaces this per lake.
    pub fn is_wedged(&self) -> bool {
        match &self.backend {
            Backend::Single(gate) => gate.wedged.load(Ordering::SeqCst),
            Backend::Sharded(gate) => gate.wedged.load(Ordering::SeqCst),
        }
    }

    /// Whether a background reconfiguration is currently rebuilding this
    /// catalog (always `false` on the sharded backend).
    pub fn is_reconfiguring(&self) -> bool {
        match &self.backend {
            Backend::Single(gate) => gate.reconfiguring.load(Ordering::SeqCst),
            Backend::Sharded(_) => false,
        }
    }

    /// Introspection statistics of the currently published generation.
    pub fn stats(&self) -> CmdlStats {
        self.view().stats()
    }

    /// The service counters.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The shared counter handle (the tenant hub aliases this as the
    /// global metrics sink in single-tenant compatibility mode).
    pub(crate) fn metrics_arc(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// The published generation and delta pressure — the two gauges the
    /// text exposition carries next to the counters.
    pub(crate) fn generation_and_pressure(&self) -> (u64, f64) {
        match self.view() {
            View::Single(snapshot) => (snapshot.generation, snapshot.indexes.delta_pressure()),
            View::Sharded(snapshot) => {
                let pressure = snapshot
                    .shards
                    .iter()
                    .map(|shard| shard.indexes.delta_pressure())
                    .fold(0.0_f64, f64::max);
                (snapshot.generation, pressure)
            }
        }
    }

    /// Render the metrics text exposition (counters plus the published
    /// snapshot's generation and delta pressure).
    pub fn render_metrics(&self) -> String {
        let (generation, pressure) = self.generation_and_pressure();
        self.metrics.render(generation, pressure)
    }

    /// The generation of the currently published snapshot, without cloning
    /// it — the reactor's result cache keys on this before deciding whether
    /// a cached response is still current.
    pub fn published_generation(&self) -> u64 {
        match &self.backend {
            Backend::Single(gate) => {
                gate.published
                    .read()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .generation
            }
            Backend::Sharded(gate) => {
                gate.published
                    .read()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .generation
            }
        }
    }

    /// Execute a batch of *independent single queries* — gathered by the
    /// reactor from concurrent connections in one readiness tick — against
    /// **one** pinned snapshot, and wrap each outcome in its own
    /// [`ServiceResponse`] envelope exactly as [`handle`](Self::handle)
    /// would for a `Query` request.
    ///
    /// This is the coalescing half of the event-driven front end: N
    /// requests pay one snapshot pin and one `execute_many` sweep (which
    /// amortizes per-weight-profile candidate generation across the batch)
    /// instead of N independent `execute` calls. Per-query metrics are
    /// recorded under the `query` kind with the batch elapsed time
    /// apportioned evenly, plus one sample in the coalesced-batch-size
    /// histogram.
    ///
    /// Returns the pinned generation (for result-cache tagging) alongside
    /// the responses, which are index-aligned with `queries`.
    pub fn execute_coalesced(&self, queries: &[DiscoveryQuery]) -> (u64, Vec<ServiceResponse>) {
        let started = Instant::now();
        let view = self.view();
        let generation = view.generation();
        let outcomes = view.execute_many(queries);
        let per_query_micros =
            (started.elapsed().as_micros() as u64) / (queries.len().max(1) as u64);
        self.metrics.record_coalesce(queries.len());
        let responses = outcomes
            .into_iter()
            .map(|outcome| {
                let response = match outcome {
                    Ok(inner) => ServiceResponse::success(ResponsePayload::Query(inner)),
                    Err(error) => ServiceResponse::failure(error.into()),
                };
                self.metrics
                    .record("query", per_query_micros, response.error_code());
                response
            })
            .collect();
        (generation, responses)
    }

    /// Route one typed request. Reads execute against a pinned snapshot;
    /// mutations go through the active backend's writer path.
    pub fn handle(&self, request: ServiceRequest) -> ServiceResponse {
        let started = Instant::now();
        let kind = request.kind();
        let response = match request {
            request if request.is_mutation() => self.submit_mutation(request),
            ServiceRequest::Reconfigure(config) => self.reconfigure(config),
            ServiceRequest::Recover => self.recover(),
            request => self.handle_read(request),
        };
        self.metrics.record(
            kind,
            started.elapsed().as_micros() as u64,
            response.error_code(),
        );
        response
    }

    /// Parse a [`ServiceRequest`] from JSON bytes and route it.
    /// Unparseable input yields a `MalformedRequest` envelope (also counted
    /// in the metrics).
    pub fn handle_json(&self, request: &[u8]) -> ServiceResponse {
        match std::str::from_utf8(request)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                serde_json::from_str::<ServiceRequest>(text).map_err(|e| e.to_string())
            }) {
            Ok(request) => self.handle(request),
            Err(detail) => {
                let response = ServiceResponse::failure(ServiceError::with_subject(
                    ErrorCode::MalformedRequest,
                    detail,
                ));
                self.metrics
                    .record_transport("malformed", response.error_code());
                response
            }
        }
    }

    /// The bytes-in/bytes-out wire contract:
    /// [`handle_json`](Self::handle_json) with the envelope serialized back
    /// to JSON bytes.
    pub fn handle_json_bytes(&self, request: &[u8]) -> Vec<u8> {
        let mut out = String::new();
        self.handle_json_into(request, &mut out);
        out.into_bytes()
    }

    /// [`handle_json`](Self::handle_json) streaming the response envelope
    /// into a caller-owned buffer (appended, not cleared) — the
    /// allocation-free form of the wire contract a per-connection serving
    /// loop reuses its buffer with. The envelope is written by the zero-DOM
    /// streaming serializer; no intermediate `Json` tree is built.
    pub fn handle_json_into(&self, request: &[u8], out: &mut String) {
        serialize_response_into(&self.handle_json(request), out);
    }

    fn handle_read(&self, request: ServiceRequest) -> ServiceResponse {
        let view = self.view();
        match request {
            ServiceRequest::Query(query) => match view.execute(&query) {
                Ok(response) => ServiceResponse::success(ResponsePayload::Query(response)),
                Err(error) => ServiceResponse::failure(error.into()),
            },
            ServiceRequest::QueryBatch(queries) => {
                let outcomes = view
                    .execute_many(&queries)
                    .into_iter()
                    .map(|outcome| match outcome {
                        Ok(response) => BatchOutcome {
                            response: Some(response),
                            error: None,
                        },
                        Err(error) => BatchOutcome {
                            response: None,
                            error: Some(error.into()),
                        },
                    })
                    .collect();
                ServiceResponse::success(ResponsePayload::QueryBatch(outcomes))
            }
            ServiceRequest::Stats => {
                // `wedged`/`reconfiguring` are gate properties, not snapshot
                // properties: stamp them in here, where the gate is visible.
                let mut stats = view.stats();
                stats.wedged = self.is_wedged();
                stats.reconfiguring = self.is_reconfiguring();
                ServiceResponse::success(ResponsePayload::Stats(stats))
            }
            ServiceRequest::Health => {
                let wedged = self.is_wedged();
                let status = if wedged { "degraded" } else { "ok" };
                ServiceResponse::success(ResponsePayload::Health(HealthReport {
                    status: status.to_string(),
                    generation: view.generation(),
                    wedged,
                    reconfiguring: self.is_reconfiguring(),
                }))
            }
            ServiceRequest::CreateLake { .. }
            | ServiceRequest::DropLake { .. }
            | ServiceRequest::ListLakes => ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::InvalidQuery,
                "lake management requires the multi-tenant hub; this server hosts a single lake",
            )),
            mutation => {
                // Unreachable through `handle` (routed by `is_mutation`);
                // keep a defensive envelope rather than a panic.
                debug_assert!(false, "mutation {} routed to read path", mutation.kind());
                ServiceResponse::failure(ServiceError::new(ErrorCode::Internal))
            }
        }
    }

    fn submit_mutation(&self, request: ServiceRequest) -> ServiceResponse {
        match &self.backend {
            Backend::Single(gate) => gate.submit_mutation(request),
            Backend::Sharded(gate) => gate.submit_mutation(request),
        }
    }

    /// Re-run the wedged gate's reconciliation
    /// ([`Cmdl::recover_after_panic`]) and clear the wedged flag on
    /// success, so a wedged lake no longer requires a process restart. On
    /// a healthy gate this is a cheap no-op success (`was_wedged: false`);
    /// when reconciliation still fails the gate stays wedged and the
    /// caller gets the typed `Persist` error. The sharded backend has no
    /// WAL to reconcile from, so a wedged shard router reports a typed
    /// error instead.
    pub fn recover(&self) -> ServiceResponse {
        match &self.backend {
            Backend::Single(gate) => gate.recover(),
            Backend::Sharded(gate) => {
                if gate.wedged.load(Ordering::SeqCst) {
                    ServiceResponse::failure(ServiceError::with_subject(
                        ErrorCode::Internal,
                        "sharded backend has no WAL to reconcile a wedged writer from; \
                         restart to recover",
                    ))
                } else {
                    let generation = self.published_generation();
                    ServiceResponse::success(ResponsePayload::Recovered {
                        generation,
                        was_wedged: false,
                    })
                }
            }
        }
    }

    /// Rebuild the catalog under `config` in the background and atomically
    /// swap it into the next published generation (see
    /// `SingleGate::reconfigure` for the protocol). Queries keep hitting
    /// the old published snapshot throughout; ingests keep landing (they
    /// are recorded and replayed onto the rebuilt catalog before the
    /// swap). The sharded backend has no online-rebuild path — its shard
    /// count and layout are fixed at construction — so it reports a typed
    /// error instead.
    pub fn reconfigure(&self, config: CmdlConfig) -> ServiceResponse {
        match &self.backend {
            Backend::Single(gate) => gate.reconfigure(config),
            Backend::Sharded(_) => ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::InvalidQuery,
                "online reconfiguration is unsupported on the sharded backend; \
                 restart with the new config",
            )),
        }
    }

    /// Convenience: ingest a document without building an envelope (used by
    /// tests and benches; routes through the same writer gate).
    pub fn ingest_document(&self, document: Document) -> ServiceResponse {
        self.handle(ServiceRequest::IngestDocument(document))
    }

    /// Convenience: ingest a table through the service envelope.
    pub fn ingest_table(&self, table: Table) -> ServiceResponse {
        self.handle(ServiceRequest::IngestTable(table))
    }

    /// The single-catalog gate, for tests that reach into the queue.
    #[cfg(test)]
    fn single_gate(&self) -> &SingleGate {
        match &self.backend {
            Backend::Single(gate) => gate,
            Backend::Sharded(_) => panic!("test expects the single backend"),
        }
    }
}

impl SingleGate {
    /// Wrap a built catalog in a gate.
    fn around(cmdl: Cmdl) -> Self {
        let published = RwLock::new(cmdl.snapshot());
        Self {
            writer: Mutex::new(cmdl),
            published,
            queue: Mutex::new(VecDeque::new()),
            wedged: AtomicBool::new(false),
            recording: Mutex::new(None),
            reconfiguring: AtomicBool::new(false),
        }
    }

    /// Drain the writer queue and publish the resulting snapshot (the
    /// graceful-shutdown flush of this gate).
    fn flush(&self) {
        let mut cmdl = self
            .writer
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        self.drain_queue(&mut cmdl);
        drop(publish(&self.published, cmdl.snapshot()));
    }

    /// Re-run panic reconciliation for a wedged gate (the `Recover`
    /// request): abort any danglingly-logged records and reload memory
    /// from the segment + WAL tail, exactly as the in-gate compensation
    /// attempted. Success clears the wedged flag and republishes; failure
    /// leaves the gate wedged and reports the typed `Persist` error. On a
    /// healthy gate this is a drain-and-publish no-op success.
    fn recover(&self) -> ServiceResponse {
        let mut cmdl = self
            .writer
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        self.drain_queue(&mut cmdl);
        let was_wedged = self.wedged.load(Ordering::SeqCst);
        if was_wedged {
            let mark = cmdl.wal_mark();
            if let Err(error) = cmdl.recover_after_panic(mark) {
                return ServiceResponse::failure(ServiceError::with_subject(
                    ErrorCode::Persist,
                    format!("recovery failed; the writer gate stays wedged: {error}"),
                ));
            }
            self.wedged.store(false, Ordering::SeqCst);
        }
        let generation = cmdl.generation();
        drop(publish(&self.published, cmdl.snapshot()));
        ServiceResponse::success(ResponsePayload::Recovered {
            generation,
            was_wedged,
        })
    }

    /// Enqueue a mutation, then compete for the writer gate. The winner
    /// drains the whole queue (flat combining) and publishes one snapshot
    /// for the batch; losers find their result already filled in.
    fn submit_mutation(&self, request: ServiceRequest) -> ServiceResponse {
        if self.wedged.load(Ordering::SeqCst) {
            return ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::Internal,
                "writer gate wedged: in-memory state could not be reconciled with \
                 disk after a panic; restart to recover"
                    .to_string(),
            ));
        }
        let slot = Arc::new(Mutex::new(None));
        self.queue
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .push_back(PendingMutation {
                request,
                result: Arc::clone(&slot),
            });

        // The generation this drain retires is freed after the writer gate
        // is released too, so queued writers do not wait for it either.
        let retired = {
            let mut cmdl = self
                .writer
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            // A previous gate holder may have drained our mutation already.
            let already_done = slot
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .is_some();
            (!already_done).then(|| {
                self.drain_queue(&mut cmdl);
                publish(&self.published, cmdl.snapshot())
            })
        };
        drop(retired);

        let response = slot
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .take();
        response.unwrap_or_else(|| ServiceResponse::failure(ServiceError::new(ErrorCode::Internal)))
    }

    /// Apply every queued mutation in arrival order (including mutations
    /// that enqueue *while* we drain — they join this batch instead of
    /// waiting a full gate cycle).
    ///
    /// Each mutation is applied under `catch_unwind`: a panicking mutation
    /// marks *its own* slot failed with a stable `Internal` code and the
    /// drain keeps going, so one poisoned request cannot take down every
    /// writer behind it. (The gate mutex is already re-entered through
    /// `into_inner` on poison, so the catalog keeps serving either way —
    /// this just turns "all writers see a broken gate" into "one writer
    /// gets one typed error".)
    ///
    /// On a *persistent* catalog a caught panic is not enough by itself:
    /// the mutation's WAL record was fsynced before the in-memory apply
    /// tore, so disk says "applied" while the caller was told "failed" and
    /// memory is half-mutated. [`Cmdl::recover_after_panic`] compensates —
    /// it marks the record aborted in the WAL and reloads memory from
    /// disk, so all three agree the mutation never happened. If even that
    /// fails, the gate is wedged: further mutations are refused rather
    /// than served from unreconcilable state.
    fn drain_queue(&self, cmdl: &mut Cmdl) {
        loop {
            let Some(pending) = self
                .queue
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .pop_front()
            else {
                return;
            };
            let kind = pending.request.kind();
            let wal_mark = cmdl.wal_mark();
            // While a background reconfiguration is in flight, keep a copy
            // of the request so the rebuilt catalog can replay it. Cloned
            // before the apply (which consumes the request); recorded after
            // only if the apply succeeded.
            let replay_copy = self
                .recording
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .is_some()
                .then(|| pending.request.clone());
            let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Self::apply_mutation(&mut *cmdl, pending.request)
            }))
            .unwrap_or_else(|panic| {
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "mutation panicked".to_string());
                eprintln!("cmdl: {kind} mutation panicked in the writer gate: {detail}");
                if cmdl.is_persistent() {
                    if let Err(e) = cmdl.recover_after_panic(wal_mark) {
                        eprintln!(
                            "cmdl: panic compensation failed ({e}); wedging the writer \
                             gate — mutations disabled until restart"
                        );
                        self.wedged.store(true, Ordering::SeqCst);
                    }
                }
                ServiceResponse::failure(ServiceError::with_subject(ErrorCode::Internal, detail))
            });
            if response.ok {
                if let Some(request) = replay_copy {
                    if let Some(log) = self
                        .recording
                        .lock()
                        .unwrap_or_else(|poison| poison.into_inner())
                        .as_mut()
                    {
                        log.push(request);
                    }
                }
            }
            *pending
                .result
                .lock()
                .unwrap_or_else(|poison| poison.into_inner()) = Some(response);
        }
    }

    /// Online reconfiguration — the Polynesia-style "build the new layout
    /// off the critical path, then propagate" protocol, in three phases:
    ///
    /// 1. **Pin** (brief writer hold): drain the queue, publish, snapshot
    ///    the *lake* (source tuples, not indexes) as the rebuild base, and
    ///    start recording every mutation the gate applies from here on.
    /// 2. **Rebuild** (no locks): `Cmdl::build(base, new_config)` — the
    ///    expensive part. Queries keep hitting the published snapshot;
    ///    ingests keep landing on the live catalog (and the recording).
    ///    A joint model is carried over (re-embedded, not retrained) when
    ///    the new config keeps its dimensionality.
    /// 3. **Swap** (brief writer hold): drain once more, stop recording,
    ///    replay the recorded deltas onto the rebuilt catalog, raise its
    ///    generation above the retiring catalog's (so generation-keyed
    ///    caches invalidate), hand over the persistence layer (checkpoint
    ///    under the new config), and publish the rebuilt catalog as the
    ///    next generation.
    ///
    /// Any failure aborts: the live catalog — which kept serving and
    /// absorbing mutations throughout — stays in place untouched.
    fn reconfigure(&self, config: CmdlConfig) -> ServiceResponse {
        if self.wedged.load(Ordering::SeqCst) {
            return ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::Internal,
                "writer gate wedged: in-memory state could not be reconciled with \
                 disk after a panic; restart to recover",
            ));
        }
        if config.shards > 1 {
            return ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::InvalidQuery,
                "reconfigure cannot change the shard count; restart with a sharded config",
            ));
        }
        if self
            .reconfiguring
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::ReconfigurePending,
                "a background reconfiguration is already in flight for this lake",
            ));
        }

        // Phase 1: pin the rebuild base and start recording deltas.
        let (base_lake, carried_joint) = {
            let mut cmdl = self
                .writer
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            self.drain_queue(&mut cmdl);
            drop(publish(&self.published, cmdl.snapshot()));
            *self
                .recording
                .lock()
                .unwrap_or_else(|poison| poison.into_inner()) = Some(Vec::new());
            let carry = (cmdl.config.embedding_dim == config.embedding_dim
                && cmdl.config.joint_dim == config.joint_dim)
                .then(|| cmdl.joint_model_arc())
                .flatten();
            (cmdl.profiled.lake.clone(), carry)
        };

        // Phase 2: the expensive rebuild, entirely outside the gate.
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut shadow = Cmdl::build(base_lake, config);
            if let Some(model) = carried_joint {
                shadow.adopt_joint(model);
            }
            shadow
        }));
        let mut shadow = match built {
            Ok(shadow) => shadow,
            Err(panic) => {
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "background rebuild panicked".to_string());
                eprintln!("cmdl: reconfigure rebuild panicked: {detail}");
                return self
                    .abort_reconfigure(ServiceError::with_subject(ErrorCode::Internal, detail));
            }
        };

        // Phase 3: replay the recorded deltas and swap.
        let mut cmdl = self
            .writer
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        self.drain_queue(&mut cmdl);
        let recorded = self
            .recording
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .take()
            .unwrap_or_default();
        for request in recorded {
            let kind = request.kind();
            let outcome = Self::apply_mutation(&mut shadow, request);
            if !outcome.ok {
                drop(cmdl);
                return self.abort_reconfigure(ServiceError::with_subject(
                    ErrorCode::Internal,
                    format!(
                        "reconfigure aborted: replaying a recorded {kind} onto the \
                         rebuilt catalog failed; the old catalog keeps serving"
                    ),
                ));
            }
        }
        // Strictly above the retiring catalog's generation, so
        // generation-keyed result caches observe the swap.
        shadow.set_generation_floor(cmdl.generation() + 1);
        if cmdl.is_persistent() {
            let handle = cmdl
                .take_persistence()
                .expect("persistent catalog has a handle");
            shadow.install_persistence(handle);
            if let Err(error) = shadow.checkpoint() {
                // Undo the handoff: the directory still describes the old
                // catalog, which keeps both the handle and the traffic.
                let handle = shadow.take_persistence().expect("just installed");
                cmdl.install_persistence(handle);
                drop(cmdl);
                return self.abort_reconfigure(ServiceError::from(error));
            }
        }
        let retiring = std::mem::replace(&mut *cmdl, shadow);
        let generation = cmdl.generation();
        let retired = publish(&self.published, cmdl.snapshot());
        drop(cmdl);
        drop((retiring, retired));
        self.reconfiguring.store(false, Ordering::SeqCst);
        ServiceResponse::success(ResponsePayload::Reconfigured { generation })
    }

    /// Tear down an in-flight reconfiguration (recording off, flag
    /// cleared) and wrap `error` in a failure envelope. The live catalog
    /// is untouched by construction — aborts never mutate it.
    fn abort_reconfigure(&self, error: ServiceError) -> ServiceResponse {
        *self
            .recording
            .lock()
            .unwrap_or_else(|poison| poison.into_inner()) = None;
        self.reconfiguring.store(false, Ordering::SeqCst);
        ServiceResponse::failure(error)
    }

    fn apply_mutation(cmdl: &mut Cmdl, request: ServiceRequest) -> ServiceResponse {
        match request {
            ServiceRequest::IngestTable(table) => match cmdl.ingest_table(table) {
                Ok(table) => ServiceResponse::success(ResponsePayload::IngestedTable {
                    table,
                    generation: cmdl.generation(),
                }),
                Err(error) => ServiceResponse::failure(error.into()),
            },
            ServiceRequest::IngestDocument(document) => match cmdl.ingest_document(document) {
                Ok(document) => ServiceResponse::success(ResponsePayload::IngestedDocument {
                    document,
                    generation: cmdl.generation(),
                }),
                Err(error) => ServiceResponse::failure(error.into()),
            },
            ServiceRequest::RemoveTable { name } => match cmdl.remove_table(&name) {
                Ok(elements) => ServiceResponse::success(ResponsePayload::RemovedTable {
                    elements,
                    generation: cmdl.generation(),
                }),
                Err(error) => ServiceResponse::failure(error.into()),
            },
            ServiceRequest::RemoveDocument { index } => match cmdl.remove_document(index) {
                Ok(()) => ServiceResponse::success(ResponsePayload::RemovedDocument {
                    generation: cmdl.generation(),
                }),
                Err(error) => ServiceResponse::failure(error.into()),
            },
            ServiceRequest::Compact => {
                cmdl.compact();
                ServiceResponse::success(ResponsePayload::Compacted {
                    generation: cmdl.generation(),
                })
            }
            other => {
                debug_assert!(false, "read {} routed to writer gate", other.kind());
                ServiceResponse::failure(ServiceError::new(ErrorCode::Internal))
            }
        }
    }
}

impl ShardedGate {
    /// Apply a mutation straight on the router (its per-shard gates do the
    /// serialization, so concurrent ingests to different shards
    /// parallelize) and publish a fresh snapshot.
    ///
    /// A panicking mutation wedges the whole gate: the router's internal
    /// locks may be poisoned mid-update and there is no WAL to reconcile
    /// from, so refusing further mutations (while reads keep serving the
    /// last published snapshot) is the safe degraded mode.
    fn submit_mutation(&self, request: ServiceRequest) -> ServiceResponse {
        if self.wedged.load(Ordering::SeqCst) {
            return ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::Internal,
                "sharded writer wedged after a panicked mutation; restart to recover".to_string(),
            ));
        }
        let kind = request.kind();
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Self::apply_mutation(&self.router, request)
        }))
        .unwrap_or_else(|panic| {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "mutation panicked".to_string());
            eprintln!("cmdl: {kind} mutation panicked in the shard router: {detail}");
            self.wedged.store(true, Ordering::SeqCst);
            ServiceResponse::failure(ServiceError::with_subject(ErrorCode::Internal, detail))
        });
        if response.ok {
            // Publish monotonically: a slower writer must not clobber a
            // newer generation another writer already published.
            let snapshot = self.router.snapshot();
            let generation = snapshot.generation;
            drop(publish_if(&self.published, snapshot, |current| {
                generation >= current.generation
            }));
        }
        response
    }

    fn apply_mutation(router: &ShardedCmdl, request: ServiceRequest) -> ServiceResponse {
        match request {
            ServiceRequest::IngestTable(table) => match router.ingest_table(table) {
                Ok(table) => ServiceResponse::success(ResponsePayload::IngestedTable {
                    table,
                    generation: router.generation(),
                }),
                Err(error) => ServiceResponse::failure(error.into()),
            },
            ServiceRequest::IngestDocument(document) => match router.ingest_document(document) {
                Ok(document) => ServiceResponse::success(ResponsePayload::IngestedDocument {
                    document,
                    generation: router.generation(),
                }),
                Err(error) => ServiceResponse::failure(error.into()),
            },
            ServiceRequest::RemoveTable { name } => match router.remove_table(&name) {
                Ok(elements) => ServiceResponse::success(ResponsePayload::RemovedTable {
                    elements,
                    generation: router.generation(),
                }),
                Err(error) => ServiceResponse::failure(error.into()),
            },
            ServiceRequest::RemoveDocument { index } => match router.remove_document(index) {
                Ok(()) => ServiceResponse::success(ResponsePayload::RemovedDocument {
                    generation: router.generation(),
                }),
                Err(error) => ServiceResponse::failure(error.into()),
            },
            ServiceRequest::Compact => {
                router.compact();
                ServiceResponse::success(ResponsePayload::Compacted {
                    generation: router.generation(),
                })
            }
            other => {
                debug_assert!(false, "read {} routed to writer gate", other.kind());
                ServiceResponse::failure(ServiceError::new(ErrorCode::Internal))
            }
        }
    }
}

/// Serialize an envelope with the zero-DOM streaming serializer.
pub(crate) fn serialize_response(response: &ServiceResponse) -> Vec<u8> {
    let mut out = String::new();
    serialize_response_into(response, &mut out);
    out.into_bytes()
}

/// Stream an envelope into a reusable buffer (appended). The streaming
/// serializer is infallible and byte-identical to the DOM path, which the
/// round-trip fuzz suite asserts.
pub(crate) fn serialize_response_into(response: &ServiceResponse, out: &mut String) {
    serde_json::write_to_string(response, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_core::{CmdlConfig, QueryBuilder};
    use cmdl_datalake::{synth, Column};

    fn service() -> CmdlService {
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        CmdlService::new(Cmdl::build(lake, CmdlConfig::fast()))
    }

    fn sharded_service(shards: usize) -> CmdlService {
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        let mut config = CmdlConfig::fast();
        config.shards = shards;
        CmdlService::build(lake, config)
    }

    #[test]
    fn reads_pin_published_snapshot() {
        let service = service();
        let snap = service.snapshot();
        service.ingest_document(Document::new("n", "s", "a note about pharmacology"));
        assert!(service.snapshot().generation > snap.generation);
        // The earlier pin is untouched.
        assert_eq!(snap.generation, 0);
    }

    #[test]
    fn query_routes_to_envelope() {
        let service = service();
        let response = service.handle(ServiceRequest::Query(QueryBuilder::keyword("drug").build()));
        assert!(response.ok);
        match response.payload {
            Some(ResponsePayload::Query(inner)) => assert!(!inner.hits.is_empty()),
            other => panic!("wrong payload: {other:?}"),
        }
        assert_eq!(service.metrics().requests_total(), 1);
    }

    #[test]
    fn mutations_publish_new_generations_in_order() {
        let service = service();
        let r1 = service.ingest_table(Table::new(
            "Gate_A",
            vec![Column::from_texts("v", ["x", "y"])],
        ));
        let r2 = service.ingest_table(Table::new(
            "Gate_B",
            vec![Column::from_texts("v", ["p", "q"])],
        ));
        let (g1, g2) = match (r1.payload, r2.payload) {
            (
                Some(ResponsePayload::IngestedTable { generation: g1, .. }),
                Some(ResponsePayload::IngestedTable { generation: g2, .. }),
            ) => (g1, g2),
            other => panic!("wrong payloads: {other:?}"),
        };
        assert!(g2 > g1);
        assert_eq!(service.snapshot().generation, g2);
        let stats = service.snapshot().stats();
        assert!(stats.tables >= 2);
    }

    #[test]
    fn duplicate_table_surfaces_stable_code() {
        let service = service();
        let table = Table::new("Dup", vec![Column::from_texts("v", ["x"])]);
        assert!(service.ingest_table(table.clone()).ok);
        let response = service.ingest_table(table);
        assert!(!response.ok);
        assert_eq!(response.error_code(), Some(ErrorCode::DuplicateTable));
        assert_eq!(
            response.error.unwrap().subject.as_deref(),
            Some("Dup"),
            "subject carries the identifier, not prose"
        );
    }

    #[test]
    fn panicking_mutation_fails_alone_and_gate_keeps_serving() {
        let service = service();
        // Smuggle a read request into the writer queue: `apply_mutation`
        // debug-asserts on it (a panic under `cargo test`), exercising the
        // catch_unwind isolation in `drain_queue`. In release builds the
        // same arm returns the Internal envelope directly, so the
        // assertions hold in both profiles.
        let slot = Arc::new(Mutex::new(None));
        service
            .single_gate()
            .queue
            .lock()
            .unwrap()
            .push_back(PendingMutation {
                request: ServiceRequest::Stats,
                result: Arc::clone(&slot),
            });
        service.flush();
        let response = slot.lock().unwrap().take().expect("slot filled by drain");
        assert!(!response.ok);
        assert_eq!(response.error_code(), Some(ErrorCode::Internal));
        // The gate survives: later mutations still succeed.
        assert!(
            service
                .ingest_document(Document::new("n", "s", "still serving"))
                .ok
        );
    }

    #[test]
    fn panicking_mutation_on_persistent_catalog_reconciles_with_disk() {
        let dir = std::env::temp_dir().join(format!(
            "cmdl-service-panic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        let service =
            CmdlService::open(&dir, CmdlConfig::fast(), move || lake).expect("durable open");
        // An acked mutation whose only durable home is the WAL.
        assert!(
            service
                .ingest_document(Document::new("n", "s", "durable note"))
                .ok
        );
        // Smuggle a read into the writer queue: `apply_mutation`
        // debug-asserts on it, so under `cargo test` the drain catches a
        // panic on a *persistent* catalog and must compensate — abort the
        // (zero) WAL records of the failed mutation and reload memory from
        // disk — instead of serving half-applied state. In release the
        // same arm returns the Internal envelope without panicking.
        let slot = Arc::new(Mutex::new(None));
        service
            .single_gate()
            .queue
            .lock()
            .unwrap()
            .push_back(PendingMutation {
                request: ServiceRequest::Stats,
                result: Arc::clone(&slot),
            });
        service.flush();
        let response = slot.lock().unwrap().take().expect("slot filled by drain");
        assert!(!response.ok);
        // Compensation succeeded: the gate is not wedged and health is ok.
        match service.handle(ServiceRequest::Health).payload {
            Some(ResponsePayload::Health(h)) => assert_eq!(h.status, "ok"),
            other => panic!("wrong payload: {other:?}"),
        }
        // The reload kept the acked mutation and the gate keeps serving.
        let stats = service.snapshot().stats();
        assert!(stats.documents >= 1);
        assert!(
            service
                .ingest_document(Document::new("n2", "s", "still serving"))
                .ok
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_refuses_shards_without_touching_the_directory() {
        let dir = std::env::temp_dir().join(format!(
            "cmdl-service-sharded-open-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CmdlConfig {
            shards: 2,
            ..CmdlConfig::fast()
        };
        match CmdlService::open(&dir, config, || panic!("a refused open builds nothing")) {
            Err(CmdlError::InvalidQuery(reason)) => {
                assert!(reason.contains("shards"), "names the knob: {reason}")
            }
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(service) => panic!("opened {} shard(s) for shards = 2", service.num_shards()),
        }
        assert!(!dir.exists(), "a refused open must not create {dir:?}");
    }

    #[test]
    fn malformed_bytes_yield_malformed_request() {
        let service = service();
        let out = service.handle_json_bytes(b"{not json");
        let response: ServiceResponse =
            serde_json::from_str(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(response.error_code(), Some(ErrorCode::MalformedRequest));
        assert!(service.metrics().errors_total() >= 1);
    }

    #[test]
    fn sharded_service_answers_the_same_contract() {
        let single = service();
        let sharded = sharded_service(3);
        assert_eq!(sharded.num_shards(), 3);
        assert!(sharded.sharded_snapshot().is_some());
        assert!(single.sharded_snapshot().is_none());
        let request = ServiceRequest::Query(QueryBuilder::keyword("drug").top_k(5).build());
        let (a, b) = (single.handle(request.clone()), sharded.handle(request));
        match (a.payload, b.payload) {
            (Some(ResponsePayload::Query(qa)), Some(ResponsePayload::Query(qb))) => {
                assert_eq!(qa.hits, qb.hits, "sharded service must keep bit parity");
            }
            other => panic!("wrong payloads: {other:?}"),
        }
        // Health and stats flow through the same envelopes.
        match sharded.handle(ServiceRequest::Health).payload {
            Some(ResponsePayload::Health(h)) => assert_eq!(h.status, "ok"),
            other => panic!("wrong payload: {other:?}"),
        }
        match sharded.handle(ServiceRequest::Stats).payload {
            Some(ResponsePayload::Stats(stats)) => assert!(stats.tables > 0),
            other => panic!("wrong payload: {other:?}"),
        }
        assert!(!sharded.render_metrics().is_empty());
    }

    #[test]
    fn sharded_mutations_publish_and_errors_stay_typed() {
        let sharded = sharded_service(2);
        let gen0 = match sharded.handle(ServiceRequest::Health).payload {
            Some(ResponsePayload::Health(h)) => h.generation,
            other => panic!("wrong payload: {other:?}"),
        };
        let table = Table::new("Shard_T", vec![Column::from_texts("v", ["x", "y"])]);
        assert!(sharded.ingest_table(table.clone()).ok);
        let dup = sharded.ingest_table(table);
        assert_eq!(dup.error_code(), Some(ErrorCode::DuplicateTable));
        let doc = sharded.ingest_document(Document::new("n", "s", "sharded note"));
        let doc_index = match doc.payload {
            Some(ResponsePayload::IngestedDocument { document, .. }) => document,
            other => panic!("wrong payload: {other:?}"),
        };
        let gen1 = match sharded.handle(ServiceRequest::Health).payload {
            Some(ResponsePayload::Health(h)) => h.generation,
            other => panic!("wrong payload: {other:?}"),
        };
        assert!(gen1 > gen0, "mutations must publish new generations");
        // The published snapshot serves the new table.
        let response = sharded.handle(ServiceRequest::Query(
            QueryBuilder::keyword("sharded note").top_k(5).build(),
        ));
        assert!(response.ok);
        assert!(
            sharded
                .handle(ServiceRequest::RemoveDocument { index: doc_index })
                .ok
        );
        assert!(
            sharded
                .handle(ServiceRequest::RemoveTable {
                    name: "Shard_T".into()
                })
                .ok
        );
        assert_eq!(
            sharded
                .handle(ServiceRequest::RemoveTable {
                    name: "Shard_T".into()
                })
                .error_code(),
            Some(ErrorCode::UnknownTable)
        );
        assert!(sharded.handle(ServiceRequest::Compact).ok);
    }

    #[test]
    fn recover_on_healthy_gates_is_a_noop_success() {
        for service in [service(), sharded_service(2)] {
            let response = service.handle(ServiceRequest::Recover);
            assert!(response.ok, "healthy gates recover as a no-op");
            match response.payload {
                Some(ResponsePayload::Recovered { was_wedged, .. }) => {
                    assert!(!was_wedged);
                }
                other => panic!("wrong payload: {other:?}"),
            }
        }
    }

    #[test]
    fn recover_rewedges_until_the_manifest_returns() {
        if !cfg!(debug_assertions) {
            // The wedge is induced by the debug assertion on a smuggled
            // read request; release builds answer it without panicking.
            return;
        }
        let dir = std::env::temp_dir().join(format!(
            "cmdl-service-recover-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        let service =
            CmdlService::open(&dir, CmdlConfig::fast(), move || lake).expect("durable open");
        assert!(
            service
                .ingest_document(Document::new("n", "s", "durable note"))
                .ok
        );
        // Hide the manifest so the in-gate compensation (and any later
        // reconciliation) cannot reload from the checkpoint.
        let manifest = dir.join("MANIFEST");
        let aside = dir.join("MANIFEST.aside");
        std::fs::rename(&manifest, &aside).expect("move manifest aside");
        let slot = Arc::new(Mutex::new(None));
        service
            .single_gate()
            .queue
            .lock()
            .unwrap()
            .push_back(PendingMutation {
                request: ServiceRequest::Stats,
                result: Arc::clone(&slot),
            });
        service.flush();
        assert!(!slot.lock().unwrap().take().expect("slot filled").ok);
        assert!(service.is_wedged(), "failed compensation wedges the gate");
        // Recover re-runs reconciliation; with the manifest still missing
        // it fails with a typed persistence error and stays wedged.
        let failed = service.handle(ServiceRequest::Recover);
        assert_eq!(failed.error_code(), Some(ErrorCode::Persist));
        assert!(service.is_wedged());
        assert_eq!(
            service
                .ingest_document(Document::new("n2", "s", "refused"))
                .error_code(),
            Some(ErrorCode::Internal),
            "a wedged gate refuses mutations"
        );
        // Repair the directory and recover for real.
        std::fs::rename(&aside, &manifest).expect("restore manifest");
        let recovered = service.handle(ServiceRequest::Recover);
        assert!(recovered.ok, "recover succeeds once the manifest is back");
        match recovered.payload {
            Some(ResponsePayload::Recovered { was_wedged, .. }) => assert!(was_wedged),
            other => panic!("wrong payload: {other:?}"),
        }
        assert!(!service.is_wedged());
        // The acked mutation survived and the gate serves writes again.
        assert!(service.snapshot().stats().documents >= 1);
        assert!(
            service
                .ingest_document(Document::new("n3", "s", "serving again"))
                .ok
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
