//! The event-driven HTTP front end: an epoll readiness loop serving the
//! read path of [`CmdlService`](crate::CmdlService) with request coalescing and a
//! generation-keyed result cache.
//!
//! # Why a reactor
//!
//! A blocking front end (the [`blocking`](crate::blocking) fallback)
//! dedicates a thread to every live connection: simple, but a fleet of
//! idle keep-alive connections pins a stack each, and each request
//! executes alone even when ten arrive together. The reactor inverts the
//! cost model: one loop thread owns every socket through a vendored epoll
//! shim ([`sys`]), each connection is a small state machine
//! ([`conn::Conn`]) wrapping a resumable parser
//! ([`parser::RequestParser`]), and ten thousand idle connections cost
//! tens of megabytes, not ten thousand threads. Both front ends share the
//! parser and the route table ([`route_envelope`](crate::route_envelope)),
//! so they answer byte-for-byte alike.
//!
//! # Request flow
//!
//! Readiness events are processed in **ticks** (one `epoll_wait` batch):
//!
//! 1. Readable connections feed their bytes into the resumable parser;
//!    each completed request takes a sequence number on its connection
//!    (responses must leave in request order even when they complete out
//!    of order — [`conn::ResponseQueue`]).
//! 2. `GET /metrics`, unroutable paths, and unframeable requests are
//!    answered inline on the loop thread by the shared router (metrics
//!    recording included).
//! 3. Single `POST /query` requests resolve their tenant (the
//!    `/t/<name>/` path prefix; un-prefixed paths are the default tenant),
//!    reserve an in-flight admission slot, then probe that tenant's
//!    partition of the [`cache::ResultCache`] under the tenant's currently
//!    published generation: a hit completes inline with the cached
//!    envelope bytes (an `Arc` clone, no copy, no execution). Misses are
//!    **coalesced per tenant**: every missing `/query` for the same lake
//!    in the same tick is gathered into one executor job that pins *one*
//!    snapshot and runs *one*
//!    [`CmdlService::execute_coalesced`](crate::CmdlService::execute_coalesced) sweep —
//!    per-profile candidate generation amortizes across concurrent
//!    requests exactly as it does across an explicit `/batch`. Cache
//!    partitions are keyed by tenant *incarnation* (name + epoch), so a
//!    dropped-then-recreated lake can never serve a previous life's
//!    entries.
//! 4. Everything else (mutations, `/batch`, `/stats`, lake management, …)
//!    dispatches to a small executor pool as an individual
//!    [`TenantHub::handle_json`](crate::TenantHub::handle_json) call —
//!    mutations keep routing through the owning tenant's writer gate, and
//!    the hub applies admission control and quota checks; the reactor owns
//!    read traffic, not write semantics.
//!
//! Completions return to the loop through an [`sys::EventFd`] wakeup and
//! are spliced into their connection's response queue.
//!
//! # Deadlines
//!
//! Three per-connection deadlines guard the loop, tracked in one lazy
//! binary heap: a **read deadline** armed when framing starts and *not*
//! refreshed by trickled bytes (a slow-loris peer dripping one header byte
//! per second is reaped after `read_deadline`, while idle keep-alive
//! connections are untouched); a **write deadline** while response bytes
//! are buffered; and an **idle timeout** for keep-alive sessions.

pub mod cache;
pub mod conn;
pub mod parser;
#[cfg(target_os = "linux")]
pub mod sys;

use std::time::Duration;

use crate::reactor::cache::CacheConfig;

/// Configuration of the reactor front end.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral loopback port).
    pub addr: String,
    /// Open-connection cap; connections beyond it are shed with `429`.
    pub max_connections: usize,
    /// Executor threads running service calls off the loop thread.
    pub executor_threads: usize,
    /// Deadline for completing a request whose framing has started — the
    /// slow-loris bound. Also bounds how long a peer may take to drain
    /// buffered response bytes.
    pub read_deadline: Duration,
    /// How long an idle keep-alive connection is held before being reaped.
    pub idle_timeout: Duration,
    /// Result-cache sizing (set `enabled: false` to measure cold paths).
    pub cache: CacheConfig,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 16_384,
            executor_threads: 4,
            read_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(120),
            cache: CacheConfig::default(),
        }
    }
}

#[cfg(target_os = "linux")]
pub use serve::{serve_reactor, serve_reactor_hub, ReactorHandle};

#[cfg(target_os = "linux")]
mod serve {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    use std::io::Read;
    use std::net::{SocketAddr, TcpListener};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, Arc, Mutex};
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    use cmdl_core::{DiscoveryQuery, ErrorCode};

    use super::ReactorConfig;
    use crate::api::{http_status, ServiceError, ServiceRequest, ServiceResponse};
    use crate::metrics::ServiceMetrics;
    use crate::reactor::cache::{CacheOutcome, ResultCache};
    use crate::reactor::conn::{Body, Conn, ConnPhase, Outgoing};
    use crate::reactor::parser::{ParseEvent, ParsedRequest};
    use crate::reactor::sys::{
        Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
    };
    use crate::route::{handle, query_envelope, route, shed, Answer, Routed, CONTINUE_100};
    use crate::service::{serialize_response, CmdlService};
    use crate::tenants::{InflightPermit, Tenant, TenantHub, DEFAULT_TENANT};

    const TOKEN_LISTENER: u64 = u64::MAX;
    const TOKEN_WAKE: u64 = u64::MAX - 1;

    fn token_for(idx: usize, epoch: u32) -> u64 {
        (idx as u64) | ((epoch as u64) << 32)
    }

    fn slot_of(token: u64) -> usize {
        (token & 0xFFFF_FFFF) as usize
    }

    fn epoch_of(token: u64) -> u32 {
        (token >> 32) as u32
    }

    /// One `/query` awaiting the tick's coalesced execution.
    struct QueryItem {
        token: u64,
        seq: u64,
        body: Vec<u8>,
        keep_alive: bool,
        /// The tenant's admission slot, reserved on the loop thread before
        /// the cache probe and held until the coalesced execution finishes
        /// (released when the item drops).
        #[allow(dead_code)]
        permit: Option<InflightPermit>,
    }

    /// One tenant's cache-missing `/query` items gathered during the
    /// current tick — they coalesce into one executor job pinning one of
    /// *that tenant's* snapshots.
    struct TickGroup {
        tenant: Arc<Tenant>,
        cache: Arc<ResultCache>,
        items: Vec<QueryItem>,
    }

    /// Work shipped to the executor pool.
    enum Job {
        /// One non-`/query` request: the spliced envelope through the hub's
        /// `handle_json` (admission control included).
        Single {
            tenant: String,
            token: u64,
            seq: u64,
            envelope: String,
            keep_alive: bool,
        },
        /// Every cache-missing `/query` for one tenant gathered in one
        /// readiness tick.
        Coalesce {
            tenant: Arc<Tenant>,
            cache: Arc<ResultCache>,
            items: Vec<QueryItem>,
        },
    }

    /// A finished executor job item, headed back to the loop thread.
    struct Completion {
        token: u64,
        seq: u64,
        status: u16,
        body: Body,
        keep_alive: bool,
    }

    /// State shared between the handle, the loop thread, and the workers.
    struct Shared {
        shutdown: AtomicBool,
        /// Grace the loop grants in-flight work once it observes shutdown.
        drain_grace_ms: AtomicU64,
        wake: EventFd,
        completions: Mutex<Vec<Completion>>,
    }

    /// One connection slot. The epoch increments on every close so stale
    /// epoll events and late completions for a recycled slot are ignored.
    struct Slot {
        epoch: u32,
        conn: Option<Conn>,
    }

    /// A running reactor. Dropping the handle without calling
    /// [`shutdown`](ReactorHandle::shutdown) leaves the threads running for
    /// the process lifetime.
    pub struct ReactorHandle {
        addr: SocketAddr,
        shared: Arc<Shared>,
        loop_thread: Option<JoinHandle<()>>,
        workers: Vec<JoinHandle<()>>,
        hub: Arc<TenantHub>,
        cache: Arc<ResultCache>,
    }

    impl ReactorHandle {
        /// The bound address (useful with an ephemeral port).
        pub fn addr(&self) -> SocketAddr {
            self.addr
        }

        /// The *default tenant's* result-cache partition (tests inspect
        /// occupancy; sharing the `Arc` keeps it observable after
        /// shutdown). Other tenants' partitions live on the loop thread,
        /// keyed by incarnation; if the default lake is dropped and
        /// recreated, this handle keeps observing the retired partition.
        pub fn cache(&self) -> &Arc<ResultCache> {
            &self.cache
        }

        /// Graceful shutdown with a 30-second join bound: see
        /// [`shutdown_within`](ReactorHandle::shutdown_within).
        pub fn shutdown(self) -> bool {
            self.shutdown_within(Duration::from_secs(30))
        }

        /// Gracefully stop serving:
        ///
        /// 1. stop accepting and close idle keep-alive connections;
        /// 2. drain in-flight work — requests already parsed are executed
        ///    and answered with `Connection: close`, bounded by a grace
        ///    period (≤ 5 s, clamped to `timeout`);
        /// 3. join the loop and executor threads, bounded by `timeout`
        ///    (stragglers are detached rather than hanging shutdown);
        /// 4. flush the writer queue — acknowledged mutations are applied
        ///    and fsynced before this returns.
        ///
        /// Returns `true` when every thread joined within the bound.
        pub fn shutdown_within(mut self, timeout: Duration) -> bool {
            let deadline = Instant::now() + timeout;
            let grace = timeout.min(Duration::from_secs(5));
            self.shared
                .drain_grace_ms
                .store(grace.as_millis() as u64, Ordering::Relaxed);
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.wake.signal();
            let mut all_joined = true;
            if let Some(thread) = self.loop_thread.take() {
                all_joined &= join_within(thread, deadline);
            }
            for worker in self.workers.drain(..) {
                all_joined &= join_within(worker, deadline);
            }
            self.hub.flush_all();
            all_joined
        }
    }

    fn join_within(handle: JoinHandle<()>, deadline: Instant) -> bool {
        loop {
            if handle.is_finished() {
                let _ = handle.join();
                return true;
            }
            if Instant::now() >= deadline {
                return false; // detach: exits with the process
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Bind and serve one [`CmdlService`](crate::CmdlService) through the
    /// reactor — single-tenant compatibility mode, wrapping the service as
    /// the default tenant of a [`TenantHub`](crate::TenantHub).
    pub fn serve_reactor(
        service: Arc<CmdlService>,
        config: ReactorConfig,
    ) -> std::io::Result<ReactorHandle> {
        serve_reactor_hub(TenantHub::single(service), config)
    }

    /// Bind and serve a [`TenantHub`](crate::TenantHub) — many named lakes
    /// behind one reactor, addressed by the `/t/<name>/` path prefix —
    /// through the epoll loop.
    pub fn serve_reactor_hub(
        hub: Arc<TenantHub>,
        config: ReactorConfig,
    ) -> std::io::Result<ReactorHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let epoll = Epoll::new()?;
        let wake = EventFd::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake.raw_fd(), EPOLLIN, TOKEN_WAKE)?;

        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            drain_grace_ms: AtomicU64::new(2_000),
            wake,
            completions: Mutex::new(Vec::new()),
        });
        // Pre-create the default tenant's cache partition so the handle
        // can expose it; the loop thread creates every other partition
        // lazily, keyed by tenant incarnation.
        let default_cache = Arc::new(ResultCache::new(config.cache.clone()));
        let mut caches = HashMap::new();
        if let Some(tenant) = hub.tenant(DEFAULT_TENANT) {
            caches.insert(
                DEFAULT_TENANT.to_string(),
                (tenant.epoch(), Arc::clone(&default_cache)),
            );
        }

        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let mut workers = Vec::with_capacity(config.executor_threads.max(1));
        for _ in 0..config.executor_threads.max(1) {
            let hub = Arc::clone(&hub);
            let shared = Arc::clone(&shared);
            let jobs_rx = Arc::clone(&jobs_rx);
            workers.push(std::thread::spawn(move || {
                run_worker(&hub, &shared, &jobs_rx)
            }));
        }

        let reactor = Reactor {
            epoll,
            listener,
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            heap: BinaryHeap::new(),
            dirty: Vec::new(),
            tick_queries: HashMap::new(),
            hub: Arc::clone(&hub),
            caches,
            shared: Arc::clone(&shared),
            jobs: jobs_tx,
            config,
            draining: None,
        };
        let loop_thread = std::thread::spawn(move || reactor.run());

        Ok(ReactorHandle {
            addr,
            shared,
            loop_thread: Some(loop_thread),
            workers,
            hub,
            cache: default_cache,
        })
    }

    // ---------------------------------------------------------------
    // Executor workers
    // ---------------------------------------------------------------

    fn run_worker(hub: &TenantHub, shared: &Shared, jobs: &Mutex<mpsc::Receiver<Job>>) {
        loop {
            // Standard shared-receiver pattern: the lock is held only while
            // *waiting*; job execution happens outside it, so workers run
            // concurrently.
            let job = match jobs.lock().unwrap_or_else(|p| p.into_inner()).recv() {
                Ok(job) => job,
                Err(_) => return, // loop thread gone: no more work
            };
            // Panic isolation: a panicking request costs its own job an
            // `Internal` envelope, not an executor thread.
            let owed: Vec<(u64, u64, bool)> = match &job {
                Job::Single {
                    token,
                    seq,
                    keep_alive,
                    ..
                } => vec![(*token, *seq, *keep_alive)],
                Job::Coalesce { items, .. } => items
                    .iter()
                    .map(|i| (i.token, i.seq, i.keep_alive))
                    .collect(),
            };
            let completions =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_job(hub, job)))
                    .unwrap_or_else(|_| {
                        let body = serialize_response(&ServiceResponse::failure(
                            ServiceError::new(ErrorCode::Internal),
                        ));
                        owed.into_iter()
                            .map(|(token, seq, keep_alive)| Completion {
                                token,
                                seq,
                                status: 500,
                                body: Body::Owned(body.clone()),
                                keep_alive,
                            })
                            .collect()
                    });
            shared
                .completions
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .extend(completions);
            shared.wake.signal();
        }
    }

    fn execute_job(hub: &TenantHub, job: Job) -> Vec<Completion> {
        match job {
            Job::Single {
                tenant,
                token,
                seq,
                envelope,
                keep_alive,
            } => {
                let Answer { status, body, .. } = handle(hub, &tenant, &envelope);
                vec![Completion {
                    token,
                    seq,
                    status,
                    body: Body::Owned(body),
                    keep_alive,
                }]
            }
            Job::Coalesce {
                tenant,
                cache,
                items,
            } => {
                let service = tenant.service();
                // Splice each body into the router's `{"Query": …}` envelope,
                // so a body that fails to parse falls back to `handle_json`
                // and yields the byte-identical `MalformedRequest` envelope
                // (and identical metrics).
                let mut queries: Vec<DiscoveryQuery> = Vec::with_capacity(items.len());
                let mut plan: Vec<Result<usize, String>> = Vec::with_capacity(items.len());
                for item in &items {
                    let envelope = query_envelope(&String::from_utf8_lossy(&item.body));
                    match serde_json::from_str::<ServiceRequest>(&envelope) {
                        Ok(ServiceRequest::Query(query)) => {
                            plan.push(Ok(queries.len()));
                            queries.push(query);
                        }
                        _ => plan.push(Err(envelope)),
                    }
                }
                let started = Instant::now();
                let (generation, responses) = if queries.is_empty() {
                    (0, Vec::new())
                } else {
                    service.execute_coalesced(&queries)
                };
                let per_query_micros =
                    (started.elapsed().as_micros() as u64) / (queries.len().max(1) as u64);
                // `execute_coalesced` records per-query metrics into the
                // tenant's own counters; mirror them into the hub's global
                // totals when those are distinct (multi-tenant mode).
                let global: Option<&ServiceMetrics> =
                    (!Arc::ptr_eq(hub.metrics(), service.metrics_arc()))
                        .then(|| hub.metrics().as_ref());
                let mut response_iter = responses.into_iter();
                items
                    .iter()
                    .zip(plan)
                    .map(|(item, step)| {
                        let (response, cacheable) = match step {
                            Ok(_) => (response_iter.next().expect("response per query"), true),
                            Err(envelope) => {
                                let response = service.handle_json(envelope.as_bytes());
                                if let Some(global) = global {
                                    global.record_transport("malformed", response.error_code());
                                }
                                (response, false)
                            }
                        };
                        let status = response.error_code().map(http_status).unwrap_or(200);
                        let bytes = serialize_response(&response);
                        if cacheable {
                            if let Some(global) = global {
                                global.record("query", per_query_micros, response.error_code());
                            }
                            let evicted = cache.insert(
                                generation,
                                &item.body,
                                status,
                                response.error_code(),
                                &bytes,
                            );
                            if evicted > 0 {
                                service.metrics().record_cache_evicted(evicted);
                            }
                        }
                        Completion {
                            token: item.token,
                            seq: item.seq,
                            status,
                            body: Body::Owned(bytes),
                            keep_alive: item.keep_alive,
                        }
                    })
                    .collect()
            }
        }
    }

    // ---------------------------------------------------------------
    // The event loop
    // ---------------------------------------------------------------

    struct Reactor {
        epoll: Epoll,
        listener: TcpListener,
        slots: Vec<Slot>,
        free: Vec<usize>,
        open: usize,
        /// Lazily invalidated deadline heap: entries are validated against
        /// the connection's *current* deadline when they pop, so re-arming
        /// never needs to find and remove stale entries.
        heap: BinaryHeap<Reverse<(Instant, u64)>>,
        /// Connections whose response queues may have releasable items.
        dirty: Vec<u64>,
        /// `/query` cache misses gathered during the current tick, grouped
        /// by tenant name (each group coalesces into one executor job).
        tick_queries: HashMap<String, TickGroup>,
        hub: Arc<TenantHub>,
        /// Per-tenant result-cache partitions, keyed by name and tagged
        /// with the incarnation epoch they were created for; a recreated
        /// lake (new epoch) silently replaces its predecessor's partition.
        caches: HashMap<String, (u64, Arc<ResultCache>)>,
        shared: Arc<Shared>,
        jobs: mpsc::Sender<Job>,
        config: ReactorConfig,
        /// Set once shutdown is observed: the drain deadline.
        draining: Option<Instant>,
    }

    impl Reactor {
        fn run(mut self) {
            let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
            let mut scratch = vec![0u8; 64 * 1024];
            loop {
                if self.draining.is_none() && self.shared.shutdown.load(Ordering::Acquire) {
                    self.begin_drain();
                }
                if let Some(deadline) = self.draining {
                    if self.open == 0 || Instant::now() >= deadline {
                        return;
                    }
                }
                let n = match self.epoll.wait(&mut events, Some(self.next_timeout())) {
                    Ok(n) => n,
                    Err(_) => continue,
                };
                let now = Instant::now();
                for event in &events[..n] {
                    match event.token() {
                        TOKEN_LISTENER => self.accept_ready(now),
                        TOKEN_WAKE => self.shared.wake.drain(),
                        token => self.conn_ready(token, event.readiness(), now, &mut scratch),
                    }
                }
                self.drain_completions();
                // The coalescing window closes with the tick: every /query
                // that missed the cache in this batch of readiness events
                // rides one executor job and one pinned snapshot.
                if !self.tick_queries.is_empty() {
                    for (_, group) in std::mem::take(&mut self.tick_queries) {
                        let _ = self.jobs.send(Job::Coalesce {
                            tenant: group.tenant,
                            cache: group.cache,
                            items: group.items,
                        });
                    }
                }
                self.pump_dirty(now);
                self.reap_deadlines(now);
            }
        }

        fn next_timeout(&self) -> Duration {
            let base = if self.draining.is_some() {
                Duration::from_millis(10)
            } else {
                Duration::from_millis(250)
            };
            match self.heap.peek() {
                Some(&Reverse((when, _))) => when
                    .saturating_duration_since(Instant::now())
                    .min(base)
                    .max(Duration::from_millis(1)),
                None => base,
            }
        }

        fn begin_drain(&mut self) {
            let grace = Duration::from_millis(self.shared.drain_grace_ms.load(Ordering::Relaxed));
            self.draining = Some(Instant::now() + grace);
            let _ = self.epoll.delete(self.listener.as_raw_fd());
            for idx in 0..self.slots.len() {
                let is_idle = self.slots[idx]
                    .conn
                    .as_ref()
                    .map(|c| c.phase() == ConnPhase::Idle)
                    .unwrap_or(false);
                if is_idle {
                    self.close(idx);
                }
            }
        }

        fn accept_ready(&mut self, now: Instant) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.draining.is_some() || self.open >= self.config.max_connections {
                            shed(&self.hub, stream);
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let idx = match self.free.pop() {
                            Some(idx) => idx,
                            None => {
                                self.slots.push(Slot {
                                    epoch: 0,
                                    conn: None,
                                });
                                self.slots.len() - 1
                            }
                        };
                        let interest = EPOLLIN | EPOLLRDHUP;
                        let token = token_for(idx, self.slots[idx].epoch);
                        if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                            self.free.push(idx);
                            continue;
                        }
                        self.slots[idx].conn = Some(Conn::new(stream, now, interest));
                        self.open += 1;
                        self.hub.metrics().reactor_conn_opened();
                        self.arm_deadline(idx, now);
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        fn conn_ready(&mut self, token: u64, readiness: u32, now: Instant, scratch: &mut [u8]) {
            let idx = slot_of(token);
            if idx >= self.slots.len()
                || self.slots[idx].epoch != epoch_of(token)
                || self.slots[idx].conn.is_none()
            {
                return; // stale event for a recycled slot
            }
            if readiness & (EPOLLERR | EPOLLHUP) != 0 {
                self.close(idx);
                return;
            }
            if readiness & (EPOLLIN | EPOLLRDHUP) != 0 {
                self.readable(idx, token, now, scratch);
            }
            if self.slots[idx].conn.is_some() && readiness & EPOLLOUT != 0 {
                self.dirty.push(token);
            }
        }

        fn readable(&mut self, idx: usize, token: u64, now: Instant, scratch: &mut [u8]) {
            let mut failed = false;
            {
                let conn = self.slots[idx].conn.as_mut().expect("live conn");
                loop {
                    match conn.stream.read(scratch) {
                        Ok(0) => {
                            conn.eof = true;
                            break;
                        }
                        Ok(n) => {
                            if conn.stop_after.is_some() {
                                // A close-forcing request already stops the
                                // session: discard pipelined bytes behind it
                                // (reading them out avoids an RST racing the
                                // final response).
                                continue;
                            }
                            if conn.parser.feed(&scratch[..n]).is_err() {
                                // Framing violation: the stream position is
                                // undefined, so close without a response.
                                failed = true;
                                break;
                            }
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
            }
            if failed {
                self.close(idx);
                return;
            }
            loop {
                let conn = self.slots[idx].conn.as_mut().expect("live conn");
                let Some(event) = conn.parser.next_event() else {
                    break;
                };
                if conn.stop_after.is_some() {
                    continue; // pipelined behind a forced close: dropped
                }
                let seq = conn.queue.assign();
                match event {
                    ParseEvent::Continue100 => {
                        conn.queue.complete(seq, Outgoing::Raw(CONTINUE_100));
                        self.dirty.push(token);
                    }
                    ParseEvent::Request(request) => {
                        if !request.keep_alive {
                            conn.stop_after = Some(seq);
                        }
                        self.dispatch(idx, token, seq, request);
                    }
                }
            }
            {
                let conn = self.slots[idx].conn.as_mut().expect("live conn");
                if conn.parser.mid_request() {
                    // Slow-loris guard: armed when framing starts, never
                    // refreshed by subsequent trickled bytes.
                    if conn.read_deadline.is_none() {
                        conn.read_deadline = Some(now + self.config.read_deadline);
                    }
                } else {
                    conn.read_deadline = None;
                }
            }
            self.dirty.push(token);
            self.arm_deadline(idx, now);
        }

        /// Route one parsed request through the shared router: answers
        /// inline for transport-level outcomes, an executor job for spliced
        /// envelopes, and the admission → cache probe → per-tick coalescing
        /// path for `/query`.
        fn dispatch(&mut self, idx: usize, token: u64, seq: u64, request: ParsedRequest) {
            let hub = Arc::clone(&self.hub);
            let tenant_name = match route(&hub, &request) {
                Routed::Answer(Answer {
                    status,
                    content_type,
                    body,
                }) => {
                    self.complete_local(
                        idx,
                        token,
                        seq,
                        Outgoing::Response {
                            status,
                            content_type,
                            body: Body::Owned(body),
                            keep_alive: request.keep_alive,
                        },
                    );
                    return;
                }
                Routed::Envelope { tenant, envelope } => {
                    let _ = self.jobs.send(Job::Single {
                        tenant: tenant.to_string(),
                        token,
                        seq,
                        envelope,
                        keep_alive: request.keep_alive,
                    });
                    return;
                }
                Routed::Query { tenant } => tenant,
            };
            let Some(tenant) = hub.tenant(tenant_name) else {
                let response = ServiceResponse::failure(ServiceError::with_subject(
                    ErrorCode::UnknownTenant,
                    tenant_name,
                ));
                hub.metrics()
                    .record_transport("query", Some(ErrorCode::UnknownTenant));
                self.complete_local(
                    idx,
                    token,
                    seq,
                    Outgoing::Response {
                        status: http_status(ErrorCode::UnknownTenant),
                        content_type: "application/json",
                        body: Body::Owned(serialize_response(&response)),
                        keep_alive: request.keep_alive,
                    },
                );
                return;
            };
            // Admission happens before the cache probe: a tenant at its
            // concurrency cap is shed with the typed 429 even for work
            // the cache could answer, keeping `max_inflight` an honest
            // bound on the tenant's share of the server.
            let permit = match tenant.admit() {
                Ok(permit) => permit,
                Err(error) => {
                    tenant
                        .service()
                        .metrics()
                        .record_transport("query", Some(error.code));
                    if !Arc::ptr_eq(hub.metrics(), tenant.service().metrics_arc()) {
                        hub.metrics().record_transport("query", Some(error.code));
                    }
                    let status = http_status(error.code);
                    let response = ServiceResponse::failure(error);
                    self.complete_local(
                        idx,
                        token,
                        seq,
                        Outgoing::Response {
                            status,
                            content_type: "application/json",
                            body: Body::Owned(serialize_response(&response)),
                            keep_alive: request.keep_alive,
                        },
                    );
                    return;
                }
            };
            let cache = self.cache_for(&tenant);
            let generation = tenant.service().published_generation();
            let distinct = !Arc::ptr_eq(hub.metrics(), tenant.service().metrics_arc());
            match cache.lookup(generation, &request.body) {
                CacheOutcome::Hit(cached) => {
                    let metrics = tenant.service().metrics();
                    metrics.record_cache_hit();
                    // A hit is still a served query: keep the request
                    // counters truthful (sub-microsecond latency).
                    metrics.record("query", 1, cached.error);
                    if distinct {
                        hub.metrics().record_cache_hit();
                        hub.metrics().record("query", 1, cached.error);
                    }
                    self.complete_local(
                        idx,
                        token,
                        seq,
                        Outgoing::Response {
                            status: cached.status,
                            content_type: "application/json",
                            body: Body::Shared(Arc::clone(&cached.body)),
                            keep_alive: request.keep_alive,
                        },
                    );
                    // The permit drops here: a cache hit occupies its
                    // admission slot only for the probe.
                }
                CacheOutcome::Miss { invalidated } => {
                    let metrics = tenant.service().metrics();
                    metrics.record_cache_miss();
                    if invalidated > 0 {
                        metrics.record_cache_invalidated(invalidated);
                    }
                    if distinct {
                        hub.metrics().record_cache_miss();
                        if invalidated > 0 {
                            hub.metrics().record_cache_invalidated(invalidated);
                        }
                    }
                    let group = self
                        .tick_queries
                        .entry(tenant.name().to_string())
                        .or_insert_with(|| TickGroup {
                            tenant: Arc::clone(&tenant),
                            cache,
                            items: Vec::new(),
                        });
                    group.items.push(QueryItem {
                        token,
                        seq,
                        body: request.body,
                        keep_alive: request.keep_alive,
                        permit: Some(permit),
                    });
                }
            }
        }

        /// The tenant's result-cache partition, created (or replaced) on
        /// first sight of an incarnation: the epoch tag guarantees a
        /// dropped-then-recreated lake starts from an empty partition, so
        /// entries from a previous life can never serve.
        fn cache_for(&mut self, tenant: &Arc<Tenant>) -> Arc<ResultCache> {
            match self.caches.get(tenant.name()) {
                Some((epoch, cache)) if *epoch == tenant.epoch() => Arc::clone(cache),
                _ => {
                    let cache = Arc::new(ResultCache::new(self.config.cache.clone()));
                    self.caches.insert(
                        tenant.name().to_string(),
                        (tenant.epoch(), Arc::clone(&cache)),
                    );
                    cache
                }
            }
        }

        fn complete_local(&mut self, idx: usize, token: u64, seq: u64, item: Outgoing) {
            let conn = self.slots[idx].conn.as_mut().expect("live conn");
            conn.queue.complete(seq, item);
            self.dirty.push(token);
        }

        fn drain_completions(&mut self) {
            let completions = std::mem::take(
                &mut *self
                    .shared
                    .completions
                    .lock()
                    .unwrap_or_else(|p| p.into_inner()),
            );
            for completion in completions {
                let idx = slot_of(completion.token);
                if idx >= self.slots.len() || self.slots[idx].epoch != epoch_of(completion.token) {
                    continue; // the connection died while the job ran
                }
                let Some(conn) = self.slots[idx].conn.as_mut() else {
                    continue;
                };
                conn.queue.complete(
                    completion.seq,
                    Outgoing::Response {
                        status: completion.status,
                        content_type: "application/json",
                        body: completion.body,
                        keep_alive: completion.keep_alive,
                    },
                );
                self.dirty.push(completion.token);
            }
        }

        /// Release in-order responses into write buffers and flush.
        fn pump_dirty(&mut self, now: Instant) {
            let dirty = std::mem::take(&mut self.dirty);
            for token in dirty {
                let idx = slot_of(token);
                if idx >= self.slots.len()
                    || self.slots[idx].epoch != epoch_of(token)
                    || self.slots[idx].conn.is_none()
                {
                    continue; // closed earlier in this pass (duplicates are fine)
                }
                self.pump_conn(idx, now);
            }
        }

        fn pump_conn(&mut self, idx: usize, now: Instant) {
            let force_close = self.draining.is_some();
            let mut close = false;
            {
                let conn = self.slots[idx].conn.as_mut().expect("live conn");
                while let Some(item) = conn.queue.pop_in_order() {
                    conn.enqueue_write(item, force_close);
                }
                match conn.try_flush() {
                    Err(_) => close = true,
                    Ok(true) => {
                        conn.write_deadline = None;
                        if conn.close_after_flush || (conn.eof && conn.queue.pending() == 0) {
                            close = true;
                        } else if conn.phase() == ConnPhase::Idle {
                            conn.idle_since = now;
                        }
                    }
                    Ok(false) => {
                        if conn.write_deadline.is_none() {
                            conn.write_deadline = Some(now + self.config.read_deadline);
                        }
                    }
                }
            }
            if close {
                self.close(idx);
                return;
            }
            self.update_interest(idx);
            self.arm_deadline(idx, now);
        }

        fn update_interest(&mut self, idx: usize) {
            let token = token_for(idx, self.slots[idx].epoch);
            let conn = self.slots[idx].conn.as_mut().expect("live conn");
            let mut want = EPOLLRDHUP;
            if !conn.eof {
                want |= EPOLLIN;
            }
            if conn.unflushed() > 0 {
                want |= EPOLLOUT;
            }
            if want != conn.interest
                && self
                    .epoll
                    .modify(conn.stream.as_raw_fd(), want, token)
                    .is_ok()
            {
                conn.interest = want;
            }
        }

        fn arm_deadline(&mut self, idx: usize, _now: Instant) {
            let token = token_for(idx, self.slots[idx].epoch);
            let Some(conn) = self.slots[idx].conn.as_ref() else {
                return;
            };
            if let Some(when) = conn.deadline(Some(self.config.idle_timeout)) {
                self.heap.push(Reverse((when, token)));
            }
        }

        fn reap_deadlines(&mut self, now: Instant) {
            while let Some(&Reverse((when, token))) = self.heap.peek() {
                if when > now {
                    break;
                }
                self.heap.pop();
                let idx = slot_of(token);
                if idx >= self.slots.len() || self.slots[idx].epoch != epoch_of(token) {
                    continue; // stale: the connection already closed
                }
                let Some(conn) = self.slots[idx].conn.as_ref() else {
                    continue;
                };
                // Lazy invalidation: re-derive the connection's *current*
                // deadline — activity since arming may have pushed it out.
                match conn.deadline(Some(self.config.idle_timeout)) {
                    Some(actual) if actual <= now => {
                        self.hub.metrics().reactor_conn_reaped();
                        self.close(idx);
                    }
                    Some(actual) => self.heap.push(Reverse((actual, token))),
                    None => {}
                }
            }
        }

        fn close(&mut self, idx: usize) {
            let Some(conn) = self.slots[idx].conn.take() else {
                return;
            };
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.slots[idx].epoch = self.slots[idx].epoch.wrapping_add(1);
            self.free.push(idx);
            self.open -= 1;
            self.hub.metrics().reactor_conn_closed();
        }
    }
}
