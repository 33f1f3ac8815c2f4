//! # cmdl-server
//!
//! The CMDL service layer: the public surface redesigned from "library of
//! methods" to "service of requests".
//!
//! * [`api`] — the wire contract: a typed [`ServiceRequest`] enum (query +
//!   ingest + admin) answered by one [`ServiceResponse`] envelope carrying
//!   either a payload or a stable machine-readable
//!   [`ErrorCode`](cmdl_core::ErrorCode).
//! * [`service`] — [`CmdlService`]: reads pin published snapshots and never
//!   block behind writers; mutations serialize through a flat-combining
//!   queue behind a single writer gate, with `delta_pressure`-triggered
//!   compaction inside the gate. With `shards = N` in the config the
//!   service runs a [`ShardedCmdl`](cmdl_core::ShardedCmdl) router instead:
//!   writes route to the owning shard's gate and reads fan out per query,
//!   with results bit-identical to the single-catalog backend. A wedged
//!   writer gate can be reconciled back into service with `Recover`
//!   (`POST /admin/recover`).
//! * [`metrics`] — lock-free counters and latency quantiles with a text
//!   exposition.
//! * [`backoff`] — the one retry policy: jittered exponential
//!   [`Backoff`] with deterministic seeding, used by the bench clients
//!   backing off load sheds.
//! * [`reactor`] — the HTTP/1.1 front end (std-only, no tokio): an epoll
//!   readiness loop (vendored syscall shim, no `libc` crate) where each
//!   connection is a resumable-parser state machine instead of a thread,
//!   concurrent `/query` requests in one readiness tick coalesce into a
//!   single `execute_many` against one pinned snapshot, and a
//!   generation-keyed result cache answers repeated queries without
//!   executing at all. Its [`RequestParser`](reactor::parser::RequestParser)
//!   is the crate's only framing code.
//! * [`blocking`] — the fallback front end for platforms without epoll:
//!   one thread per connection over the same parser and route table,
//!   byte-compared with the reactor in CI.
//! * [`route_envelope`] — the route table both front ends share, with the
//!   transport-level answers (`/metrics`, unknown route, unsupported
//!   `Transfer-Encoding`) written once beside it.
//! * [`tenants`] — the multi-tenant control plane: a [`TenantHub`]
//!   registry of named lakes (each its own catalog, writer gate, persist
//!   directory, metrics, and result-cache partition) behind the same HTTP
//!   surface via the `/t/<name>/...` path prefix, with per-tenant quotas
//!   and admission control, and online `Reconfigure` that rebuilds a
//!   lake's indexes in the background and atomically swaps them in.
//!
//! In-process use needs no sockets at all:
//!
//! ```no_run
//! use cmdl_core::{Cmdl, CmdlConfig};
//! use cmdl_datalake::synth;
//! use cmdl_server::CmdlService;
//!
//! let service = CmdlService::new(Cmdl::build(synth::pharma().lake, CmdlConfig::fast()));
//! let response = service.handle_json_bytes(
//!     br#"{"Query": {"Keyword": {"text": "pemetrexed", "mode": "All",
//!          "options": {"top_k": 5, "offset": 0, "min_score": 0.0,
//!                      "weights": {"embedding": null, "containment": null,
//!                                  "name": null, "uniqueness": null}}}}}"#,
//! );
//! println!("{}", String::from_utf8_lossy(&response));
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod backoff;
pub mod blocking;
pub mod metrics;
pub mod reactor;
mod route;
pub mod service;
pub mod tenants;

pub use api::{
    http_status, BatchOutcome, HealthReport, LakeInfo, LakeQuotas, ResponsePayload, ServiceError,
    ServiceRequest, ServiceResponse,
};
pub use backoff::Backoff;
pub use blocking::{serve_blocking, BlockingHandle};
pub use metrics::ServiceMetrics;
pub use reactor::ReactorConfig;
#[cfg(target_os = "linux")]
pub use reactor::{serve_reactor, serve_reactor_hub, ReactorHandle};
pub use route::route_envelope;
pub use service::CmdlService;
pub use tenants::{split_tenant, TenantDefaults, TenantHub, TenantQuotas, DEFAULT_TENANT};
