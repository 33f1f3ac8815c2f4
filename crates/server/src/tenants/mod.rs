//! The multi-tenant control plane: many named lakes in one server.
//!
//! [`TenantHub`] is a registry of named [`Tenant`]s, each a fully
//! independent [`CmdlService`] — its own catalog (single or sharded),
//! writer gate, persist directory, metrics, and result-cache partition —
//! behind the one existing HTTP surface. Requests address a tenant with
//! the `/t/<name>/...` path prefix; the legacy un-prefixed routes map to
//! the [`DEFAULT_TENANT`] for backward compatibility.
//!
//! * **Control plane** — `CreateLake`/`DropLake`/`ListLakes` mutate the
//!   registry itself. Creation builds the catalog *outside* the registry
//!   lock (losers of a name race clean up after themselves); dropping
//!   removes the registry entry first — fencing new requests with
//!   `UnknownTenant` — while requests already admitted finish against the
//!   catalog they pinned (state-as-a-value: snapshots outlive the
//!   registry entry). A dropped-then-recreated name starts from a fresh
//!   generation and a fresh persist directory: every tenant incarnation
//!   gets a monotonically increasing *epoch*, and persist directories are
//!   keyed `<name>-e<epoch>` under the hub's data root.
//! * **Admission control** — every data-plane request first reserves an
//!   in-flight slot ([`TenantQuotas::max_inflight`]); ingests additionally
//!   check the capacity quotas (tables/documents/bytes). Breaches are shed
//!   with the typed `QuotaExceeded` 429 *before* touching the catalog, so
//!   a noisy tenant burns none of the shared worker pool.
//! * **Metrics** — the hub double-records every request into the global
//!   (un-labeled) counters for dashboard compatibility, and each tenant's
//!   own counters feed the `tenant`-labeled exposition series (skipping
//!   the double-record in single-tenant mode, where both are the same
//!   counters).
//!
//! Online reconfiguration (`Reconfigure`) is tenant-scoped and handled by
//! the tenant's own service — see `SingleGate::reconfigure` in
//! [`crate::service`] for the pin → rebuild → replay-and-swap protocol.

mod quota;

pub use quota::{InflightPermit, TenantQuotas};

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use cmdl_core::{CmdlConfig, ErrorCode};
use cmdl_datalake::DataLake;

use crate::api::{
    LakeInfo, LakeQuotas, ResponsePayload, ServiceError, ServiceRequest, ServiceResponse,
};
use crate::metrics::ServiceMetrics;
use crate::service::{serialize_response_into, CmdlService};

/// The tenant the legacy un-prefixed routes (`/query`, `/ingest/table`,
/// ...) map to.
pub const DEFAULT_TENANT: &str = "default";

/// One registered lake: a name + epoch bound to its own service stack.
pub struct Tenant {
    name: String,
    /// The incarnation number: unique across every create over the hub's
    /// lifetime, so a dropped-then-recreated name never reuses state (or
    /// a persist directory) from a previous life.
    epoch: u64,
    service: Arc<CmdlService>,
    quotas: TenantQuotas,
    /// Currently executing requests (admission-controlled).
    inflight: AtomicUsize,
    /// Cumulative admission-time ingest-byte estimate.
    ingested_bytes: AtomicU64,
    /// This incarnation's persist directory, when the hub is durable.
    persist_dir: Option<PathBuf>,
}

impl Tenant {
    /// The lake name (tenant id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The incarnation number of this tenant (see [`Tenant::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The tenant's service stack.
    pub fn service(&self) -> &Arc<CmdlService> {
        &self.service
    }

    /// The tenant's quota set.
    pub fn quotas(&self) -> &TenantQuotas {
        &self.quotas
    }

    /// Reserve an in-flight slot (the noisy-neighbor cap), released when
    /// the returned permit drops.
    pub fn admit(self: &Arc<Self>) -> Result<InflightPermit, ServiceError> {
        quota::admit(self)
    }

    /// Check the capacity quotas for `request` and charge the byte budget.
    /// Returns the charged cost so a failed ingest can be refunded.
    fn check_quota(&self, request: &ServiceRequest) -> Result<u64, ServiceError> {
        match request {
            ServiceRequest::IngestTable(_)
                if self.service.stats().tables >= self.quotas.max_tables =>
            {
                return Err(quota::quota_error("max_tables"));
            }
            ServiceRequest::IngestDocument(_)
                if self.service.stats().documents >= self.quotas.max_documents =>
            {
                return Err(quota::quota_error("max_documents"));
            }
            _ => {}
        }
        let cost = quota::ingest_cost(request);
        if cost > 0 {
            let total = self.ingested_bytes.fetch_add(cost, Ordering::SeqCst) + cost;
            if total > self.quotas.max_ingest_bytes {
                self.ingested_bytes.fetch_sub(cost, Ordering::SeqCst);
                return Err(quota::quota_error("max_ingest_bytes"));
            }
        }
        Ok(cost)
    }

    /// The registry-listing entry — the stable JSON shape of per-tenant
    /// health (`/lakes`, and the same fields back `/healthz` and `/stats`
    /// serve per tenant).
    pub fn info(&self) -> LakeInfo {
        let stats = self.service.stats();
        let wedged = self.service.is_wedged();
        LakeInfo {
            name: self.name.clone(),
            status: if wedged { "degraded" } else { "ok" }.to_string(),
            generation: stats.generation,
            tables: stats.tables,
            documents: stats.documents,
            wedged,
            reconfiguring: self.service.is_reconfiguring(),
        }
    }

    /// Best-effort retirement of this incarnation's persist directory.
    /// In-flight writers holding the old handle keep appending to the
    /// unlinked files harmlessly; the epoch scheme guarantees a recreated
    /// name never opens this directory again either way.
    fn retire(&self) {
        if let Some(dir) = &self.persist_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Hub-level construction parameters: what a `CreateLake` without an
/// explicit config gets, the quota set stamped onto new lakes, and the
/// root directory durable lakes persist under.
#[derive(Clone)]
pub struct TenantDefaults {
    /// Catalog configuration for lakes created without one.
    pub config: CmdlConfig,
    /// Quotas stamped onto every created lake.
    pub quotas: TenantQuotas,
    /// When set, every lake persists under `<data_root>/<name>-e<epoch>/`
    /// (so a lake asking for `shards > 1`, which has no durable form, is
    /// refused); when `None` the hub is in-memory.
    pub data_root: Option<PathBuf>,
}

impl Default for TenantDefaults {
    fn default() -> Self {
        Self {
            config: CmdlConfig::fast(),
            quotas: TenantQuotas::unlimited(),
            data_root: None,
        }
    }
}

/// The registry of named lakes (see the module docs).
pub struct TenantHub {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    defaults: TenantDefaults,
    /// The un-labeled global counters (dashboard compatibility). In
    /// single-tenant mode this aliases the default tenant's own counters,
    /// and the hub skips its double-record.
    global: Arc<ServiceMetrics>,
    /// The epoch allocator (see [`Tenant::epoch`]).
    epochs: AtomicU64,
}

impl TenantHub {
    /// Wrap one existing service as the [`DEFAULT_TENANT`] — the
    /// single-tenant compatibility mode `serve_reactor(service, ..)`
    /// uses. The hub's global counters alias the service's own, so
    /// the exposition is unchanged from a pre-hub server (plus the
    /// `tenant="default"` labeled series).
    pub fn single(service: Arc<CmdlService>) -> Arc<Self> {
        let global = Arc::clone(service.metrics_arc());
        let tenant = Arc::new(Tenant {
            name: DEFAULT_TENANT.to_string(),
            epoch: 0,
            service,
            quotas: TenantQuotas::unlimited(),
            inflight: AtomicUsize::new(0),
            ingested_bytes: AtomicU64::new(0),
            persist_dir: None,
        });
        let mut tenants = HashMap::new();
        tenants.insert(DEFAULT_TENANT.to_string(), tenant);
        Arc::new(Self {
            tenants: RwLock::new(tenants),
            defaults: TenantDefaults::default(),
            global,
            epochs: AtomicU64::new(1),
        })
    }

    /// A true multi-tenant hub: fresh global counters, an eagerly created
    /// empty [`DEFAULT_TENANT`] (so the legacy routes keep working), and
    /// `defaults` governing every lake created later.
    pub fn new(defaults: TenantDefaults) -> Result<Arc<Self>, ServiceError> {
        let hub = Arc::new(Self {
            tenants: RwLock::new(HashMap::new()),
            defaults,
            global: Arc::new(ServiceMetrics::default()),
            epochs: AtomicU64::new(0),
        });
        let default = hub.spawn_tenant(
            DEFAULT_TENANT,
            hub.defaults.config.clone(),
            hub.defaults.quotas.clone(),
        )?;
        hub.tenants
            .write()
            .unwrap_or_else(|poison| poison.into_inner())
            .insert(DEFAULT_TENANT.to_string(), default);
        Ok(hub)
    }

    /// The global (un-labeled) counters.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.global
    }

    /// Look up a live tenant by name.
    pub fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
            .get(name)
            .cloned()
    }

    /// Drain every tenant's writer queue (graceful shutdown).
    pub fn flush_all(&self) {
        for tenant in self.snapshot_tenants() {
            tenant.service.flush();
        }
    }

    /// Route one typed request for `tenant`. Control-plane requests
    /// (`CreateLake`/`DropLake`/`ListLakes`) run against the registry;
    /// everything else is admission-controlled and forwarded to the
    /// tenant's own service.
    pub fn handle(&self, tenant: &str, request: ServiceRequest) -> ServiceResponse {
        match request {
            ServiceRequest::CreateLake {
                name,
                config,
                quotas,
            } => self.control_plane("create_lake", || self.create_lake(&name, config, quotas)),
            ServiceRequest::DropLake { name } => {
                self.control_plane("drop_lake", || self.drop_lake(&name))
            }
            ServiceRequest::ListLakes => self.control_plane("list_lakes", || self.list_lakes()),
            request => self.data_plane(tenant, request),
        }
    }

    /// Parse a [`ServiceRequest`] from JSON bytes and route it for
    /// `tenant` (the hub-level wire contract, mirroring
    /// [`CmdlService::handle_json`]).
    pub fn handle_json(&self, tenant: &str, request: &[u8]) -> ServiceResponse {
        match std::str::from_utf8(request)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                serde_json::from_str::<ServiceRequest>(text).map_err(|e| e.to_string())
            }) {
            Ok(request) => self.handle(tenant, request),
            Err(detail) => {
                let response = ServiceResponse::failure(ServiceError::with_subject(
                    ErrorCode::MalformedRequest,
                    detail,
                ));
                self.global
                    .record_transport("malformed", response.error_code());
                response
            }
        }
    }

    /// [`handle_json`](Self::handle_json) streaming the envelope into a
    /// caller-owned buffer (appended, not cleared).
    pub fn handle_json_into(&self, tenant: &str, request: &[u8], out: &mut String) {
        serialize_response_into(&self.handle_json(tenant, request), out);
    }

    /// Render the metrics exposition: the global un-labeled series first
    /// (gauged on the default tenant, matching the pre-hub exposition),
    /// then every tenant's `tenant`-labeled request/error/latency series
    /// and per-tenant health gauges, sorted by name.
    pub fn render_metrics(&self) -> String {
        let default = self.tenant(DEFAULT_TENANT);
        let (generation, pressure) = default
            .as_ref()
            .map(|tenant| tenant.service.generation_and_pressure())
            .unwrap_or((0, 0.0));
        let mut out = self.global.render(generation, pressure);
        let mut tenants = self.snapshot_tenants();
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        for tenant in tenants {
            out.push_str(&tenant.service.metrics().render_tenant(&tenant.name));
            let info = tenant.info();
            out.push_str(&format!(
                "cmdl_tenant_snapshot_generation{{tenant=\"{}\"}} {}\n",
                tenant.name, info.generation
            ));
            out.push_str(&format!(
                "cmdl_tenant_wedged{{tenant=\"{}\"}} {}\n",
                tenant.name,
                u8::from(info.wedged)
            ));
            out.push_str(&format!(
                "cmdl_tenant_reconfiguring{{tenant=\"{}\"}} {}\n",
                tenant.name,
                u8::from(info.reconfiguring)
            ));
        }
        out
    }

    fn snapshot_tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Run a registry operation, recording it into the global counters
    /// under its request kind.
    fn control_plane(
        &self,
        kind: &'static str,
        op: impl FnOnce() -> ServiceResponse,
    ) -> ServiceResponse {
        let started = Instant::now();
        let response = op();
        self.global.record(
            kind,
            started.elapsed().as_micros() as u64,
            response.error_code(),
        );
        response
    }

    fn data_plane(&self, tenant_name: &str, request: ServiceRequest) -> ServiceResponse {
        let started = Instant::now();
        let kind = request.kind();
        let Some(tenant) = self.tenant(tenant_name) else {
            self.global
                .record_transport(kind, Some(ErrorCode::UnknownTenant));
            return ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::UnknownTenant,
                tenant_name,
            ));
        };
        let _permit = match tenant.admit() {
            Ok(permit) => permit,
            Err(error) => return self.reject(&tenant, kind, error),
        };
        let charged = match tenant.check_quota(&request) {
            Ok(charged) => charged,
            Err(error) => return self.reject(&tenant, kind, error),
        };
        let response = tenant.service.handle(request);
        if !response.ok && charged > 0 {
            // The ingest never landed (duplicate name, wedged gate, ...):
            // credit the admission estimate back.
            tenant.ingested_bytes.fetch_sub(charged, Ordering::SeqCst);
        }
        if !Arc::ptr_eq(&self.global, tenant.service.metrics_arc()) {
            self.global.record(
                kind,
                started.elapsed().as_micros() as u64,
                response.error_code(),
            );
        }
        response
    }

    /// Record a shed request (admission or quota breach) into both the
    /// tenant's labeled counters and the global totals.
    fn reject(&self, tenant: &Tenant, kind: &'static str, error: ServiceError) -> ServiceResponse {
        tenant
            .service
            .metrics()
            .record_transport(kind, Some(error.code));
        if !Arc::ptr_eq(&self.global, tenant.service.metrics_arc()) {
            self.global.record_transport(kind, Some(error.code));
        }
        ServiceResponse::failure(error)
    }

    fn create_lake(
        &self,
        name: &str,
        config: Option<CmdlConfig>,
        quotas: Option<LakeQuotas>,
    ) -> ServiceResponse {
        if !valid_name(name) {
            return ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::MalformedRequest,
                "lake names are 1-64 chars of [A-Za-z0-9_-]",
            ));
        }
        if self.tenant(name).is_some() {
            return ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::DuplicateTenant,
                name,
            ));
        }
        // Build outside the registry lock — catalog construction is the
        // expensive part and must not block routing for other tenants.
        let quotas = match &quotas {
            Some(spec) => self.defaults.quotas.overridden(spec),
            None => self.defaults.quotas.clone(),
        };
        let tenant = match self.spawn_tenant(
            name,
            config.unwrap_or_else(|| self.defaults.config.clone()),
            quotas,
        ) {
            Ok(tenant) => tenant,
            Err(error) => return ServiceResponse::failure(error),
        };
        let generation = tenant.service.published_generation();
        {
            let mut tenants = self
                .tenants
                .write()
                .unwrap_or_else(|poison| poison.into_inner());
            if tenants.contains_key(name) {
                // Lost a same-name race: the other creation won the
                // registry; retire our never-visible incarnation.
                drop(tenants);
                tenant.retire();
                return ServiceResponse::failure(ServiceError::with_subject(
                    ErrorCode::DuplicateTenant,
                    name,
                ));
            }
            tenants.insert(name.to_string(), tenant);
        }
        ServiceResponse::success(ResponsePayload::LakeCreated {
            name: name.to_string(),
            generation,
        })
    }

    fn drop_lake(&self, name: &str) -> ServiceResponse {
        let removed = self
            .tenants
            .write()
            .unwrap_or_else(|poison| poison.into_inner())
            .remove(name);
        let Some(tenant) = removed else {
            return ServiceResponse::failure(ServiceError::with_subject(
                ErrorCode::UnknownTenant,
                name,
            ));
        };
        // New requests are fenced (the registry entry is gone); requests
        // already admitted hold their own Arc and finish against the
        // catalog they pinned. Flush acknowledged mutations, then retire
        // the directory.
        tenant.service.flush();
        tenant.retire();
        ServiceResponse::success(ResponsePayload::LakeDropped {
            name: name.to_string(),
        })
    }

    fn list_lakes(&self) -> ServiceResponse {
        let mut lakes: Vec<LakeInfo> = self
            .snapshot_tenants()
            .iter()
            .map(|tenant| tenant.info())
            .collect();
        lakes.sort_by(|a, b| a.name.cmp(&b.name));
        ServiceResponse::success(ResponsePayload::Lakes(lakes))
    }

    /// Build a fresh tenant incarnation (service stack + persist dir).
    fn spawn_tenant(
        &self,
        name: &str,
        config: CmdlConfig,
        quotas: TenantQuotas,
    ) -> Result<Arc<Tenant>, ServiceError> {
        let epoch = self.epochs.fetch_add(1, Ordering::SeqCst);
        let lake_name = name.to_string();
        // A durable hub always opens: `CmdlService::open` is the one place
        // that refuses configs with no durable form (`shards > 1`).
        let (service, persist_dir) = match &self.defaults.data_root {
            Some(root) => {
                let dir = root.join(format!("{name}-e{epoch}"));
                let service = CmdlService::open(&dir, config, move || DataLake::new(lake_name))
                    .map_err(ServiceError::from)?;
                (service, Some(dir))
            }
            None => (CmdlService::build(DataLake::new(lake_name), config), None),
        };
        Ok(Arc::new(Tenant {
            name: name.to_string(),
            epoch,
            service: Arc::new(service),
            quotas,
            inflight: AtomicUsize::new(0),
            ingested_bytes: AtomicU64::new(0),
            persist_dir,
        }))
    }
}

/// Lake names land in filesystem paths and metric label values, so keep
/// them to a boring charset.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// Split the tenant prefix off an HTTP path: `/t/<name>/<rest>` addresses
/// tenant `<name>` with route `/<rest>`; anything else addresses the
/// [`DEFAULT_TENANT`] with the path unchanged (legacy compatibility).
pub fn split_tenant(path: &str) -> (&str, &str) {
    if let Some(suffix) = path.strip_prefix("/t/") {
        if let Some(slash) = suffix.find('/') {
            let (name, rest) = suffix.split_at(slash);
            if !name.is_empty() {
                return (name, rest);
            }
        }
    }
    (DEFAULT_TENANT, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_prefix_splits_and_legacy_paths_default() {
        assert_eq!(split_tenant("/t/alpha/query"), ("alpha", "/query"));
        assert_eq!(
            split_tenant("/t/alpha/ingest/table"),
            ("alpha", "/ingest/table")
        );
        assert_eq!(split_tenant("/query"), (DEFAULT_TENANT, "/query"));
        assert_eq!(split_tenant("/t/"), (DEFAULT_TENANT, "/t/"));
        // No trailing route: not a tenant address.
        assert_eq!(split_tenant("/t/alpha"), (DEFAULT_TENANT, "/t/alpha"));
        assert_eq!(split_tenant("/t//query"), (DEFAULT_TENANT, "/t//query"));
    }

    #[test]
    fn lake_name_charset() {
        assert!(valid_name("alpha-1_B"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("dots.are.paths"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
