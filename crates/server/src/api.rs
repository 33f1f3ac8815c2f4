//! The service wire contract: typed requests in, one response envelope out.
//!
//! [`ServiceRequest`] is the single entry point of the service layer — every
//! operation a client can perform (discovery queries, lake mutations, admin
//! probes) is one variant, and every variant produces the same
//! [`ServiceResponse`] envelope carrying either a typed
//! [`ResponsePayload`] or a [`ServiceError`] with a stable machine-readable
//! [`ErrorCode`]. All types serde round-trip, so the contract is
//! bytes-in/bytes-out JSON: a handler is testable in-process without
//! sockets, and any transport (the bundled HTTP adapter, a CLI, a message
//! queue) is a thin framing layer over [`CmdlService::handle_json_bytes`].
//!
//! Error prose (`Display` strings) is deliberately *not* part of the
//! contract — [`ServiceError`] serializes the code and the offending
//! identifier only.
//!
//! [`CmdlService::handle_json_bytes`]: crate::service::CmdlService::handle_json_bytes

use serde::{Deserialize, Serialize};

use cmdl_core::{CmdlConfig, CmdlError, CmdlStats, DiscoveryQuery, ErrorCode, QueryResponse};
use cmdl_datalake::{Document, Table};

/// One typed service request — the unified surface over the catalog
/// (replacing "link the crate and call methods" with "send a request").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceRequest {
    /// Execute one discovery query against a pinned snapshot.
    Query(DiscoveryQuery),
    /// Execute a batch of queries against *one* pinned snapshot (rayon
    /// fan-out, PK-FK sweep amortized across the batch).
    QueryBatch(Vec<DiscoveryQuery>),
    /// Ingest a new table (delta-profiled, indexes updated in place).
    IngestTable(Table),
    /// Ingest a new document (corpus statistics maintained incrementally).
    IngestDocument(Document),
    /// Remove a live table by name (tombstoned everywhere).
    RemoveTable {
        /// The table name.
        name: String,
    },
    /// Remove a live document by index.
    RemoveDocument {
        /// The document index in the lake.
        index: usize,
    },
    /// Fold all delta state back into the dense layouts now.
    Compact,
    /// Introspection statistics of the current generation.
    Stats,
    /// Liveness probe.
    Health,
    /// Create a new named lake (tenant) in the multi-tenant hub. Only
    /// meaningful when served by a [`TenantHub`](crate::TenantHub); a bare
    /// single-lake service rejects it.
    CreateLake {
        /// The lake name (also the tenant id in `/t/<name>/...` routes).
        name: String,
        /// Catalog configuration for the new lake; the hub default when
        /// omitted.
        config: Option<CmdlConfig>,
        /// Per-lake quota overrides; limits the spec leaves unset (and the
        /// whole field when omitted) inherit the hub defaults.
        quotas: Option<LakeQuotas>,
    },
    /// Drop a named lake: unregister it, flush its catalog, and retire its
    /// persist directory. Pinned readers already inside the lake finish
    /// against their snapshot; new requests get `UnknownTenant`.
    DropLake {
        /// The lake name.
        name: String,
    },
    /// List every registered lake with its status (hub only).
    ListLakes,
    /// Rebuild this lake's catalog under a new configuration in the
    /// background (against a pinned snapshot), replay deltas that landed
    /// meanwhile, and atomically swap the result into the next published
    /// generation. Queries never block; at most one reconfiguration runs
    /// per lake at a time.
    Reconfigure(CmdlConfig),
    /// Re-run the wedged writer gate's panic reconciliation
    /// ([`Cmdl::recover_after_panic`](cmdl_core::Cmdl::recover_after_panic))
    /// and clear the wedged flag on success, so a wedged lake can be
    /// recovered online instead of by restart. A healthy gate answers with
    /// a cheap no-op success.
    Recover,
}

impl ServiceRequest {
    /// A short name for the request kind (logs, metrics, bench labels).
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceRequest::Query(_) => "query",
            ServiceRequest::QueryBatch(_) => "query_batch",
            ServiceRequest::IngestTable(_) => "ingest_table",
            ServiceRequest::IngestDocument(_) => "ingest_document",
            ServiceRequest::RemoveTable { .. } => "remove_table",
            ServiceRequest::RemoveDocument { .. } => "remove_document",
            ServiceRequest::Compact => "compact",
            ServiceRequest::Stats => "stats",
            ServiceRequest::Health => "health",
            ServiceRequest::CreateLake { .. } => "create_lake",
            ServiceRequest::DropLake { .. } => "drop_lake",
            ServiceRequest::ListLakes => "list_lakes",
            ServiceRequest::Reconfigure(_) => "reconfigure",
            ServiceRequest::Recover => "recover",
        }
    }

    /// Does this request mutate the catalog (and therefore route through
    /// the writer gate)? Control-plane requests (`CreateLake`/`DropLake`/
    /// `ListLakes`), `Reconfigure`, and `Recover` are *not* queue
    /// mutations — they run on dedicated paths (the hub registry, the
    /// background-rebuild protocol, and the recovery path; `Recover` in
    /// particular must bypass the wedged-gate refusal it exists to clear).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            ServiceRequest::IngestTable(_)
                | ServiceRequest::IngestDocument(_)
                | ServiceRequest::RemoveTable { .. }
                | ServiceRequest::RemoveDocument { .. }
                | ServiceRequest::Compact
        )
    }
}

/// A wire-stable error: the machine-readable code plus the offending
/// identifier (table name, `table.column`, document index) when the error
/// concerns one. Never carries `Display` strings; the only free-form
/// subjects are diagnostic details for the validation codes, which clients
/// must not match on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceError {
    /// The stable error code.
    pub code: ErrorCode,
    /// The offending identifier (or, for validation codes, a free-form
    /// diagnostic detail), if any. Only `code` is stable — never match on
    /// subject text.
    pub subject: Option<String>,
}

impl ServiceError {
    /// An error with no subject.
    pub fn new(code: ErrorCode) -> Self {
        Self {
            code,
            subject: None,
        }
    }

    /// An error about a specific identifier.
    pub fn with_subject(code: ErrorCode, subject: impl Into<String>) -> Self {
        Self {
            code,
            subject: Some(subject.into()),
        }
    }
}

impl From<&CmdlError> for ServiceError {
    fn from(error: &CmdlError) -> Self {
        Self {
            code: error.code(),
            subject: error.subject(),
        }
    }
}

impl From<CmdlError> for ServiceError {
    fn from(error: CmdlError) -> Self {
        Self::from(&error)
    }
}

/// One outcome of a [`ServiceRequest::QueryBatch`] — exactly one of
/// `response`/`error` is set (per-query failures do not abort the batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchOutcome {
    /// The query response, on success.
    pub response: Option<QueryResponse>,
    /// The error, on failure.
    pub error: Option<ServiceError>,
}

/// The liveness payload of [`ServiceRequest::Health`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// `"ok"` while the writer gate is healthy, `"degraded"` once it is
    /// wedged (reads still served from the last published generation,
    /// mutations rejected).
    pub status: String,
    /// The currently published catalog generation.
    pub generation: u64,
    /// Whether the writer gate is wedged — the explicit form of
    /// `status == "degraded"`, so clients need not string-match.
    pub wedged: bool,
    /// Whether a background reconfiguration is rebuilding this lake.
    pub reconfiguring: bool,
}

/// One lake's registry entry in a [`ResponsePayload::Lakes`] listing — the
/// stable JSON shape of per-tenant health.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LakeInfo {
    /// The lake name (tenant id).
    pub name: String,
    /// `"ok"` or `"degraded"` (mirrors [`HealthReport::status`]).
    pub status: String,
    /// The currently published catalog generation.
    pub generation: u64,
    /// Live tables in the lake.
    pub tables: usize,
    /// Live documents in the lake.
    pub documents: usize,
    /// Whether the writer gate is wedged (mutations rejected).
    pub wedged: bool,
    /// Whether a background reconfiguration is in flight.
    pub reconfiguring: bool,
}

/// The typed success payload of a [`ServiceResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponsePayload {
    /// Payload of [`ServiceRequest::Query`].
    Query(QueryResponse),
    /// Payload of [`ServiceRequest::QueryBatch`]: outcomes in input order.
    QueryBatch(Vec<BatchOutcome>),
    /// Payload of [`ServiceRequest::IngestTable`].
    IngestedTable {
        /// The stable index of the ingested table.
        table: usize,
        /// The generation after the mutation.
        generation: u64,
    },
    /// Payload of [`ServiceRequest::IngestDocument`].
    IngestedDocument {
        /// The stable index of the ingested document.
        document: usize,
        /// The generation after the mutation.
        generation: u64,
    },
    /// Payload of [`ServiceRequest::RemoveTable`].
    RemovedTable {
        /// Number of elements (columns) tombstoned.
        elements: usize,
        /// The generation after the mutation.
        generation: u64,
    },
    /// Payload of [`ServiceRequest::RemoveDocument`].
    RemovedDocument {
        /// The generation after the mutation.
        generation: u64,
    },
    /// Payload of [`ServiceRequest::Compact`].
    Compacted {
        /// The generation after compaction.
        generation: u64,
    },
    /// Payload of [`ServiceRequest::Stats`].
    Stats(CmdlStats),
    /// Payload of [`ServiceRequest::Health`].
    Health(HealthReport),
    /// Payload of [`ServiceRequest::CreateLake`].
    LakeCreated {
        /// The created lake's name.
        name: String,
        /// Its initial published generation.
        generation: u64,
    },
    /// Payload of [`ServiceRequest::DropLake`].
    LakeDropped {
        /// The dropped lake's name.
        name: String,
    },
    /// Payload of [`ServiceRequest::ListLakes`]: every registered lake,
    /// sorted by name.
    Lakes(Vec<LakeInfo>),
    /// Payload of [`ServiceRequest::Reconfigure`].
    Reconfigured {
        /// The generation the rebuilt catalog was published at.
        generation: u64,
    },
    /// Payload of [`ServiceRequest::Recover`].
    Recovered {
        /// The published generation after recovery.
        generation: u64,
        /// Whether the gate was actually wedged (`false` means the request
        /// was a no-op on a healthy gate).
        was_wedged: bool,
    },
}

/// Wire-level per-lake quota overrides for [`ServiceRequest::CreateLake`].
/// Every limit is optional: `{"max_inflight": 2}` is a complete spec, and
/// whatever is left unset inherits the hub defaults (see
/// [`TenantQuotas`](crate::TenantQuotas)).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LakeQuotas {
    /// Maximum live tables in the lake.
    pub max_tables: Option<usize>,
    /// Maximum live documents in the lake.
    pub max_documents: Option<usize>,
    /// Maximum cumulative ingested payload bytes.
    pub max_ingest_bytes: Option<u64>,
    /// Maximum concurrently executing requests (the noisy-neighbor cap).
    pub max_inflight: Option<usize>,
}

/// The response envelope of every [`ServiceRequest`]: exactly one of
/// `payload`/`error` is set (`ok` mirrors which, for cheap client checks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceResponse {
    /// `true` iff `payload` is set.
    pub ok: bool,
    /// The typed payload, on success.
    pub payload: Option<ResponsePayload>,
    /// The stable error, on failure.
    pub error: Option<ServiceError>,
}

impl ServiceResponse {
    /// A success envelope.
    pub fn success(payload: ResponsePayload) -> Self {
        Self {
            ok: true,
            payload: Some(payload),
            error: None,
        }
    }

    /// A failure envelope.
    pub fn failure(error: ServiceError) -> Self {
        Self {
            ok: false,
            payload: None,
            error: Some(error),
        }
    }

    /// The error code, if this is a failure.
    pub fn error_code(&self) -> Option<ErrorCode> {
        self.error.as_ref().map(|e| e.code)
    }
}

/// The HTTP status the bundled adapter maps an [`ErrorCode`] to (other
/// transports are free to ignore this).
pub fn http_status(code: ErrorCode) -> u16 {
    match code {
        ErrorCode::UnknownTable
        | ErrorCode::UnknownColumn
        | ErrorCode::UnknownDocument
        | ErrorCode::UnknownRoute
        | ErrorCode::UnknownTenant => 404,
        ErrorCode::DuplicateTable | ErrorCode::DuplicateTenant | ErrorCode::ReconfigurePending => {
            409
        }
        ErrorCode::InvalidQuery | ErrorCode::MalformedRequest => 400,
        ErrorCode::JointModelMissing | ErrorCode::EmptyTrainingData => 422,
        ErrorCode::Overloaded | ErrorCode::QuotaExceeded => 429,
        ErrorCode::Internal | ErrorCode::Persist => 500,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_core::QueryBuilder;
    use cmdl_datalake::Column;

    #[test]
    fn requests_roundtrip_through_serde_json() {
        let requests = vec![
            ServiceRequest::Query(QueryBuilder::keyword("drug").top_k(3).build()),
            ServiceRequest::QueryBatch(vec![
                QueryBuilder::pkfk().build(),
                QueryBuilder::unionable("Drugs").build(),
            ]),
            ServiceRequest::IngestTable(Table::new("T", vec![Column::from_texts("c", ["x", "y"])])),
            ServiceRequest::IngestDocument(Document::new("t", "s", "text")),
            ServiceRequest::RemoveTable { name: "T".into() },
            ServiceRequest::RemoveDocument { index: 3 },
            ServiceRequest::Compact,
            ServiceRequest::Stats,
            ServiceRequest::Health,
            ServiceRequest::CreateLake {
                name: "research".into(),
                config: None,
                quotas: None,
            },
            ServiceRequest::CreateLake {
                name: "tuned".into(),
                config: Some(cmdl_core::CmdlConfig::fast()),
                quotas: Some(LakeQuotas {
                    max_inflight: Some(4),
                    ..LakeQuotas::default()
                }),
            },
            ServiceRequest::DropLake {
                name: "research".into(),
            },
            ServiceRequest::ListLakes,
            ServiceRequest::Reconfigure(cmdl_core::CmdlConfig::fast()),
            ServiceRequest::Recover,
        ];
        for request in requests {
            let json = serde_json::to_string(&request).unwrap();
            let back: ServiceRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(back, request, "round-trip failed for {}", request.kind());
        }
    }

    #[test]
    fn mutation_classification() {
        assert!(ServiceRequest::Compact.is_mutation());
        assert!(ServiceRequest::RemoveTable { name: "T".into() }.is_mutation());
        assert!(!ServiceRequest::Stats.is_mutation());
        assert!(!ServiceRequest::Query(QueryBuilder::pkfk().build()).is_mutation());
        // Control-plane and reconfigure requests run on dedicated paths,
        // never through the writer-gate queue.
        assert!(!ServiceRequest::ListLakes.is_mutation());
        assert!(!ServiceRequest::DropLake { name: "x".into() }.is_mutation());
        assert!(!ServiceRequest::Reconfigure(cmdl_core::CmdlConfig::fast()).is_mutation());
        // Recover must bypass the writer queue: a wedged gate refuses
        // queued mutations, and Recover exists to un-wedge it.
        assert!(!ServiceRequest::Recover.is_mutation());
    }

    #[test]
    fn service_error_carries_code_and_subject_not_prose() {
        let error: ServiceError = CmdlError::UnknownColumn {
            table: "Drugs".into(),
            column: "NoCol".into(),
        }
        .into();
        assert_eq!(error.code, ErrorCode::UnknownColumn);
        assert_eq!(error.subject.as_deref(), Some("Drugs.NoCol"));
        let json = serde_json::to_string(&error).unwrap();
        assert!(
            !json.contains("unknown column"),
            "Display prose must stay off the wire: {json}"
        );
        let back: ServiceError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, error);
    }

    #[test]
    fn every_error_code_maps_to_a_status() {
        for code in ErrorCode::ALL {
            let status = http_status(code);
            assert!((400..600).contains(&status), "{code:?} -> {status}");
        }
        assert_eq!(http_status(ErrorCode::Overloaded), 429);
        assert_eq!(http_status(ErrorCode::UnknownTable), 404);
        assert_eq!(http_status(ErrorCode::QuotaExceeded), 429);
        assert_eq!(http_status(ErrorCode::UnknownTenant), 404);
        assert_eq!(http_status(ErrorCode::DuplicateTenant), 409);
        assert_eq!(http_status(ErrorCode::ReconfigurePending), 409);
    }
}
