//! Error types for the CMDL system.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Stable machine-readable error codes — the *wire contract* of the service
/// layer. Every [`CmdlError`] maps to exactly one code via
/// [`CmdlError::code`]; transports serialize the code (plus the offending
/// identifier), never the human-readable [`Display`](fmt::Display) string,
/// so clients can match on codes while the prose stays free to improve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorCode {
    /// A referenced table does not exist ([`CmdlError::UnknownTable`]).
    UnknownTable,
    /// An ingested table name collides with a live table
    /// ([`CmdlError::DuplicateTable`]).
    DuplicateTable,
    /// A referenced column does not exist ([`CmdlError::UnknownColumn`]).
    UnknownColumn,
    /// A referenced document does not exist ([`CmdlError::UnknownDocument`]).
    UnknownDocument,
    /// The joint model has not been trained
    /// ([`CmdlError::JointModelMissing`]).
    JointModelMissing,
    /// A discovery query is malformed ([`CmdlError::InvalidQuery`]).
    InvalidQuery,
    /// The weak-supervision dataset was empty
    /// ([`CmdlError::EmptyTrainingData`]).
    EmptyTrainingData,
    /// A service request could not be parsed (transport-level; no
    /// [`CmdlError`] counterpart).
    MalformedRequest,
    /// The service shed the request under admission control
    /// (transport-level 429 equivalent).
    Overloaded,
    /// An unclassified internal failure (transport-level).
    Internal,
    /// No endpoint matches the requested method + path (transport-level
    /// 404 equivalent).
    UnknownRoute,
    /// A durability operation failed: the write-ahead log or a segment
    /// checkpoint could not be written, or the catalog's persistence layer
    /// is unusable after a simulated or real crash
    /// ([`CmdlError::Persist`]), or a durable directory was written by a
    /// newer build ([`CmdlError::NewerLayout`]).
    Persist,
    /// A referenced lake (tenant) does not exist in the registry
    /// (transport-level 404 equivalent).
    UnknownTenant,
    /// A `CreateLake` collides with a live lake of the same name
    /// (transport-level 409 equivalent).
    DuplicateTenant,
    /// A per-tenant quota (tables, documents, bytes, or in-flight
    /// requests) would be exceeded — the quota-specific 429
    /// (transport-level; no [`CmdlError`] counterpart).
    QuotaExceeded,
    /// A `Reconfigure` is already rebuilding this tenant's catalog in the
    /// background; only one reconfiguration runs at a time (transport-level
    /// 409 equivalent).
    ReconfigurePending,
}

impl ErrorCode {
    /// Every code, in a stable order (metrics labels iterate this). New
    /// codes are appended, never inserted, so existing positions — which
    /// metrics counters index by — stay stable.
    pub const ALL: [ErrorCode; 16] = [
        ErrorCode::UnknownTable,
        ErrorCode::DuplicateTable,
        ErrorCode::UnknownColumn,
        ErrorCode::UnknownDocument,
        ErrorCode::JointModelMissing,
        ErrorCode::InvalidQuery,
        ErrorCode::EmptyTrainingData,
        ErrorCode::MalformedRequest,
        ErrorCode::Overloaded,
        ErrorCode::Internal,
        ErrorCode::UnknownRoute,
        ErrorCode::Persist,
        ErrorCode::UnknownTenant,
        ErrorCode::DuplicateTenant,
        ErrorCode::QuotaExceeded,
        ErrorCode::ReconfigurePending,
    ];

    /// The snake_case label of the code (metrics and logs).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnknownTable => "unknown_table",
            ErrorCode::DuplicateTable => "duplicate_table",
            ErrorCode::UnknownColumn => "unknown_column",
            ErrorCode::UnknownDocument => "unknown_document",
            ErrorCode::JointModelMissing => "joint_model_missing",
            ErrorCode::InvalidQuery => "invalid_query",
            ErrorCode::EmptyTrainingData => "empty_training_data",
            ErrorCode::MalformedRequest => "malformed_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
            ErrorCode::UnknownRoute => "unknown_route",
            ErrorCode::Persist => "persist",
            ErrorCode::UnknownTenant => "unknown_tenant",
            ErrorCode::DuplicateTenant => "duplicate_tenant",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::ReconfigurePending => "reconfigure_pending",
        }
    }

    /// The position of the code in [`ALL`](Self::ALL) (metrics counters
    /// index by this).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every code is listed in ALL")
    }
}

/// Errors produced by CMDL operations.
#[derive(Debug)]
pub enum CmdlError {
    /// A referenced table does not exist in the lake.
    UnknownTable(String),
    /// An ingested table's name collides with a live table.
    DuplicateTable(String),
    /// A referenced column does not exist.
    UnknownColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// A referenced document does not exist.
    UnknownDocument(usize),
    /// The joint model has not been trained yet.
    JointModelMissing,
    /// A [`DiscoveryQuery`](crate::query::DiscoveryQuery) is malformed (e.g.
    /// a zero `top_k`).
    InvalidQuery(String),
    /// The training dataset was empty (e.g. sampling produced no pairs).
    EmptyTrainingData(String),
    /// A durability operation failed (WAL append/fsync, segment checkpoint,
    /// or the persistence layer is dead after a crash). The payload is a
    /// free-form diagnostic detail.
    Persist(String),
    /// An internal invariant did not hold on a mutation path. Returned as a
    /// typed error (the one request fails) instead of panicking (which
    /// would poison the writer gate). The payload is a free-form
    /// diagnostic detail.
    Internal(String),
    /// A durable catalog directory was written by a newer build (its
    /// manifest version is above the newest this build reads). The open
    /// refuses it and leaves every file as it was.
    NewerLayout {
        /// The directory's manifest version.
        found: u64,
        /// The newest manifest version this build reads.
        supported: u64,
    },
}

impl CmdlError {
    /// The stable wire code of this error (see [`ErrorCode`]).
    pub fn code(&self) -> ErrorCode {
        match self {
            CmdlError::UnknownTable(_) => ErrorCode::UnknownTable,
            CmdlError::DuplicateTable(_) => ErrorCode::DuplicateTable,
            CmdlError::UnknownColumn { .. } => ErrorCode::UnknownColumn,
            CmdlError::UnknownDocument(_) => ErrorCode::UnknownDocument,
            CmdlError::JointModelMissing => ErrorCode::JointModelMissing,
            CmdlError::InvalidQuery(_) => ErrorCode::InvalidQuery,
            CmdlError::EmptyTrainingData(_) => ErrorCode::EmptyTrainingData,
            CmdlError::Persist(_) | CmdlError::NewerLayout { .. } => ErrorCode::Persist,
            CmdlError::Internal(_) => ErrorCode::Internal,
        }
    }

    /// The offending identifier (table name, qualified column, document
    /// index), when the error concerns one. This — not the `Display`
    /// string — is what the service serializes next to the code. For
    /// `InvalidQuery`/`EmptyTrainingData` the subject is a free-form
    /// diagnostic detail: only [`code`](Self::code) is stable; clients
    /// must never match on subject text.
    pub fn subject(&self) -> Option<String> {
        match self {
            CmdlError::UnknownTable(name) | CmdlError::DuplicateTable(name) => Some(name.clone()),
            CmdlError::UnknownColumn { table, column } => Some(format!("{table}.{column}")),
            CmdlError::UnknownDocument(index) => Some(index.to_string()),
            CmdlError::JointModelMissing => None,
            CmdlError::InvalidQuery(reason)
            | CmdlError::EmptyTrainingData(reason)
            | CmdlError::Persist(reason)
            | CmdlError::Internal(reason) => Some(reason.clone()),
            CmdlError::NewerLayout { found, .. } => Some(format!("manifest version {found}")),
        }
    }
}

impl fmt::Display for CmdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmdlError::UnknownTable(name) => write!(f, "unknown table: {name}"),
            CmdlError::DuplicateTable(name) => {
                write!(f, "a live table named {name} already exists in the lake")
            }
            CmdlError::UnknownColumn { table, column } => {
                write!(f, "unknown column: {table}.{column}")
            }
            CmdlError::UnknownDocument(idx) => write!(f, "unknown document index: {idx}"),
            CmdlError::JointModelMissing => write!(
                f,
                "the joint representation model has not been trained; call train_joint first"
            ),
            CmdlError::InvalidQuery(reason) => write!(f, "invalid discovery query: {reason}"),
            CmdlError::EmptyTrainingData(reason) => {
                write!(
                    f,
                    "the weakly-supervised training dataset is empty: {reason}"
                )
            }
            CmdlError::Persist(reason) => write!(f, "persistence failure: {reason}"),
            CmdlError::Internal(reason) => write!(f, "internal invariant violated: {reason}"),
            CmdlError::NewerLayout { found, supported } => write!(
                f,
                "the catalog directory was written by a newer build \
                 (manifest version {found}; this build reads up to {supported})"
            ),
        }
    }
}

impl std::error::Error for CmdlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_descriptive() {
        let e = CmdlError::UnknownTable("Drugs".into());
        assert!(e.to_string().contains("Drugs"));
        let e = CmdlError::UnknownColumn {
            table: "T".into(),
            column: "c".into(),
        };
        assert!(e.to_string().contains("T.c"));
        assert!(CmdlError::JointModelMissing
            .to_string()
            .contains("train_joint"));
    }

    #[test]
    fn every_error_maps_to_a_code_with_subject() {
        let cases = [
            (
                CmdlError::UnknownTable("T".into()),
                ErrorCode::UnknownTable,
                Some("T"),
            ),
            (
                CmdlError::DuplicateTable("T".into()),
                ErrorCode::DuplicateTable,
                Some("T"),
            ),
            (
                CmdlError::UnknownColumn {
                    table: "T".into(),
                    column: "c".into(),
                },
                ErrorCode::UnknownColumn,
                Some("T.c"),
            ),
            (
                CmdlError::UnknownDocument(7),
                ErrorCode::UnknownDocument,
                Some("7"),
            ),
            (
                CmdlError::JointModelMissing,
                ErrorCode::JointModelMissing,
                None,
            ),
            (
                CmdlError::InvalidQuery("why".into()),
                ErrorCode::InvalidQuery,
                Some("why"),
            ),
            (
                CmdlError::EmptyTrainingData("why".into()),
                ErrorCode::EmptyTrainingData,
                Some("why"),
            ),
            (
                CmdlError::Persist("wal fsync failed".into()),
                ErrorCode::Persist,
                Some("wal fsync failed"),
            ),
            (
                CmdlError::NewerLayout {
                    found: 2,
                    supported: 1,
                },
                ErrorCode::Persist,
                Some("manifest version 2"),
            ),
            (
                CmdlError::Internal("missing id".into()),
                ErrorCode::Internal,
                Some("missing id"),
            ),
        ];
        for (error, code, subject) in cases {
            assert_eq!(error.code(), code);
            assert_eq!(error.subject().as_deref(), subject);
        }
    }

    #[test]
    fn error_codes_roundtrip_through_serde_and_index_stably() {
        for (i, code) in ErrorCode::ALL.into_iter().enumerate() {
            assert_eq!(code.index(), i);
            let json = serde_json::to_string(&code).unwrap();
            // Unit variants serialize as bare strings — the stable wire form.
            assert_eq!(json, format!("\"{code:?}\""));
            let back: ErrorCode = serde_json::from_str(&json).unwrap();
            assert_eq!(back, code);
        }
        // Labels are unique (metrics rely on this).
        let labels: std::collections::HashSet<&str> =
            ErrorCode::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(labels.len(), ErrorCode::ALL.len());
    }
}
