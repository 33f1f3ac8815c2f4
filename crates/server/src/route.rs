//! The route table and the transport-level answers, shared by both
//! serving loops (the epoll [`reactor`](crate::reactor) and the
//! [`blocking`](crate::blocking) fallback) so they cannot drift apart.
//!
//! Endpoints (all bodies JSON, responses are
//! [`ServiceResponse`] envelopes):
//!
//! | Route                   | Request body        | Envelope built            |
//! |-------------------------|---------------------|---------------------------|
//! | `POST /query`           | `DiscoveryQuery`    | `{"Query": …}`            |
//! | `POST /batch`           | `[DiscoveryQuery]`  | `{"QueryBatch": …}`       |
//! | `POST /ingest/table`    | `Table`             | `{"IngestTable": …}`      |
//! | `POST /ingest/document` | `Document`          | `{"IngestDocument": …}`   |
//! | `POST /remove/table`    | `{"name": …}`       | `{"RemoveTable": …}`      |
//! | `POST /remove/document` | `{"index": …}`      | `{"RemoveDocument": …}`   |
//! | `POST /compact`         | (none)              | `"Compact"`               |
//! | `GET /stats`            | (none)              | `"Stats"`                 |
//! | `GET /healthz`          | (none)              | `"Health"`                |
//! | `GET /metrics`          | (none)              | text exposition           |
//! | `POST /lakes/create`    | `{"name", "config"?, "quotas"?}` | `{"CreateLake": …}` |
//! | `POST /lakes/drop`      | `{"name": …}`       | `{"DropLake": …}`         |
//! | `GET /lakes`            | (none)              | `"ListLakes"`             |
//! | `POST /reconfigure`     | `CmdlConfig`        | `{"Reconfigure": …}`      |
//! | `POST /admin/recover`   | (none)              | `"Recover"`               |
//!
//! Every route can be prefixed with `/t/<name>` to address the lake
//! `<name>` in a multi-tenant hub (`POST /t/alpha/query`, ...); the
//! un-prefixed form addresses the
//! [`DEFAULT_TENANT`](crate::tenants::DEFAULT_TENANT).
//!
//! The front ends do no interpretation of their own: each route splices
//! the body into the externally-tagged
//! [`ServiceRequest`](crate::api::ServiceRequest) envelope and calls
//! [`TenantHub::handle_json`] — the same bytes-in/bytes-out path the
//! in-process tests exercise, so HTTP cannot drift from the service
//! contract.

use std::io::Write;
use std::net::TcpStream;

use cmdl_core::ErrorCode;

use crate::api::{http_status, ServiceError, ServiceResponse};
use crate::reactor::parser::ParsedRequest;
use crate::service::serialize_response;
use crate::tenants::{split_tenant, TenantHub};

/// The interim response owed to `Expect: 100-continue`.
pub(crate) const CONTINUE_100: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// The externally-tagged [`ServiceRequest`](crate::api::ServiceRequest)
/// envelope a route splices its body into, or `None` when no endpoint
/// matches the method + (tenant-stripped) path.
pub fn route_envelope(method: &str, path: &str, body: &str) -> Option<String> {
    Some(match (method, path) {
        ("POST", "/query") => query_envelope(body),
        ("POST", "/batch") => format!("{{\"QueryBatch\":{body}}}"),
        ("POST", "/ingest/table") => format!("{{\"IngestTable\":{body}}}"),
        ("POST", "/ingest/document") => format!("{{\"IngestDocument\":{body}}}"),
        ("POST", "/remove/table") => format!("{{\"RemoveTable\":{body}}}"),
        ("POST", "/remove/document") => format!("{{\"RemoveDocument\":{body}}}"),
        ("POST", "/compact") => "\"Compact\"".to_string(),
        ("GET", "/stats") => "\"Stats\"".to_string(),
        ("GET", "/healthz") => "\"Health\"".to_string(),
        ("POST", "/lakes/create") => format!("{{\"CreateLake\":{body}}}"),
        ("POST", "/lakes/drop") => format!("{{\"DropLake\":{body}}}"),
        ("GET", "/lakes") => "\"ListLakes\"".to_string(),
        ("POST", "/reconfigure") => format!("{{\"Reconfigure\":{body}}}"),
        ("POST", "/admin/recover") => "\"Recover\"".to_string(),
        _ => return None,
    })
}

/// The `POST /query` envelope.
pub(crate) fn query_envelope(body: &str) -> String {
    format!("{{\"Query\":{body}}}")
}

/// A complete response: status, `Content-Type`, and body bytes.
pub(crate) struct Answer {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

/// What [`route`] decided for one parsed request.
pub(crate) enum Routed<'r> {
    /// A transport-level answer, already recorded in the hub's metrics.
    Answer(Answer),
    /// `POST /query`: the request body is the query for `tenant`.
    Query { tenant: &'r str },
    /// Any other endpoint: the spliced envelope for `tenant`.
    Envelope { tenant: &'r str, envelope: String },
}

/// Route one request. Unsupported `Transfer-Encoding`, `GET /metrics`
/// and unknown routes are answered here (each recorded in the hub's
/// global metrics, so the labeled request counters always sum to the
/// total); everything else is handed off with its tenant.
pub(crate) fn route<'r>(hub: &TenantHub, request: &'r ParsedRequest) -> Routed<'r> {
    if request.unsupported_encoding {
        hub.metrics()
            .record_transport("malformed", Some(ErrorCode::MalformedRequest));
        return failure(ServiceError::with_subject(
            ErrorCode::MalformedRequest,
            "transfer-encoding is not supported; frame bodies with content-length",
        ));
    }
    let (tenant, path) = split_tenant(&request.path);
    match (request.method.as_str(), path) {
        ("GET", "/metrics") => {
            // Render before recording: the scrape does not count itself.
            // The exposition is hub-wide (global totals + every tenant's
            // labeled series) whichever prefix it was scraped through.
            let body = hub.render_metrics().into_bytes();
            hub.metrics().record_transport("metrics", None);
            Routed::Answer(Answer {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body,
            })
        }
        ("POST", "/query") => Routed::Query { tenant },
        (method, path) => {
            let body = String::from_utf8_lossy(&request.body);
            match route_envelope(method, path, &body) {
                Some(envelope) => Routed::Envelope { tenant, envelope },
                None => {
                    hub.metrics()
                        .record_transport("unknown_route", Some(ErrorCode::UnknownRoute));
                    failure(ServiceError::with_subject(
                        ErrorCode::UnknownRoute,
                        format!("{} {}", request.method, request.path),
                    ))
                }
            }
        }
    }
}

fn failure(error: ServiceError) -> Routed<'static> {
    Routed::Answer(json_answer(&ServiceResponse::failure(error)))
}

/// Run one spliced envelope through the hub — admission control, quota
/// checks and both metric recordings included.
pub(crate) fn handle(hub: &TenantHub, tenant: &str, envelope: &str) -> Answer {
    json_answer(&hub.handle_json(tenant, envelope.as_bytes()))
}

fn json_answer(response: &ServiceResponse) -> Answer {
    Answer {
        status: response.error_code().map(http_status).unwrap_or(200),
        content_type: "application/json",
        body: serialize_response(response),
    }
}

impl Answer {
    /// Write the framed response (head, then body) to a blocking stream.
    pub(crate) fn write_to(
        &self,
        stream: &mut impl Write,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        let head =
            format_response_head(self.status, self.content_type, self.body.len(), keep_alive);
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)
    }
}

/// Compose the status line + headers for one framed response.
pub(crate) fn format_response_head(
    status: u16,
    content_type: &str,
    body_len: usize,
    keep_alive: bool,
) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {body_len}\r\nConnection: {connection}\r\n\r\n",
    )
}

/// Answer `429 Overloaded` to a connection over the open-connection cap,
/// best effort (the envelope fits the socket send buffer), and close.
pub(crate) fn shed(hub: &TenantHub, mut stream: TcpStream) {
    hub.metrics()
        .record_transport("shed", Some(ErrorCode::Overloaded));
    let answer = json_answer(&ServiceResponse::failure(ServiceError::with_subject(
        ErrorCode::Overloaded,
        "connection limit reached",
    )));
    let _ = stream.set_nonblocking(true);
    let _ = answer.write_to(&mut stream, false);
    let _ = stream.shutdown(std::net::Shutdown::Write);
}
