//! Service quickstart: stand up the transport-agnostic `CmdlService` over a
//! synthetic pharma lake, drive it in-process through the bytes-in/bytes-out
//! JSON contract, then boot an HTTP front end on a loopback port and
//! issue the same requests over a socket (skipped gracefully when the
//! environment denies loopback binds).
//!
//! Run with: `cargo run --example service_quickstart`
//!
//! The HTTP front end is the epoll reactor (request coalescing and the
//! generation-keyed result cache; Linux). Pass `-- --transport blocking`
//! for the thread-per-connection fallback, which is also what runs on
//! platforms without epoll. Both serve the identical route surface
//! byte-for-byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use cmdl::core::{Cmdl, CmdlConfig, QueryBuilder};
use cmdl::datalake::{synth, Column, Table};
use cmdl::server::{serve_blocking, CmdlService, ReactorConfig, ServiceRequest, TenantHub};

/// The two HTTP front ends, selected by `--transport`.
enum Transport {
    Blocking(cmdl::server::BlockingHandle),
    #[cfg(target_os = "linux")]
    Reactor(cmdl::server::ReactorHandle),
}

impl Transport {
    fn addr(&self) -> SocketAddr {
        match self {
            Transport::Blocking(handle) => handle.addr(),
            #[cfg(target_os = "linux")]
            Transport::Reactor(handle) => handle.addr(),
        }
    }

    fn shutdown(self) {
        match self {
            Transport::Blocking(handle) => {
                handle.shutdown();
            }
            #[cfg(target_os = "linux")]
            Transport::Reactor(handle) => {
                handle.shutdown();
            }
        }
    }
}

fn main() {
    // 1. Build the catalog and wrap it as a service.
    let lake = synth::pharma::generate(&synth::pharma::PharmaConfig::tiny()).lake;
    let service = Arc::new(CmdlService::new(Cmdl::build(lake, CmdlConfig::fast())));

    // 2. In-process transport: JSON bytes in, JSON bytes out. This is the
    //    whole wire contract — HTTP below is nothing but framing.
    let query = ServiceRequest::Query(QueryBuilder::keyword("enzyme inhibitor").top_k(3).build());
    let request = serde_json::to_string(&query).expect("request serializes");
    let response = service.handle_json_bytes(request.as_bytes());
    println!("query -> {}", String::from_utf8_lossy(&response));

    // 3. Mutations route through the writer gate; reads keep pinning the
    //    previously published snapshot until the batch lands.
    let ingest = ServiceRequest::IngestTable(Table::new(
        "Trial_Sites",
        vec![Column::from_texts(
            "Site",
            ["Boston General", "Lyon Institute"],
        )],
    ));
    let request = serde_json::to_string(&ingest).expect("request serializes");
    let response = service.handle_json_bytes(request.as_bytes());
    println!("ingest -> {}", String::from_utf8_lossy(&response));

    let stats = service.handle_json_bytes(br#""Stats""#);
    println!("stats -> {}", String::from_utf8_lossy(&stats));

    // 4. An HTTP front end: std-only, no async runtime. The reactor
    //    multiplexes every connection over one epoll loop, coalesces
    //    same-tick /query requests into one batched execute, and answers
    //    repeated queries from a generation-keyed result cache; the
    //    blocking fallback parks a thread per connection.
    let want_blocking = !cfg!(target_os = "linux")
        || std::env::args().skip_while(|a| a != "--transport").nth(1)
            == Some("blocking".to_string());
    let booted = if want_blocking {
        serve_blocking(
            TenantHub::single(Arc::clone(&service)),
            ReactorConfig::default(),
        )
        .map(Transport::Blocking)
        .map_err(|e| e.to_string())
    } else {
        boot_reactor(&service)
    };
    let transport = match booted {
        Ok(transport) => transport,
        Err(err) => {
            println!("({err}; in-process transport shown above is the same contract)");
            return;
        }
    };
    let addr = transport.addr();
    let label = if want_blocking {
        "blocking fallback"
    } else {
        "reactor"
    };
    println!("serving on http://{addr} ({label})");

    let body = serde_json::to_string(&QueryBuilder::keyword("Lyon").top_k(3).build())
        .expect("query serializes");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(
        stream,
        "POST /query HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("request written");
    let mut http_response = String::new();
    stream
        .read_to_string(&mut http_response)
        .expect("response read");
    let body = http_response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or(&http_response);
    println!("POST /query -> {body}");

    transport.shutdown();
    println!("done.");
}

#[cfg(target_os = "linux")]
fn boot_reactor(service: &Arc<CmdlService>) -> Result<Transport, String> {
    cmdl::server::serve_reactor(Arc::clone(service), cmdl::server::ReactorConfig::default())
        .map(Transport::Reactor)
        .map_err(|e| format!("loopback bind denied: {e}"))
}

#[cfg(not(target_os = "linux"))]
fn boot_reactor(_service: &Arc<CmdlService>) -> Result<Transport, String> {
    unreachable!("the reactor is Linux-only (epoll); the blocking fallback serves elsewhere")
}
