//! The blocking fallback front end for platforms without epoll: a thread
//! per connection on the reactor's [`RequestParser`] and route table, so
//! both answer byte-for-byte alike (it builds everywhere; Linux CI compares
//! them). `/query` goes through [`TenantHub::handle_json`]: no coalescing.

use std::io::{
    ErrorKind::{Interrupted, TimedOut, WouldBlock},
    Read, Write,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::reactor::parser::{ParseEvent, RequestParser};
use crate::reactor::ReactorConfig;
use crate::route::{handle, query_envelope, route, shed, Routed, CONTINUE_100};
use crate::tenants::TenantHub;

/// State shared by the handle, the accept thread, and connection threads.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    open: AtomicUsize,
}

/// A running blocking front end.
pub struct BlockingHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    hub: Arc<TenantHub>,
}

impl BlockingHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, give connections five seconds to finish the request
    /// they are on (answered with `Connection: close`), then flush every
    /// tenant's writer queue. `true` when every connection closed in time.
    pub fn shutdown(self) -> bool {
        self.shared.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // wake the accept loop
        let _ = self.accept.join();
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.open.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.hub.flush_all();
        self.shared.open.load(Ordering::Acquire) == 0
    }
}

/// Bind and serve a [`TenantHub`] with one thread per connection.
///
/// Reads only `addr`, `max_connections` (connections beyond it are shed
/// with the reactor's `429` envelope) and `read_deadline` (each request's
/// bound, counted from the previous one's end, so also the idle timeout).
pub fn serve_blocking(
    hub: Arc<TenantHub>,
    config: ReactorConfig,
) -> std::io::Result<BlockingHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::default());
    let (accept_shared, accept_hub) = (Arc::clone(&shared), Arc::clone(&hub));
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if accept_shared.open.load(Ordering::Acquire) >= config.max_connections {
                shed(&accept_hub, stream);
                continue;
            }
            accept_shared.open.fetch_add(1, Ordering::AcqRel);
            let (shared, hub) = (Arc::clone(&accept_shared), Arc::clone(&accept_hub));
            std::thread::spawn(move || {
                // A panicking request costs its own connection only.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_connection(stream, &hub, &shared.stop, config.read_deadline)
                }));
                shared.open.fetch_sub(1, Ordering::AcqRel);
            });
        }
    });
    Ok(BlockingHandle {
        addr,
        shared,
        accept,
        hub,
    })
}

/// Serve one connection until the peer closes, a request forces close, a
/// framing violation (closed without a response, like the reactor), the
/// read deadline, or shutdown at a request boundary.
fn serve_connection(
    mut stream: TcpStream,
    hub: &TenantHub,
    stop: &AtomicBool,
    read_deadline: Duration,
) -> std::io::Result<()> {
    // Reads wake every 100 ms to check the deadline and shutdown.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_write_timeout(Some(read_deadline))?;
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut since = Instant::now();
    loop {
        while let Some(event) = parser.next_event() {
            let ParseEvent::Request(request) = event else {
                stream.write_all(CONTINUE_100)?; // ParseEvent::Continue100
                continue;
            };
            let answer = match route(hub, &request) {
                Routed::Answer(answer) => answer,
                Routed::Query { tenant } => {
                    let body = String::from_utf8_lossy(&request.body);
                    handle(hub, tenant, &query_envelope(&body))
                }
                Routed::Envelope { tenant, envelope } => handle(hub, tenant, &envelope),
            };
            let keep_alive = request.keep_alive && !stop.load(Ordering::Acquire);
            answer.write_to(&mut stream, keep_alive)?;
            if !keep_alive {
                return Ok(());
            }
            since = Instant::now();
        }
        if since.elapsed() >= read_deadline
            || (stop.load(Ordering::Acquire) && parser.at_boundary())
        {
            return Ok(());
        }
        match stream.read(&mut scratch) {
            Ok(0) => return Ok(()),
            Ok(n) if parser.feed(&scratch[..n]).is_err() => return Ok(()),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(e) => return Err(e),
        }
    }
}
