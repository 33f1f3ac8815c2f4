//! The load generator's HTTP side: one keep-alive connection per lane,
//! pipelined, with responses matched to requests in send order.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::workload::RequestSource;

/// A request that gets no reply for this long counts as timed out (and the
/// lane stops: its pipeline can no longer be matched).
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A 2xx whose envelope says `"ok":true`.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status) && self.body.starts_with(b"{\"ok\":true")
    }
}

/// One keep-alive connection. Requests may be pipelined: HTTP/1.1 answers
/// in request order, so the k-th response read belongs to the k-th request
/// written.
pub struct Connection {
    stream: TcpStream,
    /// Bytes read from the socket but not yet consumed.
    buffer: Vec<u8>,
    /// Scratch for composing a request, reused across sends.
    outgoing: Vec<u8>,
}

impl Connection {
    /// Connect to `addr`.
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            stream,
            buffer: Vec::with_capacity(16 * 1024),
            outgoing: Vec::with_capacity(4 * 1024),
        })
    }

    /// A second handle on the same socket, for a reader thread.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(Self {
            stream: self.stream.try_clone()?,
            buffer: Vec::new(),
            outgoing: Vec::new(),
        })
    }

    /// Write one request (`GET` when `body` is empty, `POST` otherwise).
    pub fn send(&mut self, path: &str, body: &[u8]) -> io::Result<()> {
        self.outgoing.clear();
        let method = if body.is_empty() { "GET" } else { "POST" };
        write!(
            self.outgoing,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.outgoing.extend_from_slice(body);
        self.stream.write_all(&self.outgoing)
    }

    /// Read the next `Content-Length`-framed message off the connection:
    /// its start line and its body. Requests and responses frame alike, so
    /// the tests' stub server reads with this too.
    fn read_message(&mut self) -> io::Result<(String, Vec<u8>)> {
        let invalid = |what| io::Error::new(io::ErrorKind::InvalidData, what);
        let head_end = loop {
            if let Some(at) = find(&self.buffer, b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buffer[..head_end])
            .map_err(|_| invalid("head is not utf-8"))?;
        let start_line = head.lines().next().unwrap_or_default().to_string();
        let length = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| invalid("no content-length"))?;
        while self.buffer.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buffer[head_end..head_end + length].to_vec();
        self.buffer.drain(..head_end + length);
        Ok((start_line, body))
    }

    /// Read the next response off the connection.
    pub fn receive(&mut self) -> io::Result<Response> {
        let (status_line, body) = self.read_message()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
        Ok(Response { status, body })
    }

    /// Send one request and wait for its response.
    pub fn round_trip(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        self.send(path, body)?;
        self.receive()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.buffer.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// What one lane saw during the measured window of a phase.
#[derive(Debug, Clone, Default)]
pub struct LaneStats {
    /// Requests written (whole phase, warm-up included).
    pub attempted: u64,
    /// Requests that failed: non-2xx, `"ok":false`, or never answered.
    pub failed: u64,
    /// Successful replies that arrived inside the measured window.
    pub completed_ok: u64,
    /// Open loop only: per-request latency in microseconds from the
    /// *scheduled* send instant, measured window only.
    pub latencies_us: Vec<f64>,
    /// Open loop only: how late each request left, in microseconds.
    pub lateness_us: Vec<f64>,
}

impl LaneStats {
    /// What a lane reports when it cannot even connect: one attempt, failed.
    pub fn unreachable() -> Self {
        Self {
            attempted: 1,
            failed: 1,
            ..Self::default()
        }
    }

    /// Fold another lane into this one.
    pub fn merge(&mut self, other: LaneStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed_ok += other.completed_ok;
        self.latencies_us.extend(other.latencies_us);
        self.lateness_us.extend(other.lateness_us);
    }
}

/// The time window of a phase: load runs from `start` to `end`, samples
/// count from `measure_from` on.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When load starts.
    pub start: Instant,
    /// From when replies count.
    pub measure_from: Instant,
    /// When load stops (outstanding replies are still drained).
    pub end: Instant,
}

impl Window {
    /// A window opening `lead` from now: `warmup` unmeasured, then
    /// `measured`.
    pub fn opening_in(lead: Duration, warmup: Duration, measured: Duration) -> Self {
        let start = Instant::now() + lead;
        Self {
            start,
            measure_from: start + warmup,
            end: start + warmup + measured,
        }
    }

    fn measures(&self, at: Instant) -> bool {
        at >= self.measure_from && at < self.end
    }
}

/// Sleep, not spin: a spinning sender hits its due times to the microsecond,
/// but on two cores it takes one from the server, and whether it shares that
/// core with the reactor's loop thread then splits sub-millisecond latencies
/// into two populations (0.05 ms or 0.09 ms at the median, run by run).
fn sleep_until(target: Instant) {
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// Closed loop: `depth` callers share this connection; each sends its next
/// request only when its previous one is answered. Runs on the calling
/// thread.
pub fn closed_loop(
    addr: SocketAddr,
    source: &mut dyn RequestSource,
    depth: usize,
    window: Window,
) -> LaneStats {
    let Ok(mut connection) = Connection::open(addr) else {
        return LaneStats::unreachable();
    };
    let mut stats = LaneStats::default();
    sleep_until(window.start);
    let mut in_flight = 0u64;
    loop {
        // Top the pipeline up to `depth` while the window is open.
        while in_flight < depth as u64 && Instant::now() < window.end {
            let request = source.next_request();
            stats.attempted += 1;
            in_flight += 1;
            if connection
                .send(request.path, request.body.as_bytes())
                .is_err()
            {
                stats.failed += in_flight;
                return stats;
            }
        }
        if in_flight == 0 {
            return stats;
        }
        let Ok(response) = connection.receive() else {
            // The pipeline is unmatched from here on: everything
            // outstanding is lost.
            stats.failed += in_flight;
            return stats;
        };
        in_flight -= 1;
        if !response.is_ok() {
            stats.failed += 1;
        } else if window.measures(Instant::now()) {
            stats.completed_ok += 1;
        }
    }
}

/// Open loop: requests leave on a fixed schedule (`rate` per second on this
/// lane) whether or not earlier ones were answered, and each is timed from
/// the instant it was *due*, so a stall — in the generator, the socket or
/// the server — is charged to every request queued behind it. The first
/// request is due `offset` after the window starts, so that lanes can
/// interleave into one evenly spaced arrival process instead of firing in
/// lockstep. The sender runs on the calling thread, the reader on a scoped
/// one.
pub fn open_loop(
    addr: SocketAddr,
    source: &mut dyn RequestSource,
    rate: f64,
    offset: Duration,
    window: Window,
) -> LaneStats {
    let Ok((mut writer, mut reader)) = Connection::open(addr).and_then(|c| Ok((c.try_clone()?, c)))
    else {
        return LaneStats::unreachable();
    };
    let mut stats = LaneStats::default();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (due_tx, due_rx) = mpsc::channel::<Instant>();
    let received = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(move || {
            let mut seen = LaneStats::default();
            // One due-time per request written, in order: pair each with the
            // next response on the wire.
            while let Ok(due) = due_rx.recv() {
                let Ok(response) = reader.receive() else {
                    // Nothing behind a lost reply can be matched any more.
                    seen.failed += 1 + due_rx.iter().count() as u64;
                    return seen;
                };
                let now = Instant::now();
                if !response.is_ok() {
                    seen.failed += 1;
                } else if window.measures(due) {
                    seen.completed_ok += 1;
                    seen.latencies_us.push((now - due).as_secs_f64() * 1e6);
                }
            }
            seen
        });
        let mut due = window.start + offset;
        while due < window.end {
            let request = source.next_request();
            sleep_until(due);
            let lateness = Instant::now().saturating_duration_since(due);
            if window.measures(due) {
                stats.lateness_us.push(lateness.as_secs_f64() * 1e6);
            }
            stats.attempted += 1;
            if due_tx.send(due).is_err()
                || writer.send(request.path, request.body.as_bytes()).is_err()
            {
                stats.failed += 1;
                break;
            }
            due += interval;
        }
        drop(due_tx);
        reader_thread.join().expect("reader thread panicked")
    });
    stats.merge(received);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Request;
    use std::net::TcpListener;

    /// A stub server: answers every request with an envelope echoing the
    /// request body, on one connection, until the peer closes.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut served = 0;
            let mut peer = Connection {
                stream,
                buffer: Vec::new(),
                outgoing: Vec::new(),
            };
            while let Ok((_, body)) = peer.read_message() {
                let reply = format!(
                    "{{\"ok\":true,\"echo\":{}}}",
                    String::from_utf8_lossy(&body)
                );
                write!(
                    peer.stream,
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{reply}",
                    reply.len()
                )
                .unwrap();
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    struct Numbered {
        next: u64,
        stall_at: Option<u64>,
    }

    impl RequestSource for Numbered {
        fn next_request(&mut self) -> Request {
            if self.stall_at == Some(self.next) {
                std::thread::sleep(Duration::from_millis(50));
            }
            self.next += 1;
            Request {
                path: "/query",
                body: format!("{{\"n\":{}}}", self.next - 1),
                query: None,
            }
        }
    }

    #[test]
    fn pipelined_responses_match_requests_in_order() {
        let (addr, server) = echo_server();
        let mut connection = Connection::open(addr).unwrap();
        for n in 0..8 {
            connection
                .send("/query", format!("{{\"n\":{n}}}").as_bytes())
                .unwrap();
        }
        for n in 0..8 {
            let response = connection.receive().unwrap();
            assert!(response.is_ok());
            assert_eq!(
                response.body,
                format!("{{\"ok\":true,\"echo\":{{\"n\":{n}}}}}").into_bytes()
            );
        }
        drop(connection);
        assert_eq!(server.join().unwrap(), 8);
    }

    #[test]
    fn closed_loop_counts_only_the_measured_window() {
        let (addr, server) = echo_server();
        let window = Window::opening_in(
            Duration::from_millis(5),
            Duration::from_millis(100),
            Duration::from_millis(200),
        );
        let stats = closed_loop(
            addr,
            &mut Numbered {
                next: 0,
                stall_at: None,
            },
            4,
            window,
        );
        assert_eq!(stats.failed, 0);
        assert!(stats.completed_ok > 0 && stats.completed_ok < stats.attempted);
        assert_eq!(server.join().unwrap(), stats.attempted);
    }

    #[test]
    fn open_loop_charges_a_stalled_send_to_the_requests_behind_it() {
        let (addr, server) = echo_server();
        let window = Window::opening_in(
            Duration::from_millis(5),
            Duration::ZERO,
            Duration::from_millis(500),
        );
        // 1000 requests/s for 0.5 s; the generator stalls 50 ms before
        // request 200. The ~50 requests due during the stall leave late and
        // must be timed from when they were due, not from when they left.
        let stats = open_loop(
            addr,
            &mut Numbered {
                next: 0,
                stall_at: Some(200),
            },
            1000.0,
            Duration::ZERO,
            window,
        );
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.attempted, 500);
        assert_eq!(stats.completed_ok, 500);
        let mut latencies = stats.latencies_us.clone();
        latencies.sort_by(f64::total_cmp);
        let p95 = crate::stats::percentile(&latencies, 0.95);
        let p50 = crate::stats::percentile(&latencies, 0.50);
        assert!(p95 > 15_000.0, "p95 {p95} µs does not see the 50 ms stall");
        assert!(
            p50 < 10_000.0,
            "p50 {p50} µs: the stall should touch only a tenth of the run"
        );
        let worst_lateness = stats.lateness_us.iter().cloned().fold(0.0, f64::max);
        assert!(
            worst_lateness > 40_000.0,
            "lateness {worst_lateness} µs hides the stall"
        );
        assert_eq!(server.join().unwrap(), 500);
    }
}
