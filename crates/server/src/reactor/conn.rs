//! Per-connection state for the reactor: the resumable parser, the
//! response reorder queue, the buffered write side, and the deadline
//! bookkeeping. One [`Conn`] is a few hundred bytes at idle — the whole
//! point of the reactor is that ten thousand of these cost memory, not
//! threads.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use crate::reactor::parser::RequestParser;
use crate::route::format_response_head;

/// Largest write-buffer capacity a keep-alive connection retains between
/// responses.
const MAX_RETAINED_BODY_BYTES: usize = 1024 * 1024;

/// Response body bytes: owned (freshly serialized) or shared (cache hit).
#[derive(Debug, Clone)]
pub enum Body {
    /// Freshly serialized envelope bytes.
    Owned(Vec<u8>),
    /// Cached envelope bytes (an `Arc` clone, no copy).
    Shared(Arc<[u8]>),
}

impl Body {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(a) => a,
        }
    }
}

/// One sequenced item waiting to be written.
#[derive(Debug)]
pub enum Outgoing {
    /// Pre-framed raw bytes (the `100 Continue` interim response).
    Raw(&'static [u8]),
    /// A framed response: status line + headers are composed at write time
    /// so `Connection:` reflects the keep-alive decision of *this* moment
    /// (a draining reactor closes every session it still answers).
    Response {
        /// HTTP status code.
        status: u16,
        /// `Content-Type` header value.
        content_type: &'static str,
        /// Envelope bytes.
        body: Body,
        /// Whether the *request* allowed keep-alive (the reactor may still
        /// force close when draining).
        keep_alive: bool,
    },
}

/// In-order assembly of out-of-order completions.
///
/// Pipelined requests on one connection may finish out of order (a cache
/// hit completes on the loop thread while an earlier mutation is still in
/// the writer gate), but HTTP/1.1 responses must go out in request order.
/// Every parsed request (and interim-response obligation) takes a sequence
/// number at parse time; completions are stashed here and released only
/// in sequence.
#[derive(Debug, Default)]
pub struct ResponseQueue {
    next_assign: u64,
    next_release: u64,
    ready: BTreeMap<u64, Outgoing>,
}

impl ResponseQueue {
    /// Take the next sequence number (at parse time).
    pub fn assign(&mut self) -> u64 {
        let seq = self.next_assign;
        self.next_assign += 1;
        seq
    }

    /// Stash a completed item under its sequence number.
    pub fn complete(&mut self, seq: u64, item: Outgoing) {
        if seq >= self.next_release {
            self.ready.insert(seq, item);
        }
    }

    /// Pop the next in-sequence item, if it has completed.
    pub fn pop_in_order(&mut self) -> Option<Outgoing> {
        let item = self.ready.remove(&self.next_release)?;
        self.next_release += 1;
        Some(item)
    }

    /// Sequence numbers assigned but not yet released — work still owed to
    /// the peer.
    pub fn pending(&self) -> u64 {
        self.next_assign - self.next_release
    }
}

/// What a connection is currently waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnPhase {
    /// At a request boundary, nothing owed: an idle keep-alive session.
    Idle,
    /// Mid-request or with responses still owed/buffered.
    Busy,
}

/// One reactor connection.
pub struct Conn {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// The resumable request parser.
    pub parser: RequestParser,
    /// Reorder queue for pipelined completions.
    pub queue: ResponseQueue,
    /// Buffered response bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// No events after this sequence number are served: set when a request
    /// forces close (`Connection: close`, unframeable encoding) so
    /// pipelined bytes behind it are dropped, never served.
    pub stop_after: Option<u64>,
    /// Peer sent EOF; flush what is owed, then close.
    pub eof: bool,
    /// Close once the write buffer drains.
    pub close_after_flush: bool,
    /// Deadline for completing the request currently being framed
    /// (slow-loris guard: armed when framing starts, *not* refreshed by
    /// trickled bytes).
    pub read_deadline: Option<Instant>,
    /// Deadline for the peer to drain buffered response bytes.
    pub write_deadline: Option<Instant>,
    /// When the connection last became idle (keep-alive reaping).
    pub idle_since: Instant,
    /// The epoll interest mask currently installed for this fd.
    pub interest: u32,
}

impl Conn {
    /// Wrap an accepted, already non-blocking stream.
    pub fn new(stream: TcpStream, now: Instant, interest: u32) -> Self {
        Self {
            stream,
            parser: RequestParser::new(),
            queue: ResponseQueue::default(),
            out: Vec::new(),
            out_pos: 0,
            stop_after: None,
            eof: false,
            close_after_flush: false,
            read_deadline: None,
            write_deadline: None,
            idle_since: now,
            interest,
        }
    }

    /// Append one in-order item to the write buffer. `force_close` folds
    /// the reactor-wide drain decision into the keep-alive header.
    /// Returns `false` when this response ends the session.
    pub fn enqueue_write(&mut self, item: Outgoing, force_close: bool) -> bool {
        match item {
            Outgoing::Raw(bytes) => {
                self.out.extend_from_slice(bytes);
                true
            }
            Outgoing::Response {
                status,
                content_type,
                body,
                keep_alive,
            } => {
                let body = body.as_bytes();
                let keep_alive = keep_alive && !force_close;
                let head = format_response_head(status, content_type, body.len(), keep_alive);
                self.out.reserve(head.len() + body.len());
                self.out.extend_from_slice(head.as_bytes());
                self.out.extend_from_slice(body);
                if !keep_alive {
                    self.close_after_flush = true;
                }
                keep_alive
            }
        }
    }

    /// Push buffered bytes into the socket until done or `WouldBlock`.
    /// `Ok(true)` means fully flushed; `Err` means the peer is gone.
    pub fn try_flush(&mut self) -> std::io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Fully flushed: reset, and do not let one oversized response pin
        // its peak capacity on an idle keep-alive connection.
        self.out.clear();
        self.out_pos = 0;
        if self.out.capacity() > MAX_RETAINED_BODY_BYTES {
            self.out.shrink_to(MAX_RETAINED_BODY_BYTES);
        }
        Ok(true)
    }

    /// Bytes still buffered for the peer.
    pub fn unflushed(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Is this connection an idle keep-alive session or does it owe work?
    pub fn phase(&self) -> ConnPhase {
        if self.parser.mid_request() || self.queue.pending() > 0 || self.unflushed() > 0 {
            ConnPhase::Busy
        } else {
            ConnPhase::Idle
        }
    }

    /// The earliest applicable deadline (read, write, or — for idle
    /// connections — `idle_since + idle_timeout`), or `None` when nothing
    /// is armed.
    pub fn deadline(&self, idle_timeout: Option<std::time::Duration>) -> Option<Instant> {
        let mut earliest: Option<Instant> = None;
        let mut fold = |candidate: Option<Instant>| {
            if let Some(c) = candidate {
                earliest = Some(match earliest {
                    Some(e) => e.min(c),
                    None => c,
                });
            }
        };
        fold(self.read_deadline);
        fold(self.write_deadline);
        if self.phase() == ConnPhase::Idle {
            fold(idle_timeout.map(|t| self.idle_since + t));
        }
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(tag: u8) -> Outgoing {
        Outgoing::Response {
            status: 200,
            content_type: "application/json",
            body: Body::Owned(vec![tag]),
            keep_alive: true,
        }
    }

    fn tag_of(item: &Outgoing) -> u8 {
        match item {
            Outgoing::Response { body, .. } => body.as_bytes()[0],
            Outgoing::Raw(_) => 0xFF,
        }
    }

    #[test]
    fn out_of_order_completions_release_in_sequence() {
        let mut queue = ResponseQueue::default();
        let a = queue.assign();
        let b = queue.assign();
        let c = queue.assign();
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(queue.pending(), 3);

        // Completions arrive c, a, b.
        queue.complete(c, response(3));
        assert!(queue.pop_in_order().is_none(), "a and b still owed");
        queue.complete(a, response(1));
        assert_eq!(tag_of(&queue.pop_in_order().expect("a ready")), 1);
        assert!(queue.pop_in_order().is_none(), "b still owed");
        queue.complete(b, response(2));
        assert_eq!(tag_of(&queue.pop_in_order().expect("b ready")), 2);
        assert_eq!(tag_of(&queue.pop_in_order().expect("c ready")), 3);
        assert_eq!(queue.pending(), 0);
    }

    #[test]
    fn raw_interim_items_sequence_like_responses() {
        let mut queue = ResponseQueue::default();
        let req_a = queue.assign();
        let interim_b = queue.assign();
        let req_b = queue.assign();
        // The 100-continue interim is ready instantly but must not
        // overtake the response to the earlier pipelined request.
        queue.complete(interim_b, Outgoing::Raw(b"HTTP/1.1 100 Continue\r\n\r\n"));
        assert!(queue.pop_in_order().is_none());
        queue.complete(req_a, response(1));
        queue.complete(req_b, response(2));
        assert_eq!(tag_of(&queue.pop_in_order().expect("a")), 1);
        assert_eq!(tag_of(&queue.pop_in_order().expect("interim")), 0xFF);
        assert_eq!(tag_of(&queue.pop_in_order().expect("b")), 2);
    }
}
