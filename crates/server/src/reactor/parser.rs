//! A resumable HTTP/1.1 request parser — the only framing code in the
//! crate, shared by the reactor and the blocking fallback.
//!
//! [`RequestParser`] enforces bounded start/header lines, a header count
//! cap, `Content-Length` bodies with a 64 MiB cap (duplicates must agree,
//! values are bare digits), `Expect: 100-continue`, `Transfer-Encoding`
//! rejection, and keep-alive defaulting by HTTP version, as a push parser:
//! feed whatever bytes the socket had, collect zero or more completed
//! requests, and the in-between state is a few integers plus the buffered
//! partial line. Ten thousand idle connections therefore cost ten
//! thousand small structs, not ten thousand stacks.
//!
//! Byte-split invariance — feeding a request stream one byte at a time
//! parses identically to feeding it whole, and identically to a one-shot
//! blocking reference parser — is enforced by the proptest suite in
//! `tests/parser_fuzz.rs`.

use std::collections::VecDeque;

/// The largest accepted start line / header line. Framing reads are
/// bounded so a peer streaming bytes without newlines cannot grow memory
/// past this (the body has its own cap, enforced against
/// `Content-Length`).
pub const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Maximum headers per request.
pub const MAX_HEADERS: usize = 100;

/// Cap on `Content-Length` bodies — far beyond any legitimate ingest
/// payload.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// One fully framed request, plus the flags the serving loop needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path, as sent.
    pub path: String,
    /// The `Content-Length`-framed body bytes.
    pub body: Vec<u8>,
    /// Whether the connection survives this request (HTTP/1.1 defaults to
    /// keep-alive, HTTP/1.0 to close, `Connection: close` forces close).
    pub keep_alive: bool,
    /// The request declared `Transfer-Encoding`: the body was *not* read —
    /// answer `400` and close before the unread payload desyncs framing.
    pub unsupported_encoding: bool,
}

/// Events produced while feeding bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseEvent {
    /// Headers carried `Expect: 100-continue` with a non-empty body: write
    /// `HTTP/1.1 100 Continue` before the peer will send the body.
    Continue100,
    /// One complete request.
    Request(ParsedRequest),
}

/// A framing violation. The connection is beyond recovery — answer nothing
/// (the stream position is undefined) and close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// Stable description of the violated bound.
    pub reason: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason)
    }
}

fn err(reason: &'static str) -> ParseError {
    ParseError { reason }
}

#[derive(Debug)]
enum State {
    /// Waiting for the request line.
    StartLine,
    /// Reading header lines. The bound trips when more than
    /// [`MAX_HEADERS`] + 1 lines (headers plus the blank terminator) have
    /// been consumed.
    Headers { lines_read: usize },
    /// Accumulating `remaining` body bytes.
    Body { remaining: usize },
    /// A close-forcing request (`Connection: close`, unsupported encoding)
    /// was emitted: this connection serves nothing further, so all later
    /// bytes are discarded unparsed.
    Stopped,
    /// A fatal framing error was reported; every further feed re-reports it.
    Failed(ParseError),
}

/// The per-connection resumable parser. See the module docs.
#[derive(Debug)]
pub struct RequestParser {
    state: State,
    /// Unconsumed input. `pos` marks how far the state machine has eaten;
    /// the prefix is compacted away once it grows past a line's worth.
    buf: Vec<u8>,
    pos: usize,
    /// Fields of the request currently being framed.
    method: String,
    path: String,
    keep_alive: bool,
    /// The first `Content-Length` seen; a later one must agree.
    content_length: Option<usize>,
    expect_continue: bool,
    unsupported_encoding: bool,
    body: Vec<u8>,
    events: VecDeque<ParseEvent>,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser at a request boundary.
    pub fn new() -> Self {
        Self {
            state: State::StartLine,
            buf: Vec::new(),
            pos: 0,
            method: String::new(),
            path: String::new(),
            keep_alive: true,
            content_length: None,
            expect_continue: false,
            unsupported_encoding: false,
            body: Vec::new(),
            events: VecDeque::new(),
        }
    }

    /// Feed freshly read bytes and advance the state machine. Completed
    /// requests (and `100 Continue` obligations) queue as events; pop them
    /// with [`next_event`](Self::next_event). A returned error is sticky.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), ParseError> {
        if let State::Failed(e) = &self.state {
            return Err(*e);
        }
        self.buf.extend_from_slice(bytes);
        match self.advance() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.state = State::Failed(e);
                Err(e)
            }
        }
    }

    /// Pop the next queued event, if any.
    pub fn next_event(&mut self) -> Option<ParseEvent> {
        self.events.pop_front()
    }

    /// `true` when the parser sits at a request boundary with nothing
    /// buffered — the state in which a peer EOF is a clean close rather
    /// than a truncated request. A stopped parser (past a close-forcing
    /// request) always counts as a boundary.
    pub fn at_boundary(&self) -> bool {
        matches!(self.state, State::StartLine | State::Stopped) && self.pos >= self.buf.len()
    }

    /// `true` when a request is mid-frame (a read deadline should be
    /// ticking) — the inverse of [`at_boundary`](Self::at_boundary) except
    /// that queued-but-unserved events do not count as "in progress".
    pub fn mid_request(&self) -> bool {
        !self.at_boundary()
    }

    /// Bytes currently buffered but not yet consumed by the state machine.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn advance(&mut self) -> Result<(), ParseError> {
        loop {
            match self.state {
                State::StartLine => {
                    let Some(line) = self.take_line()? else {
                        break;
                    };
                    // A blank line between requests is not tolerated:
                    // split_whitespace on "" yields no method, which is a
                    // malformed start line.
                    let mut parts = line.split_whitespace();
                    self.method = parts.next().unwrap_or_default().to_string();
                    self.path = parts.next().unwrap_or_default().to_string();
                    let version = parts.next().unwrap_or("HTTP/1.1");
                    if self.method.is_empty() || self.path.is_empty() {
                        return Err(err("malformed start line"));
                    }
                    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
                    self.keep_alive = version != "HTTP/1.0";
                    self.content_length = None;
                    self.expect_continue = false;
                    self.unsupported_encoding = false;
                    self.state = State::Headers { lines_read: 0 };
                }
                State::Headers { lines_read } => {
                    if lines_read > MAX_HEADERS {
                        return Err(err("too many headers"));
                    }
                    let Some(line) = self.take_line()? else {
                        break;
                    };
                    self.state = State::Headers {
                        lines_read: lines_read + 1,
                    };
                    let header = line.trim_end();
                    if header.is_empty() {
                        self.finish_headers()?;
                        continue;
                    }
                    if let Some((name, value)) = header.split_once(':') {
                        let value = value.trim();
                        if name.eq_ignore_ascii_case("content-length") {
                            let length = parse_content_length(value)?;
                            // A differing duplicate is request smuggling: a
                            // proxy honouring the other value would desync.
                            if self.content_length.is_some_and(|seen| seen != length) {
                                return Err(err("conflicting content-length"));
                            }
                            self.content_length = Some(length);
                        } else if name.eq_ignore_ascii_case("connection") {
                            self.keep_alive = !value.eq_ignore_ascii_case("close");
                        } else if name.eq_ignore_ascii_case("expect") {
                            self.expect_continue = value.eq_ignore_ascii_case("100-continue");
                        } else if name.eq_ignore_ascii_case("transfer-encoding") {
                            self.unsupported_encoding = true;
                        }
                    }
                }
                State::Body { remaining } => {
                    let available = self.buf.len() - self.pos;
                    let take = available.min(remaining);
                    self.body
                        .extend_from_slice(&self.buf[self.pos..self.pos + take]);
                    self.pos += take;
                    self.compact();
                    if take == remaining {
                        self.emit_request();
                    } else {
                        self.state = State::Body {
                            remaining: remaining - take,
                        };
                        break;
                    }
                }
                State::Stopped => {
                    self.pos = self.buf.len();
                    self.compact();
                    break;
                }
                State::Failed(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Headers are complete: decide between the unsupported-encoding
    /// short-circuit, the body cap, the `100 Continue` obligation, and
    /// moving on to the body (or straight to emission when empty).
    fn finish_headers(&mut self) -> Result<(), ParseError> {
        if self.unsupported_encoding {
            // Do not attempt to read the chunked payload: the request is
            // emitted body-less with keep_alive forced off, so the 400 goes
            // out before the unread bytes can be misparsed as the next
            // request.
            self.keep_alive = false;
            self.emit_request();
            return Ok(());
        }
        let length = self.content_length.unwrap_or(0);
        if length > MAX_BODY_BYTES {
            return Err(err("body too large"));
        }
        if self.expect_continue && length > 0 {
            self.events.push_back(ParseEvent::Continue100);
        }
        if length == 0 {
            self.emit_request();
        } else {
            self.state = State::Body { remaining: length };
        }
        Ok(())
    }

    fn emit_request(&mut self) {
        let request = ParsedRequest {
            method: std::mem::take(&mut self.method),
            path: std::mem::take(&mut self.path),
            body: std::mem::take(&mut self.body),
            keep_alive: self.keep_alive,
            unsupported_encoding: self.unsupported_encoding,
        };
        let stops = !request.keep_alive;
        self.events.push_back(ParseEvent::Request(request));
        self.state = if stops {
            State::Stopped
        } else {
            State::StartLine
        };
    }

    /// Consume one `\n`-terminated line (CR retained for the caller's
    /// `trim_end`, matching `read_line`), validated as UTF-8 and bounded by
    /// [`MAX_LINE_BYTES`] — a line that hits the cap without a newline is
    /// an error, not an ever-growing buffer. `None` means more bytes are
    /// needed.
    fn take_line(&mut self) -> Result<Option<String>, ParseError> {
        let pending = &self.buf[self.pos..];
        let cap = MAX_LINE_BYTES as usize;
        let window = &pending[..pending.len().min(cap)];
        match window.iter().position(|&b| b == b'\n') {
            Some(idx) => {
                let line_bytes = &pending[..=idx];
                let line = std::str::from_utf8(line_bytes)
                    .map_err(|_| err("header bytes are not UTF-8"))?
                    .to_string();
                self.pos += idx + 1;
                self.compact();
                Ok(Some(line))
            }
            None if pending.len() >= cap => Err(err("line too long")),
            None => Ok(None),
        }
    }

    /// Drop the consumed prefix once it outgrows a line's worth, keeping
    /// the buffer small on long-lived connections.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > MAX_LINE_BYTES as usize {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// `Content-Length = 1*DIGIT`: no sign, no whitespace, no list.
fn parse_content_length(value: &str) -> Result<usize, ParseError> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(err("bad content-length"));
    }
    value.parse().map_err(|_| err("bad content-length"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(parser: &mut RequestParser, bytes: &[u8]) -> Vec<ParseEvent> {
        parser.feed(bytes).expect("feed");
        let mut events = Vec::new();
        while let Some(e) = parser.next_event() {
            events.push(e);
        }
        events
    }

    #[test]
    fn whole_request_in_one_feed() {
        let mut parser = RequestParser::new();
        let events = feed_all(
            &mut parser,
            b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
        );
        assert_eq!(events.len(), 1);
        let ParseEvent::Request(req) = &events[0] else {
            panic!("expected a request");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive);
        assert!(parser.at_boundary());
    }

    #[test]
    fn byte_at_a_time_matches() {
        let stream = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut parser = RequestParser::new();
        let mut events = Vec::new();
        for b in stream {
            parser.feed(std::slice::from_ref(b)).expect("feed");
            while let Some(e) = parser.next_event() {
                events.push(e);
            }
        }
        assert_eq!(events.len(), 1);
        let ParseEvent::Request(req) = &events[0] else {
            panic!("expected a request");
        };
        assert_eq!(req.path, "/healthz");
        assert!(!req.keep_alive);
    }

    #[test]
    fn pipelined_requests_emit_in_order() {
        let mut parser = RequestParser::new();
        let events = feed_all(
            &mut parser,
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
        );
        let paths: Vec<&str> = events
            .iter()
            .map(|e| match e {
                ParseEvent::Request(r) => r.path.as_str(),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(paths, ["/a", "/b"]);
    }

    #[test]
    fn expect_continue_precedes_the_request() {
        let mut parser = RequestParser::new();
        let events = feed_all(
            &mut parser,
            b"POST /q HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok",
        );
        assert_eq!(events[0], ParseEvent::Continue100);
        assert!(matches!(events[1], ParseEvent::Request(_)));
    }

    #[test]
    fn transfer_encoding_forces_close_without_body() {
        let mut parser = RequestParser::new();
        let events = feed_all(
            &mut parser,
            b"POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        );
        let ParseEvent::Request(req) = &events[0] else {
            panic!("expected a request");
        };
        assert!(req.unsupported_encoding);
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_line_and_body_are_rejected() {
        let mut parser = RequestParser::new();
        let long = vec![b'a'; MAX_LINE_BYTES as usize + 1];
        assert!(parser.feed(&long).is_err());
        // Sticky: the error persists.
        assert!(parser.feed(b"\r\n").is_err());

        let mut parser = RequestParser::new();
        let huge = format!(
            "POST /q HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parser.feed(huge.as_bytes()).is_err());
    }

    #[test]
    fn bad_content_length_and_start_line_are_rejected() {
        let mut parser = RequestParser::new();
        assert!(parser
            .feed(b"POST /q HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
            .is_err());
        let mut parser = RequestParser::new();
        assert!(parser.feed(b"\r\n").is_err());
        let mut parser = RequestParser::new();
        assert!(parser.feed(b"GET\r\n").is_err());
    }

    #[test]
    fn equal_duplicate_content_lengths_are_accepted() {
        let mut parser = RequestParser::new();
        let events = feed_all(
            &mut parser,
            b"POST /q HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nok",
        );
        let ParseEvent::Request(req) = &events[0] else {
            panic!("expected a request");
        };
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn differing_duplicate_content_lengths_are_rejected() {
        // Either order: neither the first nor the last value may win.
        for stream in [
            &b"POST /q HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 2\r\n\r\nok"[..],
            &b"POST /q HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 0\r\n\r\nok"[..],
        ] {
            let mut parser = RequestParser::new();
            assert_eq!(parser.feed(stream), Err(err("conflicting content-length")));
            assert!(parser.next_event().is_none(), "nothing is emitted");
        }
    }

    #[test]
    fn content_length_must_be_bare_digits() {
        for value in ["+5", "-0", " ", "5 5", "5,5", "0x5", "\u{0665}"] {
            let mut parser = RequestParser::new();
            let stream = format!("POST /q HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            assert_eq!(
                parser.feed(stream.as_bytes()),
                Err(err("bad content-length")),
                "{value:?}"
            );
        }
    }

    #[test]
    fn header_count_cap_is_inclusive() {
        // MAX_HEADERS header lines plus the blank terminator parse; one
        // more header line trips the bound before the terminator is ever
        // read.
        let mut ok = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            ok.push_str(&format!("X-H{i}: v\r\n"));
        }
        ok.push_str("\r\n");
        let mut parser = RequestParser::new();
        assert_eq!(feed_all(&mut parser, ok.as_bytes()).len(), 1);

        let mut over = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            over.push_str(&format!("X-H{i}: v\r\n"));
        }
        over.push_str("\r\n");
        let mut parser = RequestParser::new();
        assert!(parser.feed(over.as_bytes()).is_err());
    }

    #[test]
    fn bytes_after_a_close_forcing_request_are_discarded() {
        // Nothing past a `Connection: close` request is served, so it is
        // discarded instead of parsed (pipelined garbage behind a close
        // must not error).
        let mut parser = RequestParser::new();
        let events = feed_all(
            &mut parser,
            b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\nnot an http request at all",
        );
        assert_eq!(events.len(), 1);
        assert!(parser.at_boundary(), "discarded bytes leave a boundary");
        assert!(parser.feed(b"more garbage \x00\xff").is_ok());
        assert!(parser.next_event().is_none());
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn mid_request_tracks_framing_progress() {
        let mut parser = RequestParser::new();
        assert!(!parser.mid_request());
        parser.feed(b"GET /x HT").expect("feed");
        assert!(parser.mid_request());
        parser.feed(b"TP/1.1\r\n\r\n").expect("feed");
        assert!(matches!(parser.next_event(), Some(ParseEvent::Request(_))));
        assert!(!parser.mid_request());
    }
}
