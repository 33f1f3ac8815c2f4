//! Parser parity: the resumable push parser — the library's only framing
//! code — must frame requests identically to the one-shot blocking
//! reference parser below ([`read_request`]), which states the framing
//! semantics as straight-line blocking reads.
//!
//! Three properties, each over randomized request streams:
//!
//! 1. **Byte-split invariance** — feeding a stream in chunks of any size
//!    (including one byte at a time) produces exactly the outcome of
//!    feeding it whole.
//! 2. **Valid-stream parity** — for well-formed pipelined streams the
//!    resumable parser emits the same requests, the same `100 Continue`
//!    obligations, and the same termination as the one-shot parser.
//! 3. **Torn/garbage parity** — for truncated streams and arbitrary bytes
//!    the two parsers agree wherever agreement is defined: emitted
//!    requests are identical except that the one-shot parser, reading
//!    lines, may complete at most one extra final request whose blank
//!    terminator was cut at EOF before its `\n` (a stream no conformant
//!    client produces; the resumable parser holds it as truncated).
//!    Framing-violation verdicts may differ only when the violating line
//!    itself is EOF-truncated.

use std::io::{BufRead, BufReader, Cursor, Error, ErrorKind, Read, Write};

use proptest::prelude::*;

use cmdl_server::reactor::parser::{
    ParseEvent, ParsedRequest, RequestParser, MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES,
};

/// `read_line` bounded to [`MAX_LINE_BYTES`]: a line that hits the cap
/// without a newline is an error, not an ever-growing buffer.
fn read_line_bounded<R: BufRead>(reader: &mut R, line: &mut String) -> std::io::Result<usize> {
    let read = reader.take(MAX_LINE_BYTES).read_line(line)?;
    if read as u64 >= MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(Error::new(ErrorKind::InvalidData, "line too long"));
    }
    Ok(read)
}

/// The reference: read one request (start line, headers,
/// `Content-Length` body) with blocking reads. `Ok(None)` is a clean EOF
/// before a start line; `writer` receives the `100 Continue` interim
/// response when `Expect: 100-continue` precedes a non-empty body.
fn read_request<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
) -> std::io::Result<Option<ParsedRequest>> {
    let invalid = |what: &str| Error::new(ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if read_line_bounded(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or("HTTP/1.1").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(invalid("malformed start line"));
    }

    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut expect_continue = false;
    let mut unsupported_encoding = false;
    for header_count in 0.. {
        if header_count > MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        let mut header = String::new();
        if read_line_bounded(reader, &mut header)? == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "EOF inside headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                // 1*DIGIT only, and every repetition must agree.
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(invalid("bad content-length"));
                }
                let length: usize = value.parse().map_err(|_| invalid("bad content-length"))?;
                if content_length.is_some_and(|seen| seen != length) {
                    return Err(invalid("conflicting content-length"));
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("expect") {
                expect_continue = value.eq_ignore_ascii_case("100-continue");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                unsupported_encoding = true;
            }
        }
    }
    if unsupported_encoding {
        // The chunked payload is never read: the request is body-less and
        // closes the connection.
        return Ok(Some(ParsedRequest {
            method,
            path,
            body: Vec::new(),
            keep_alive: false,
            unsupported_encoding: true,
        }));
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(invalid("body too large"));
    }
    if expect_continue && content_length > 0 {
        writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        writer.flush()?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(ParsedRequest {
        method,
        path,
        body,
        keep_alive,
        unsupported_encoding: false,
    }))
}

/// How a parser run over a finite byte stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Term {
    /// EOF at a request boundary.
    CleanEof,
    /// A close-forcing request was emitted; the stream is done regardless
    /// of trailing bytes.
    Stopped,
    /// A framing violation.
    Error,
    /// EOF mid-request.
    Truncated,
}

#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    requests: Vec<ParsedRequest>,
    interims: usize,
    term: Term,
}

/// Drive the one-shot parser the way a blocking serving loop does: loop
/// until EOF, error, or a close-forcing request.
fn run_one_shot(bytes: &[u8]) -> Outcome {
    let mut reader = BufReader::new(Cursor::new(bytes.to_vec()));
    let mut sink: Vec<u8> = Vec::new();
    let mut requests = Vec::new();
    loop {
        match read_request(&mut reader, &mut sink) {
            Ok(None) => {
                return Outcome {
                    requests,
                    interims: count_interims(&sink),
                    term: Term::CleanEof,
                }
            }
            Ok(Some(request)) => {
                let stop = !request.keep_alive;
                requests.push(request);
                if stop {
                    return Outcome {
                        requests,
                        interims: count_interims(&sink),
                        term: Term::Stopped,
                    };
                }
            }
            Err(error) => {
                let term = if error.kind() == ErrorKind::UnexpectedEof {
                    Term::Truncated
                } else {
                    Term::Error
                };
                return Outcome {
                    requests,
                    interims: count_interims(&sink),
                    term,
                };
            }
        }
    }
}

fn count_interims(sink: &[u8]) -> usize {
    let needle = b"HTTP/1.1 100 Continue\r\n\r\n";
    sink.chunks(needle.len()).filter(|c| c == needle).count()
}

/// Drive the resumable parser, feeding `bytes` in chunks whose sizes cycle
/// through `chunk_sizes` (empty/zero entries are treated as 1).
fn run_resumable(bytes: &[u8], chunk_sizes: &[usize]) -> Outcome {
    let mut parser = RequestParser::new();
    let mut requests = Vec::new();
    let mut interims = 0usize;
    let mut failed = false;
    let mut offset = 0usize;
    let mut cycle = 0usize;
    while offset < bytes.len() && !failed {
        let step = if chunk_sizes.is_empty() {
            bytes.len()
        } else {
            chunk_sizes[cycle % chunk_sizes.len()].max(1)
        };
        cycle += 1;
        let end = (offset + step).min(bytes.len());
        if parser.feed(&bytes[offset..end]).is_err() {
            failed = true;
        }
        offset = end;
        while let Some(event) = parser.next_event() {
            match event {
                ParseEvent::Continue100 => interims += 1,
                ParseEvent::Request(request) => requests.push(request),
            }
        }
    }
    // Drain anything queued before a same-feed error.
    while let Some(event) = parser.next_event() {
        match event {
            ParseEvent::Continue100 => interims += 1,
            ParseEvent::Request(request) => requests.push(request),
        }
    }
    let term = if failed {
        Term::Error
    } else if requests.last().map(|r| !r.keep_alive).unwrap_or(false) {
        Term::Stopped
    } else if parser.at_boundary() {
        Term::CleanEof
    } else {
        Term::Truncated
    };
    Outcome {
        requests,
        interims,
        term,
    }
}

/// How a generated request states its `Content-Length`.
#[derive(Debug, Clone, Copy)]
enum Length {
    /// One header: the well-formed case.
    Single,
    /// The header twice with the same value (accepted).
    EqualDuplicate,
    /// A second header with a different value (a framing violation).
    DifferingDuplicate,
    /// A `+N` value (a framing violation).
    Signed,
}

/// Weighted towards well-formed framing so pipelines stay long.
fn length_mode(pick: usize) -> Length {
    match pick {
        0..=2 => Length::Single,
        3 => Length::EqualDuplicate,
        4 => Length::DifferingDuplicate,
        _ => Length::Signed,
    }
}

/// Build one request from generated components: well-formed unless
/// `length` asks for a malformed `Content-Length`.
#[allow(clippy::too_many_arguments)]
fn build_request(
    method: &str,
    path: &str,
    body: &[u8],
    http10: bool,
    close: bool,
    expect: bool,
    chunked: bool,
    extra_headers: usize,
    length: Length,
) -> Vec<u8> {
    let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
    let mut head = format!("{method} /{path} {version}\r\n");
    for i in 0..extra_headers {
        head.push_str(&format!("X-Fuzz-{i}: value-{i}\r\n"));
    }
    let n = body.len();
    if chunked {
        head.push_str("Transfer-Encoding: chunked\r\n");
    } else {
        head.push_str(&match length {
            Length::Single => format!("Content-Length: {n}\r\n"),
            Length::EqualDuplicate => format!("Content-Length: {n}\r\ncontent-length: {n}\r\n"),
            Length::DifferingDuplicate => {
                format!("Content-Length: {n}\r\nContent-Length: {}\r\n", n + 1)
            }
            Length::Signed => format!("Content-Length: +{n}\r\n"),
        });
    }
    if close {
        head.push_str("Connection: close\r\n");
    }
    if expect {
        head.push_str("Expect: 100-continue\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    if !chunked {
        bytes.extend_from_slice(body);
    }
    bytes
}

/// The parity contract for arbitrary (possibly torn) streams. `strict`
/// additionally requires identical termination — valid complete streams
/// qualify.
fn assert_parity(bytes: &[u8], chunk_sizes: &[usize], strict: bool) -> Result<(), TestCaseError> {
    let reference = run_one_shot(bytes);
    let resumable = run_resumable(bytes, chunk_sizes);
    // Byte-split invariance: chunked feeding == whole-stream feeding.
    let whole = run_resumable(bytes, &[]);
    // Byte-split invariance: chunked feeding must equal whole-stream feeding.
    prop_assert_eq!(&resumable, &whole);

    if strict {
        prop_assert_eq!(&resumable.requests, &reference.requests);
        prop_assert_eq!(resumable.interims, reference.interims);
        prop_assert_eq!(resumable.term, reference.term);
        return Ok(());
    }

    // Loose contract for torn streams: the resumable parser's requests are
    // a prefix of the one-shot parser's, short by at most the one request
    // the line-reader can complete at a `\n`-less EOF.
    let extra = reference.requests.len() as i64 - resumable.requests.len() as i64;
    prop_assert!(
        (0..=1).contains(&extra),
        "request count diverged: one-shot {} vs resumable {}",
        reference.requests.len(),
        resumable.requests.len()
    );
    prop_assert_eq!(
        &resumable.requests[..],
        &reference.requests[..resumable.requests.len()]
    );
    // The line-reader can additionally discharge one `100 Continue`
    // obligation off a `\n`-less blank line at EOF before the truncated
    // body read fails; otherwise the counts agree.
    let interim_gap = reference.interims as i64 - resumable.interims as i64;
    prop_assert!((0..=1).contains(&interim_gap));
    match reference.term {
        // A one-shot framing violation is detected on a complete line; the
        // resumable parser either saw the same line (Error) or is still
        // waiting for its `\n` at EOF (Truncated).
        Term::Error => prop_assert!(
            matches!(resumable.term, Term::Error | Term::Truncated),
            "one-shot error but resumable {:?}",
            resumable.term
        ),
        // EOF mid-request for the reference is EOF mid-request for the
        // resumable parser too (it never invents requests).
        Term::Truncated => prop_assert_eq!(resumable.term, Term::Truncated),
        // Clean terminations agree unless the final request needed the
        // `\n`-less-EOF completion only the line-reader performs.
        Term::CleanEof | Term::Stopped => {
            if extra == 0 {
                prop_assert_eq!(resumable.term, reference.term);
            } else {
                prop_assert_eq!(resumable.term, Term::Truncated);
            }
        }
    }
    // The resumable parser never reports a violation the reference missed.
    if resumable.term == Term::Error {
        prop_assert_eq!(reference.term, Term::Error);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Valid pipelined streams: strict parity at every chunking.
    #[test]
    fn valid_streams_parse_identically(
        methods in prop::collection::vec(0usize..3, 1..5),
        paths in prop::collection::vec("[a-z/]{1,12}", 1..5),
        bodies in prop::collection::vec("[ -~]{0,64}", 1..5),
        flags in prop::collection::vec(0usize..32, 1..5),
        lengths in prop::collection::vec(0usize..6, 1..5),
        nreq in 1usize..5,
        chunk_sizes in prop::collection::vec(1usize..9, 1..8),
    ) {
        let mut stream = Vec::new();
        for i in 0..nreq {
            let flag = flags[i % flags.len()];
            let body = bodies[i % bodies.len()].as_bytes();
            stream.extend(build_request(
                ["GET", "POST", "PUT"][methods[i % methods.len()]],
                &paths[i % paths.len()],
                body,
                flag & 1 != 0,
                flag & 2 != 0,
                flag & 4 != 0,
                flag & 8 != 0,
                flag >> 4,
                length_mode(lengths[i % lengths.len()]),
            ));
        }
        assert_parity(&stream, &chunk_sizes, true)?;
        // And byte-at-a-time, the ISSUE's canonical split.
        assert_parity(&stream, &[1], true)?;
    }

    /// Torn streams: valid requests truncated at an arbitrary byte, fed at
    /// arbitrary chunkings.
    #[test]
    fn torn_streams_agree(
        methods in prop::collection::vec(0usize..3, 1..4),
        paths in prop::collection::vec("[a-z/]{1,10}", 1..4),
        bodies in prop::collection::vec("[ -~]{0,48}", 1..4),
        flags in prop::collection::vec(0usize..16, 1..4),
        lengths in prop::collection::vec(0usize..6, 1..4),
        nreq in 1usize..4,
        cut in 0usize..10_000,
        chunk_sizes in prop::collection::vec(1usize..7, 1..6),
    ) {
        let mut stream = Vec::new();
        for i in 0..nreq {
            let flag = flags[i % flags.len()];
            stream.extend(build_request(
                ["GET", "POST", "PUT"][methods[i % methods.len()]],
                &paths[i % paths.len()],
                bodies[i % bodies.len()].as_bytes(),
                flag & 1 != 0,
                flag & 2 != 0,
                flag & 4 != 0,
                flag & 8 != 0,
                0,
                length_mode(lengths[i % lengths.len()]),
            ));
        }
        let cut = cut % (stream.len() + 1);
        stream.truncate(cut);
        assert_parity(&stream, &chunk_sizes, false)?;
        assert_parity(&stream, &[1], false)?;
    }

    /// Garbage: arbitrary bytes, optionally behind a valid prefix.
    #[test]
    fn garbage_streams_agree(
        prefix_methods in prop::collection::vec(0usize..3, 1..3),
        prefix_paths in prop::collection::vec("[a-z]{1,8}", 1..3),
        garbage in prop::collection::vec(0usize..256, 0..300),
        with_prefix in 0usize..2,
        chunk_sizes in prop::collection::vec(1usize..11, 1..6),
    ) {
        let mut stream = Vec::new();
        if with_prefix == 1 {
            for i in 0..prefix_methods.len() {
                stream.extend(build_request(
                    ["GET", "POST", "PUT"][prefix_methods[i]],
                    &prefix_paths[i % prefix_paths.len()],
                    b"x",
                    false,
                    false,
                    false,
                    false,
                    0,
                    Length::Single,
                ));
            }
        }
        stream.extend(garbage.iter().map(|&b| b as u8));
        assert_parity(&stream, &chunk_sizes, false)?;
    }
}

/// Deterministic bound cases the random generators are unlikely to hit:
/// oversized bodies, oversized lines, header-count overflow, bad
/// content-length — each must produce the same verdict from both parsers.
#[test]
fn framing_bounds_match_one_shot() {
    let oversized_body = b"POST /q HTTP/1.1\r\nContent-Length: 68719476736\r\n\r\n".to_vec();
    let mut long_line = b"GET /".to_vec();
    long_line.extend(vec![b'a'; 9000]);
    long_line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let bad_length = b"POST /q HTTP/1.1\r\nContent-Length: twelve\r\n\r\n".to_vec();
    let mut too_many_headers = b"GET /h HTTP/1.1\r\n".to_vec();
    for i in 0..MAX_HEADERS + 1 {
        too_many_headers.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
    }
    let not_utf8 = b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec();
    let differing_lengths =
        b"POST /q HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello".to_vec();
    let signed_length = b"POST /q HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello".to_vec();
    for stream in [
        oversized_body,
        long_line,
        bad_length,
        too_many_headers,
        not_utf8,
        differing_lengths,
        signed_length,
    ] {
        let reference = run_one_shot(&stream);
        let resumable = run_resumable(&stream, &[1]);
        assert_eq!(reference.term, Term::Error, "reference must reject");
        assert_eq!(resumable.term, Term::Error, "resumable must reject");
        assert_eq!(reference.requests, resumable.requests);
    }
}

/// At exactly the header-count cap the request still parses — on both
/// parsers, with identical header effects.
#[test]
fn header_cap_is_inclusive_on_both_parsers() {
    let mut stream = b"POST /edge HTTP/1.1\r\nContent-Length: 2\r\n".to_vec();
    for i in 0..MAX_HEADERS - 1 {
        stream.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
    }
    stream.extend_from_slice(b"\r\nok");
    let reference = run_one_shot(&stream);
    let resumable = run_resumable(&stream, &[1]);
    assert_eq!(reference.term, Term::CleanEof);
    assert_eq!(resumable, reference);
    assert_eq!(reference.requests.len(), 1);
    assert_eq!(reference.requests[0].body, b"ok");
}

/// The `Expect: 100-continue` obligation fires at the same point in both
/// parsers, including when the body never arrives (torn stream).
#[test]
fn continue_obligation_matches_even_when_torn() {
    let full =
        b"POST /c HTTP/1.1\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\nhello".to_vec();
    let torn = &full[..full.len() - 3];
    for (stream, term) in [(&full[..], Term::CleanEof), (torn, Term::Truncated)] {
        let reference = run_one_shot(stream);
        let resumable = run_resumable(stream, &[1]);
        assert_eq!(reference.interims, 1);
        assert_eq!(resumable.interims, 1);
        assert_eq!(resumable.term, term);
    }
}
