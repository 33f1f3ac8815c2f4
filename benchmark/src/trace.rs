//! Spans recorded from outside the program, around the calls into each
//! layer, and the self-time arithmetic over them.
//!
//! The traced run replays a request once per depth — over the socket,
//! through `CmdlService::handle_json_bytes`, through
//! `CatalogSnapshot::execute`, and through the index and sketch kernels
//! under it — and records each call as a span whose parent is the call one
//! level up. A layer's **self time** is its spans minus the part their
//! children cover, taken over the whole trace.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer the call enters (`server.reactor`, `core.join`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request_id: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Time `call` as a span of `name` under `parent`; returns the span's
    /// index (to parent further spans on) and the call's result.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
        call: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
            request_id,
        });
        (self.spans.len() - 1, result)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The duration of span `index`, in microseconds.
    pub fn duration_us(&self, index: usize) -> f64 {
        self.spans[index].duration_ns() as f64 / 1e3
    }

    /// Self time per layer, in nanoseconds: the layer's spans minus the
    /// spans they parent. The subtraction is done on the layer's totals and
    /// floored there, not span by span — the depths of one request are
    /// separate executions, so a single child can outrun its parent, and
    /// flooring each difference would count that noise as self time.
    pub fn self_time_by_layer(&self) -> HashMap<&'static str, u64> {
        let mut total: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for span in &self.spans {
            total.entry(span.name).or_default().0 += span.duration_ns();
            if let Some(parent) = span.parent {
                total.entry(self.spans[parent].name).or_default().1 += span.duration_ns();
            }
        }
        total
            .into_iter()
            .map(|(layer, (own, children))| (layer, own.saturating_sub(children)))
            .collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_is_a_layers_spans_minus_their_children() {
        let trace = Trace {
            origin: Instant::now(),
            spans: vec![
                span("server.reactor", 0, 100, None),
                span("server.service", 200, 280, Some(0)),
                span("core.query", 300, 360, Some(1)),
                span("index.bm25", 400, 430, Some(2)),
                span("text.pipeline", 500, 520, Some(2)),
                // A child replay that ran longer than its parent did: the
                // overshoot cancels against the other request's slack.
                span("server.reactor", 600, 650, None),
                span("server.service", 700, 760, Some(5)),
                // A layer whose children outrun it in total floors at zero.
                span("core.join", 800, 810, None),
                span("sketch.minhash", 900, 930, Some(7)),
            ],
        };
        let by_layer = trace.self_time_by_layer();
        assert_eq!(by_layer["server.reactor"], 150 - 140);
        assert_eq!(by_layer["server.service"], 140 - 60);
        assert_eq!(by_layer["core.query"], 60 - 50);
        assert_eq!(by_layer["index.bm25"], 30);
        assert_eq!(by_layer["text.pipeline"], 20);
        assert_eq!(by_layer["core.join"], 0);
        assert_eq!(by_layer["sketch.minhash"], 30);
    }

    #[test]
    fn record_parents_and_serializes() {
        let mut trace = Trace::default();
        let (outer, _) = trace.record("server.reactor", None, 7, || ());
        let (inner, value) = trace.record("server.service", Some(outer), 7, || 42);
        assert_eq!((outer, inner, value), (0, 1, 42));
        assert!(trace.spans()[1].end_ns >= trace.spans()[1].start_ns);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "../target/benchmark/test-trace-{}.jsonl",
            std::process::id()
        ));
        trace.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\":0,\"request_id\":7"));
    }
}
