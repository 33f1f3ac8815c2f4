//! Service counters and latency tracking, rendered in a Prometheus-style
//! text format by [`ServiceMetrics::render`].
//!
//! Everything is lock-free (`AtomicU64`): requests and errors are counted
//! per kind/code, and request latencies land in a fixed log₂-bucketed
//! histogram from which p50/p99 are estimated at scrape time. The snapshot
//! generation and delta pressure are *not* stored here — they are read from
//! the published snapshot at render time so `/metrics` is always current.

use std::sync::atomic::{AtomicU64, Ordering};

use cmdl_core::ErrorCode;

/// Number of log₂ latency buckets: bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` microseconds, with the last bucket open-ended
/// (≥ ~34 seconds — effectively "timeout").
const LATENCY_BUCKETS: usize = 36;

/// Request kinds tracked per-counter: the `ServiceRequest::kind` values
/// plus the transport-level pseudo-kinds — `malformed` (unparseable or
/// unframeable request), `shed` (admission control), `unknown_route`, and
/// `metrics` scrapes — so the labeled counters always sum to
/// `cmdl_requests_total`.
const KINDS: [&str; 18] = [
    "query",
    "query_batch",
    "ingest_table",
    "ingest_document",
    "remove_table",
    "remove_document",
    "compact",
    "stats",
    "health",
    "malformed",
    "shed",
    "unknown_route",
    "metrics",
    "create_lake",
    "drop_lake",
    "list_lakes",
    "reconfigure",
    "recover",
];

/// Number of log₂ coalesced-batch-size buckets: bucket `i` counts batches
/// of size in `[2^i, 2^(i+1))`, with the last bucket open-ended (≥ 2048
/// queries in one tick).
const COALESCE_BUCKETS: usize = 12;

/// Lock-free service counters.
#[derive(Debug)]
pub struct ServiceMetrics {
    requests_total: AtomicU64,
    requests_by_kind: [AtomicU64; KINDS.len()],
    errors_total: AtomicU64,
    errors_by_code: [AtomicU64; ErrorCode::ALL.len()],
    shed_total: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
    /// Reactor gauge: currently open reactor connections.
    reactor_connections: AtomicU64,
    /// Reactor counter: connections reaped by a deadline (slow-loris read
    /// deadline, write deadline, or idle timeout).
    reactor_reaped: AtomicU64,
    /// Histogram of coalesced `/query` batch sizes (one sample per
    /// `execute_coalesced` call).
    coalesce_batches: [AtomicU64; COALESCE_BUCKETS],
    /// Sum of all coalesced batch sizes (the histogram `_sum`).
    coalesce_queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evicted: AtomicU64,
    cache_invalidated: AtomicU64,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self {
            requests_total: AtomicU64::new(0),
            requests_by_kind: std::array::from_fn(|_| AtomicU64::new(0)),
            errors_total: AtomicU64::new(0),
            errors_by_code: std::array::from_fn(|_| AtomicU64::new(0)),
            shed_total: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
            reactor_connections: AtomicU64::new(0),
            reactor_reaped: AtomicU64::new(0),
            coalesce_batches: std::array::from_fn(|_| AtomicU64::new(0)),
            coalesce_queries: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evicted: AtomicU64::new(0),
            cache_invalidated: AtomicU64::new(0),
        }
    }
}

impl ServiceMetrics {
    /// Record one handled request: its kind, latency, and error code (if it
    /// failed).
    pub fn record(&self, kind: &str, elapsed_micros: u64, error: Option<ErrorCode>) {
        self.count(kind, error);
        let bucket =
            (64 - elapsed_micros.max(1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a transport-level pseudo-request (metrics scrape, shed
    /// connection, unroutable or unframeable request). Counted, but kept
    /// *out* of the latency histogram — near-zero transport samples would
    /// otherwise drag the exported p50/p99 down to nothing on a
    /// low-traffic service.
    pub fn record_transport(&self, kind: &str, error: Option<ErrorCode>) {
        self.count(kind, error);
    }

    fn count(&self, kind: &str, error: Option<ErrorCode>) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = KINDS.iter().position(|k| *k == kind) {
            self.requests_by_kind[i].fetch_add(1, Ordering::Relaxed);
        }
        if let Some(code) = error {
            self.errors_total.fetch_add(1, Ordering::Relaxed);
            self.errors_by_code[code.index()].fetch_add(1, Ordering::Relaxed);
            if code == ErrorCode::Overloaded {
                self.shed_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total requests handled.
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Total failed requests.
    pub fn errors_total(&self) -> u64 {
        self.errors_total.load(Ordering::Relaxed)
    }

    /// Requests shed under admission control.
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// A reactor connection was accepted and registered.
    pub fn reactor_conn_opened(&self) {
        self.reactor_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A reactor connection was closed (any reason).
    pub fn reactor_conn_closed(&self) {
        self.reactor_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently open reactor connections.
    pub fn reactor_connections(&self) -> u64 {
        self.reactor_connections.load(Ordering::Relaxed)
    }

    /// A reactor connection was reaped by a deadline (slow-loris read
    /// deadline, write deadline, or idle timeout).
    pub fn reactor_conn_reaped(&self) {
        self.reactor_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Total reactor connections reaped by deadlines.
    pub fn reactor_reaped_total(&self) -> u64 {
        self.reactor_reaped.load(Ordering::Relaxed)
    }

    /// Record one coalesced `/query` batch of `size` queries.
    pub fn record_coalesce(&self, size: usize) {
        let bucket =
            (64 - (size.max(1) as u64).leading_zeros() as usize - 1).min(COALESCE_BUCKETS - 1);
        self.coalesce_batches[bucket].fetch_add(1, Ordering::Relaxed);
        self.coalesce_queries
            .fetch_add(size as u64, Ordering::Relaxed);
    }

    /// Total coalesced batches recorded (the histogram `_count`).
    pub fn coalesce_batches_total(&self) -> u64 {
        self.coalesce_batches
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Total queries that went through coalesced batches (the histogram
    /// `_sum`).
    pub fn coalesce_queries_total(&self) -> u64 {
        self.coalesce_queries.load(Ordering::Relaxed)
    }

    /// A result-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A result-cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` entries evicted under the cache's entry/byte budget.
    pub fn record_cache_evicted(&self, n: usize) {
        self.cache_evicted.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `n` entries dropped wholesale on a generation publish.
    pub fn record_cache_invalidated(&self, n: usize) {
        self.cache_invalidated
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Total result-cache hits.
    pub fn cache_hits_total(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Total result-cache misses.
    pub fn cache_misses_total(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Total entries evicted under the cache budget.
    pub fn cache_evicted_total(&self) -> u64 {
        self.cache_evicted.load(Ordering::Relaxed)
    }

    /// Total entries invalidated by generation publishes.
    pub fn cache_invalidated_total(&self) -> u64 {
        self.cache_invalidated.load(Ordering::Relaxed)
    }

    /// Estimate a latency quantile (0.0..=1.0) from the histogram, in
    /// microseconds. Returns the *upper edge* of the bucket the quantile
    /// falls in (a conservative estimate); 0 when nothing was recorded.
    pub fn latency_quantile_micros(&self, quantile: f64) -> u64 {
        let counts: Vec<u64> = self
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * quantile.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << LATENCY_BUCKETS
    }

    /// Render the text exposition: counters, per-code errors, latency
    /// quantiles, plus the caller-supplied snapshot gauges.
    ///
    /// The request and error counters are emitted *only* in labeled form —
    /// the per-kind/per-code series sum exactly to the totals, and mixing
    /// a bare series under the same name would double-count in any
    /// label-aggregating query.
    pub fn render(&self, generation: u64, delta_pressure: f64) -> String {
        let mut out = String::with_capacity(1024);
        for (i, kind) in KINDS.iter().enumerate() {
            out.push_str(&format!(
                "cmdl_requests_total{{kind=\"{kind}\"}} {}\n",
                self.requests_by_kind[i].load(Ordering::Relaxed)
            ));
        }
        for code in ErrorCode::ALL {
            out.push_str(&format!(
                "cmdl_errors_total{{code=\"{}\"}} {}\n",
                code.as_str(),
                self.errors_by_code[code.index()].load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!("cmdl_shed_total {}\n", self.shed_total()));
        out.push_str(&format!(
            "cmdl_latency_p50_micros {}\n",
            self.latency_quantile_micros(0.50)
        ));
        out.push_str(&format!(
            "cmdl_latency_p99_micros {}\n",
            self.latency_quantile_micros(0.99)
        ));
        out.push_str(&format!("cmdl_snapshot_generation {generation}\n"));
        out.push_str(&format!("cmdl_delta_pressure {delta_pressure}\n"));
        // Reactor transport series (all zero when the blocking fallback
        // serves alone — emitting them unconditionally keeps scrapes
        // schema-stable across transports).
        out.push_str(&format!(
            "cmdl_reactor_open_connections {}\n",
            self.reactor_connections()
        ));
        out.push_str(&format!(
            "cmdl_reactor_reaped_total {}\n",
            self.reactor_reaped_total()
        ));
        let mut cumulative = 0u64;
        for (i, bucket) in self.coalesce_batches.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            // Bucket `i` holds integer batch sizes in [2^i, 2^(i+1)), so its
            // inclusive upper bound is 2^(i+1)-1; the last bucket is +Inf.
            if i + 1 == COALESCE_BUCKETS {
                out.push_str(&format!(
                    "cmdl_coalesce_batch_size_bucket{{le=\"+Inf\"}} {cumulative}\n"
                ));
            } else {
                out.push_str(&format!(
                    "cmdl_coalesce_batch_size_bucket{{le=\"{}\"}} {cumulative}\n",
                    (1u64 << (i + 1)) - 1
                ));
            }
        }
        out.push_str(&format!(
            "cmdl_coalesce_batch_size_sum {}\n",
            self.coalesce_queries_total()
        ));
        out.push_str(&format!(
            "cmdl_coalesce_batch_size_count {}\n",
            self.coalesce_batches_total()
        ));
        out.push_str(&format!(
            "cmdl_cache_hits_total {}\n",
            self.cache_hits_total()
        ));
        out.push_str(&format!(
            "cmdl_cache_misses_total {}\n",
            self.cache_misses_total()
        ));
        out.push_str(&format!(
            "cmdl_cache_evicted_total {}\n",
            self.cache_evicted_total()
        ));
        out.push_str(&format!(
            "cmdl_cache_invalidated_total {}\n",
            self.cache_invalidated_total()
        ));
        out
    }

    /// Render this counter set as one tenant's `tenant`-labeled series —
    /// the per-tenant half of the hub exposition. The metric names are
    /// distinct from the un-labeled globals (`cmdl_tenant_*` vs `cmdl_*`),
    /// so dashboards aggregating the existing names never double-count,
    /// and a label-aggregation over `cmdl_tenant_requests_total` sums to
    /// each tenant's own traffic.
    pub fn render_tenant(&self, tenant: &str) -> String {
        let mut out = String::with_capacity(1024);
        for (i, kind) in KINDS.iter().enumerate() {
            out.push_str(&format!(
                "cmdl_tenant_requests_total{{tenant=\"{tenant}\",kind=\"{kind}\"}} {}\n",
                self.requests_by_kind[i].load(Ordering::Relaxed)
            ));
        }
        for code in ErrorCode::ALL {
            out.push_str(&format!(
                "cmdl_tenant_errors_total{{tenant=\"{tenant}\",code=\"{}\"}} {}\n",
                code.as_str(),
                self.errors_by_code[code.index()].load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "cmdl_tenant_latency_p50_micros{{tenant=\"{tenant}\"}} {}\n",
            self.latency_quantile_micros(0.50)
        ));
        out.push_str(&format!(
            "cmdl_tenant_latency_p99_micros{{tenant=\"{tenant}\"}} {}\n",
            self.latency_quantile_micros(0.99)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_counters() {
        let metrics = ServiceMetrics::default();
        metrics.record("query", 100, None);
        metrics.record("query", 200, None);
        metrics.record("remove_table", 50, Some(ErrorCode::UnknownTable));
        metrics.record("query", 10, Some(ErrorCode::Overloaded));
        metrics.record_transport("malformed", Some(ErrorCode::MalformedRequest));
        metrics.record_transport("shed", Some(ErrorCode::Overloaded));
        assert_eq!(metrics.requests_total(), 6);
        assert_eq!(metrics.errors_total(), 4);
        assert_eq!(metrics.shed_total(), 2);
        // Every recorded kind has a label, so the labeled counters sum to
        // the total.
        let by_kind: u64 = metrics
            .requests_by_kind
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        assert_eq!(by_kind, metrics.requests_total());
        let text = metrics.render(7, 0.125);
        // Only labeled request/error series are exposed (a bare series
        // under the same name would double-count in label aggregations).
        for line in text.lines() {
            for name in ["cmdl_requests_total", "cmdl_errors_total"] {
                if let Some(rest) = line.strip_prefix(name) {
                    assert!(rest.starts_with('{'), "bare series leaked: {line}");
                }
            }
        }
        assert!(text.contains("cmdl_requests_total{kind=\"query\"} 3"));
        assert!(text.contains("cmdl_requests_total{kind=\"malformed\"} 1"));
        assert!(text.contains("cmdl_requests_total{kind=\"shed\"} 1"));
        assert!(text.contains("cmdl_errors_total{code=\"unknown_table\"} 1"));
        assert!(text.contains("cmdl_errors_total{code=\"overloaded\"} 2"));
        assert!(text.contains("cmdl_snapshot_generation 7"));
        assert!(text.contains("cmdl_delta_pressure 0.125"));
    }

    #[test]
    fn tenant_series_carry_the_label_and_stay_off_the_global_names() {
        let metrics = ServiceMetrics::default();
        metrics.record("query", 100, None);
        metrics.record("ingest_table", 50, Some(ErrorCode::QuotaExceeded));
        metrics.record("reconfigure", 900, None);
        let text = metrics.render_tenant("alpha");
        assert!(text.contains("cmdl_tenant_requests_total{tenant=\"alpha\",kind=\"query\"} 1"));
        assert!(
            text.contains("cmdl_tenant_requests_total{tenant=\"alpha\",kind=\"ingest_table\"} 1")
        );
        assert!(
            text.contains("cmdl_tenant_requests_total{tenant=\"alpha\",kind=\"reconfigure\"} 1")
        );
        assert!(
            text.contains("cmdl_tenant_errors_total{tenant=\"alpha\",code=\"quota_exceeded\"} 1")
        );
        assert!(text.contains("cmdl_tenant_latency_p50_micros{tenant=\"alpha\"}"));
        assert!(text.contains("cmdl_tenant_latency_p99_micros{tenant=\"alpha\"}"));
        // Every per-tenant line carries the tenant label, and none reuses
        // an un-labeled global metric name (`cmdl_requests_total` etc.),
        // so existing dashboards never double-count.
        for line in text.lines() {
            assert!(
                line.starts_with("cmdl_tenant_"),
                "unexpected series name: {line}"
            );
            assert!(
                line.contains("tenant=\"alpha\""),
                "missing tenant label: {line}"
            );
        }
    }

    #[test]
    fn reactor_series_render_in_exposition_format() {
        let metrics = ServiceMetrics::default();
        metrics.reactor_conn_opened();
        metrics.reactor_conn_opened();
        metrics.reactor_conn_closed();
        metrics.reactor_conn_reaped();
        metrics.record_coalesce(1);
        metrics.record_coalesce(3); // [2,4) bucket → le="3"
        metrics.record_coalesce(5); // [4,8) bucket → le="7"
        metrics.record_cache_hit();
        metrics.record_cache_hit();
        metrics.record_cache_miss();
        metrics.record_cache_evicted(4);
        metrics.record_cache_invalidated(9);

        assert_eq!(metrics.reactor_connections(), 1);
        assert_eq!(metrics.reactor_reaped_total(), 1);
        assert_eq!(metrics.coalesce_batches_total(), 3);
        assert_eq!(metrics.coalesce_queries_total(), 9);

        let text = metrics.render(0, 0.0);
        assert!(text.contains("cmdl_reactor_open_connections 1"));
        assert!(text.contains("cmdl_reactor_reaped_total 1"));
        // Cumulative histogram: le="1" sees the size-1 batch, le="3" adds
        // the size-3 batch, le="7" adds the size-5 batch, +Inf sees all.
        assert!(text.contains("cmdl_coalesce_batch_size_bucket{le=\"1\"} 1"));
        assert!(text.contains("cmdl_coalesce_batch_size_bucket{le=\"3\"} 2"));
        assert!(text.contains("cmdl_coalesce_batch_size_bucket{le=\"7\"} 3"));
        assert!(text.contains("cmdl_coalesce_batch_size_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("cmdl_coalesce_batch_size_sum 9"));
        assert!(text.contains("cmdl_coalesce_batch_size_count 3"));
        assert!(text.contains("cmdl_cache_hits_total 2"));
        assert!(text.contains("cmdl_cache_misses_total 1"));
        assert!(text.contains("cmdl_cache_evicted_total 4"));
        assert!(text.contains("cmdl_cache_invalidated_total 9"));
        // Histogram buckets stay cumulative (monotonically non-decreasing).
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("cmdl_coalesce_batch_size_bucket") {
                let value: u64 = rest.split(' ').next_back().unwrap().parse().unwrap();
                assert!(value >= last, "bucket counts must be cumulative: {line}");
                last = value;
            }
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bucketed() {
        let metrics = ServiceMetrics::default();
        assert_eq!(metrics.latency_quantile_micros(0.5), 0);
        for _ in 0..99 {
            metrics.record("query", 100, None); // bucket [64, 128)
        }
        metrics.record("query", 1_000_000, None); // ~1s outlier
        let p50 = metrics.latency_quantile_micros(0.50);
        let p99 = metrics.latency_quantile_micros(0.99);
        let p100 = metrics.latency_quantile_micros(1.0);
        assert_eq!(p50, 128, "p50 reports the [64,128) bucket's upper edge");
        assert!(p50 <= p99 && p99 <= p100);
        assert!(p100 >= 1_048_576, "the outlier lands in a >=2^20 bucket");
    }
}
