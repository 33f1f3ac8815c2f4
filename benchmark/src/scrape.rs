//! `GET /metrics` scraping: the server's own counters, read from outside.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;

use crate::client::Connection;

/// One parsed exposition: series name (labels included, verbatim) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    series: HashMap<String, f64>,
}

impl Scrape {
    /// Parse the text exposition: one `name{labels} value` or `name value`
    /// per line; `#` comments and unparseable lines are skipped.
    pub fn parse(text: &str) -> Self {
        let series = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (name, value) = line.trim().rsplit_once(' ')?;
                Some((name.to_string(), value.parse::<f64>().ok()?))
            })
            .collect();
        Self { series }
    }

    /// Scrape a live server.
    pub fn fetch(addr: SocketAddr) -> io::Result<Self> {
        let response = Connection::open(addr)?.round_trip("/metrics", b"")?;
        Ok(Self::parse(&String::from_utf8_lossy(&response.body)))
    }

    /// The value of one series (0 when the server does not expose it).
    pub fn get(&self, series: &str) -> f64 {
        self.series.get(series).copied().unwrap_or(0.0)
    }

    /// How much a counter grew since `earlier`.
    pub fn delta(&self, earlier: &Scrape, series: &str) -> f64 {
        self.get(series) - earlier.get(series)
    }

    /// Mean coalesced batch size since `earlier`, from the
    /// `cmdl_coalesce_batch_size_{sum,count}` pair (0 when nothing
    /// coalesced).
    pub fn coalesce_batch_mean(&self, earlier: &Scrape) -> f64 {
        let batches = self.delta(earlier, "cmdl_coalesce_batch_size_count");
        if batches > 0.0 {
            self.delta(earlier, "cmdl_coalesce_batch_size_sum") / batches
        } else {
            0.0
        }
    }

    /// Cache hits over hits + misses since `earlier` (0 when no lookups).
    pub fn cache_hit_ratio(&self, earlier: &Scrape) -> f64 {
        let hits = self.delta(earlier, "cmdl_cache_hits_total");
        let lookups = hits + self.delta(earlier, "cmdl_cache_misses_total");
        if lookups > 0.0 {
            hits / lookups
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
cmdl_requests_total{kind=\"query\"} 10
cmdl_errors_total{code=\"UnknownTable\"} 0
cmdl_shed_total 0
cmdl_latency_p50_micros 128
cmdl_snapshot_generation 1
cmdl_delta_pressure 0.125
cmdl_coalesce_batch_size_bucket{le=\"+Inf\"} 4
cmdl_coalesce_batch_size_sum 10
cmdl_coalesce_batch_size_count 4
cmdl_cache_hits_total 2
cmdl_cache_misses_total 8
# a comment
garbage line without a number
";
    const AFTER: &str = "\
cmdl_requests_total{kind=\"query\"} 110
cmdl_shed_total 3
cmdl_delta_pressure 0.25
cmdl_coalesce_batch_size_sum 70
cmdl_coalesce_batch_size_count 24
cmdl_cache_hits_total 92
cmdl_cache_misses_total 18
cmdl_tenant_requests_total{tenant=\"default\",kind=\"query\"} 110
";

    #[test]
    fn parses_counters_labels_gauges_and_the_coalesce_pair() {
        let (before, after) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        assert_eq!(before.get("cmdl_requests_total{kind=\"query\"}"), 10.0);
        assert_eq!(before.get("cmdl_delta_pressure"), 0.125);
        assert_eq!(
            before.get("cmdl_coalesce_batch_size_bucket{le=\"+Inf\"}"),
            4.0
        );
        assert_eq!(before.get("no_such_series"), 0.0);
        assert_eq!(
            after.get("cmdl_tenant_requests_total{tenant=\"default\",kind=\"query\"}"),
            110.0
        );
        assert_eq!(
            after.delta(&before, "cmdl_requests_total{kind=\"query\"}"),
            100.0
        );
        assert_eq!(after.delta(&before, "cmdl_shed_total"), 3.0);
        assert_eq!(after.coalesce_batch_mean(&before), 3.0);
        assert_eq!(after.cache_hit_ratio(&before), 0.9);
        assert_eq!(before.coalesce_batch_mean(&before), 0.0);
        assert_eq!(before.cache_hit_ratio(&before), 0.0);
    }
}
