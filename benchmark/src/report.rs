//! The metric catalogue (names, units, directions, bounds — the same table
//! `BENCHMARK.json` freezes) and the report a run prints.

use crate::workload::{Kind, Workload};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// The metric name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

fn spec(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::*;
    vec![
        spec("setup_s", "s", Lower, Some(0.25)),
        spec("sat_rps", "1/s", Higher, Some(0.25)),
        spec("lat_p50_ms", "ms", Lower, Some(0.25)),
        spec("lat_p95_ms", "ms", Lower, Some(0.25)),
        spec("truth_recall", "ratio", Higher, Some(0.05)),
        spec("rss_peak_mb", "MB", Lower, Some(0.25)),
    ]
}

/// The per-layer metrics, measured in the traced run.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::*;
    let mut specs = vec![
        spec("text.pipeline.us_per_query", "us", Lower, None),
        spec("embed.solo.us_per_query", "us", Lower, None),
        spec("embed.solo.docs_per_s", "1/s", Higher, None),
        spec("sketch.minhash.columns_per_s", "1/s", Higher, None),
        spec("sketch.lshensemble.probe_us", "us", Lower, None),
        spec("sketch.lshensemble.recall_at_10", "ratio", Higher, None),
        spec("index.bm25.search_us", "us", Lower, None),
        spec("index.bm25.prune_ratio", "ratio", Lower, None),
        spec("index.ann.query_us", "us", Lower, None),
        spec("index.ann.recall_at_10", "ratio", Higher, None),
        spec("core.join.joinable_ms", "ms", Lower, None),
        spec("core.join.pkfk_sweep_ms", "ms", Lower, None),
        spec("core.union.unionable_ms", "ms", Lower, None),
    ];
    for kind in Kind::ALL {
        specs.push(spec(
            &format!("core.query.execute_us.{}", kind.name()),
            "us",
            Lower,
            None,
        ));
    }
    specs.extend([
        spec("core.query.execute_many_speedup", "ratio", Higher, None),
        spec("core.profile.table_ms", "ms", Lower, None),
        spec("core.profile.document_us", "us", Lower, None),
        spec("core.indexes.build_s", "s", Lower, None),
        spec("core.joint.train_s", "s", Lower, None),
        spec("core.indexes.ingest_us", "us", Lower, None),
        spec("core.snapshot.publish_us", "us", Lower, None),
        spec("core.indexes.delta_pressure_max", "ratio", Lower, None),
        spec("index.bm25.delta_search_us", "us", Lower, None),
        spec("core.indexes.compact_ms", "ms", Lower, None),
        spec("core.persist.wal_append_us", "us", Lower, None),
        spec("core.persist.wal_bytes_per_user_byte", "ratio", Lower, None),
        spec("core.persist.checkpoint_ms", "ms", Lower, None),
        spec("core.persist.open_s", "s", Lower, None),
        spec("server.cache.lookup_ns", "ns", Lower, None),
        spec("server.tenants.admit_ns", "ns", Lower, None),
        spec("server.service.envelope_us", "us", Lower, None),
        spec("server.service.response_bytes_mean", "bytes", Lower, None),
        spec("server.service.write_ack_p50_ms", "ms", Lower, None),
        spec("server.reactor.transport_us", "us", Lower, None),
        spec("server.reactor.coalesce_batch_mean", "count", Higher, None),
        spec("server.reactor.shed_total", "count", Lower, None),
        spec("server.cache.hit_ratio", "ratio", Higher, None),
        spec("server.cache.evicted_total", "count", Lower, None),
        spec("server.cache.invalidated_total", "count", Lower, None),
        spec("trace.front_end_self_share", "ratio", Lower, None),
        spec("trace.join_union_self_share", "ratio", Lower, None),
        spec("trace.requests", "count", Higher, None),
        spec("trace.sat_rps", "1/s", Higher, None),
    ]);
    specs
}

/// A measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The metric name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Whether the metrics are the per-layer set (a traced run).
    pub traced: bool,
    /// Requests attempted, all phases and the verification pass.
    pub attempted: u64,
    /// Requests that failed or answered differently from the in-process
    /// execution.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Measured>,
    /// Context lines: sizes, sample counts, set-up breakdown, lateness.
    pub notes: Vec<String>,
    /// Why the run's timings should not be used, if they should not.
    pub void: Option<String>,
}

impl RunReport {
    /// Outputs were correct: nothing failed, nothing mismatched.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `failed / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The value of a metric, by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}) ==\n",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        for metric in &self.metrics {
            out.push_str(&format!(
                "  {:<44} {:>16.4} {}\n",
                metric.name, metric.value, metric.unit
            ));
        }
        out.push_str(&format!(
            "  {:<44} {:>16.6} ratio ({} failed of {} attempted)\n",
            "fail_ratio",
            self.fail_ratio(),
            self.failed,
            self.attempted
        ));
        if let Some(reason) = &self.void {
            out.push_str(&format!("  VOID: {reason}\n"));
        }
        out
    }

    /// The one-line JSON result the driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What [`RunReport::result_line`] carries, read back: `correct` and the
/// metric values by name. `None` when `line` is not a result line.
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    use serde::Json;
    fn field<'a>(object: &'a Json, key: &str) -> Option<&'a Json> {
        match object {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    let json = serde_json::from_str_value(line).ok()?;
    let correct = matches!(field(&json, "correct")?, Json::Bool(true));
    let Json::Obj(metrics) = field(&json, "metrics")? else {
        return None;
    };
    let values = metrics
        .iter()
        .map(|(name, entry)| {
            let value = match field(entry, "value")? {
                Json::F64(f) => *f,
                Json::U64(u) => *u as f64,
                Json::I64(i) => *i as f64,
                _ => return None,
            };
            Some((name.clone(), value))
        })
        .collect::<Option<_>>()?;
    Some((correct, values))
}

/// Pair catalogue entries with values (by name, catalogue order); a value
/// the run did not produce is an error naming it.
pub fn measured(specs: &[MetricSpec], values: &[(String, f64)]) -> Result<Vec<Measured>, String> {
    specs
        .iter()
        .map(|spec| {
            let value = values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .map(|(_, value)| *value)
                .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", spec.name));
            }
            Ok(Measured {
                name: spec.name.clone(),
                value,
                unit: spec.unit,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let all: Vec<MetricSpec> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for spec in &all {
            assert!(spec.name.len() <= 64);
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(spec.unit.len() <= 16);
        }
        assert!(end_to_end()
            .iter()
            .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(end_to_end()
            .iter()
            .any(|s| s.name == "setup_s" && s.better == Better::Lower));
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let report = RunReport {
            workload: Workload::TextDiscovery,
            seed: 1,
            traced: false,
            attempted: 10,
            failed: 0,
            metrics: vec![Measured {
                name: "lat_p50_ms".into(),
                value: 1.234_567_891_234,
                unit: "ms",
            }],
            notes: vec![],
            void: None,
        };
        assert_eq!(
            report.result_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"lat_p50_ms\": {\"value\": 1.234567891234, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn result_line_reads_back() {
        let report = RunReport {
            workload: Workload::RepeatDashboard,
            seed: 3,
            traced: false,
            attempted: 7,
            failed: 1,
            metrics: vec![
                Measured {
                    name: "sat_rps".into(),
                    value: 8000.0,
                    unit: "1/s",
                },
                Measured {
                    name: "lat_p50_ms".into(),
                    value: 1.5e-7,
                    unit: "ms",
                },
            ],
            notes: vec![],
            void: None,
        };
        let (correct, values) = parse_result_line(&report.result_line()).unwrap();
        assert!(!correct);
        assert_eq!(
            values,
            [
                ("sat_rps".to_string(), 8000.0),
                ("lat_p50_ms".to_string(), 1.5e-7)
            ]
        );
        assert!(parse_result_line("not json").is_none());
    }

    #[test]
    fn a_missing_metric_is_named() {
        let error = measured(&end_to_end(), &[("setup_s".to_string(), 1.0)]).unwrap_err();
        assert!(error.contains("sat_rps"), "{error}");
    }
}
