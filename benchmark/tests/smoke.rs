//! The benchmark checked in seconds: `--smoke` end to end, and the frozen
//! contract file against the metric catalogue in the code.

use std::path::Path;

use cmdl_benchmark::report::{end_to_end, per_layer, MetricSpec};
use cmdl_benchmark::smoke::smoke;
use cmdl_benchmark::workload::Workload;
use serde::Json;

#[test]
fn smoke_runs_all_four_workloads_with_every_metric_and_no_failure() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let reports = smoke(&out).expect("smoke run");
    assert_eq!(reports.len(), 2 * Workload::ALL.len());
    for report in &reports {
        assert_eq!(report.fail_ratio(), 0.0, "{}", report.render());
        assert!(report.attempted > 0);
        let catalogue = if report.traced {
            per_layer()
        } else {
            end_to_end()
        };
        for spec in catalogue {
            let value = report
                .value(&spec.name)
                .unwrap_or_else(|| panic!("{} missing", spec.name));
            assert!(value.is_finite(), "{} = {value}", spec.name);
        }
        if report.traced {
            let trace = out.join(format!("trace-{}.jsonl", report.workload.name()));
            assert!(
                std::fs::metadata(&trace).is_ok_and(|m| m.len() > 0),
                "{}",
                trace.display()
            );
        }
    }
    // The workloads separate the layers the way they were chosen to.
    let traced = |workload| {
        reports
            .iter()
            .find(|r| r.traced && r.workload == workload)
            .unwrap()
    };
    assert!(
        traced(Workload::RepeatDashboard)
            .value("server.cache.hit_ratio")
            .unwrap()
            > 0.95
    );
    assert!(
        traced(Workload::TextDiscovery)
            .value("server.cache.hit_ratio")
            .unwrap()
            < 0.05
    );
    assert_eq!(
        traced(Workload::TextDiscovery)
            .value("trace.join_union_self_share")
            .unwrap(),
        0.0
    );
    assert!(
        traced(Workload::StructuredDiscovery)
            .value("trace.join_union_self_share")
            .unwrap()
            > 0.5
    );
    assert!(
        traced(Workload::DiscoveryUnderIngest)
            .value("server.cache.invalidated_total")
            .unwrap()
            > 0.0
    );
}

fn field<'a>(object: &'a Json, key: &str) -> &'a Json {
    match object {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no {key} in {object:?}")),
        other => panic!("{other:?} is not an object"),
    }
}

fn text(value: &Json) -> &str {
    match value {
        Json::Str(s) => s,
        other => panic!("{other:?} is not a string"),
    }
}

fn items(value: &Json) -> &[Json] {
    match value {
        Json::Arr(items) => items,
        other => panic!("{other:?} is not an array"),
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let contract =
        serde_json::from_str_value(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
    let same = |section: &str, catalogue: Vec<MetricSpec>| {
        let entries = items(field(&contract, section));
        assert_eq!(entries.len(), catalogue.len(), "{section}");
        for (entry, spec) in entries.iter().zip(catalogue) {
            assert_eq!(text(field(entry, "name")), spec.name);
            assert_eq!(text(field(entry, "unit")), spec.unit, "{}", spec.name);
            assert_eq!(
                text(field(entry, "better")),
                spec.better.as_str(),
                "{}",
                spec.name
            );
            if let Some(bound) = spec.bound {
                assert!(
                    matches!(field(entry, "bound"), Json::F64(b) if *b == bound),
                    "{}",
                    spec.name
                );
            }
        }
    };
    same("end_to_end", end_to_end());
    same("per_layer", per_layer());
    let workloads: Vec<&str> = items(field(&contract, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    assert_eq!(
        items(field(&contract, "paths"))
            .iter()
            .map(text)
            .collect::<Vec<_>>(),
        ["benchmark"]
    );
}
