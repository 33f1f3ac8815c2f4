//! Table 5: contribution of the individual unionability similarity measures —
//! relative recall (RR) and the fraction of queries answered, per measure and
//! for the CMDL ensemble, on Benchmarks 3A and 3B.

use std::collections::BTreeSet;

use cmdl_bench::{build_system, emit, pharma_lake, ukopen_lake};
use cmdl_core::UnionDiscovery;
use cmdl_datalake::benchmarks::unionable_benchmark;
use cmdl_datalake::synth::SyntheticLake;
use cmdl_datalake::{BenchmarkId, QueryInput};
use cmdl_eval::{relative_recall, ExperimentReport, MethodResult};

const MEASURES: [&str; 5] = ["name", "containment", "numeric", "semantic", "ensemble"];

fn run(label: &str, synth: SyntheticLake, id: BenchmarkId, k: usize) {
    let benchmark = unionable_benchmark(id, &synth);
    let cmdl = build_system(synth.lake);
    let union = UnionDiscovery::new(&cmdl.profiled, &cmdl.indexes.columns);

    // For every measure, collect the true matches found across all queries.
    let mut found: Vec<BTreeSet<String>> = vec![BTreeSet::new(); MEASURES.len()];
    let mut answered: Vec<usize> = vec![0; MEASURES.len()];
    let mut num_queries = 0usize;
    for query in &benchmark.queries {
        let QueryInput::Table(table) = &query.input else {
            continue;
        };
        if cmdl.profiled.lake.table(table).is_none() || query.expected.is_empty() {
            continue;
        }
        num_queries += 1;
        for (m, measure) in MEASURES.iter().enumerate() {
            let results = union.unionable_tables_with(table, k, measure);
            let mut any = false;
            for r in results {
                if query.expected.contains(&r.table) {
                    found[m].insert(format!("{table}->{}", r.table));
                    any = true;
                }
            }
            if any {
                answered[m] += 1;
            }
        }
    }
    // Union of true matches found by any measure.
    let mut all: BTreeSet<String> = BTreeSet::new();
    for f in &found {
        all.extend(f.iter().cloned());
    }

    let mut report = ExperimentReport::new(
        format!("Table 5 - Benchmark {label}"),
        format!(
            "Relative recall (RR) of each unionability measure against the union of true \
             matches found by all measures, plus the fraction of the {num_queries} queries \
             answered (≥1 true match), at k = {k}."
        ),
    );
    for (m, measure) in MEASURES.iter().enumerate() {
        report.push(
            MethodResult::new(if *measure == "ensemble" {
                "CMDL ensemble"
            } else {
                measure
            })
            .with("RR", relative_recall(&found[m], &all))
            .with(
                "queries_answered_%",
                if num_queries == 0 {
                    0.0
                } else {
                    100.0 * answered[m] as f64 / num_queries as f64
                },
            ),
        );
    }
    emit(&report);
}

fn main() {
    run("3A (UK-Open)", ukopen_lake(), BenchmarkId::B3A, 10);
    run(
        "3B (DrugBank-Synthetic)",
        pharma_lake(),
        BenchmarkId::B3B,
        10,
    );
}
