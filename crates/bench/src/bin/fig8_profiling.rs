//! Figure 8: profiler overheads — (a) structured-data profiling time for CMDL
//! vs an Aurum-style profiler as the number of column DEs grows (the lake is
//! replicated, as in the paper's stress test), and (b) unstructured-document
//! profiling time as the number of documents grows, plus (c) the cost of
//! 512-hash column signatures under classic and one-permutation MinHash.

use std::time::Instant;

use cmdl_bench::{bench_config, emit, ukopen_lake};
use cmdl_core::Profiler;
use cmdl_datalake::{DataLake, Document, Table};
use cmdl_eval::{ExperimentReport, MethodResult};
use cmdl_sketch::{MinHasher, NumericProfile};
use cmdl_text::{Pipeline, PipelineConfig};

/// Replicate a lake's tables `factor` times (fresh table names).
fn replicate_tables(base: &[Table], factor: usize) -> DataLake {
    let mut lake = DataLake::new("replicated");
    for f in 0..factor {
        for table in base {
            let mut copy = table.clone();
            copy.name = format!("{}_{f}", table.name);
            lake.add_table(copy);
        }
    }
    lake
}

/// An Aurum-style profiler: value sketches and numeric statistics only (no
/// solo embeddings, no token-level features) — the "delta" the paper
/// attributes CMDL's extra cost to.
fn aurum_profile(lake: &DataLake) -> std::time::Duration {
    let hasher = MinHasher::new(64, 1);
    let start = Instant::now();
    for table in lake.tables() {
        for column in &table.columns {
            let values = column.distinct_texts();
            let _sig = hasher.signature(values.iter());
            let _stats = NumericProfile::from_values(&column.numeric_values());
        }
    }
    start.elapsed()
}

fn main() {
    let config = bench_config();
    let profiler = Profiler::new(&config);
    let base = ukopen_lake().lake;
    let base_tables: Vec<Table> = base.tables().to_vec();

    // (a) Structured profiling: scale the number of column DEs.
    let mut report_a = ExperimentReport::new(
        "Figure 8a",
        "Structured-data profiling wall-clock time (seconds) vs number of column DEs, \
         CMDL profiler vs an Aurum-style profiler (value sketches + numeric stats only).",
    );
    for factor in [1usize, 2, 4, 8] {
        let lake = replicate_tables(&base_tables, factor);
        let num_des = lake.num_columns();
        let aurum_time = aurum_profile(&lake);
        let start = Instant::now();
        let profiled = profiler.profile_lake(lake);
        let cmdl_time = start.elapsed();
        report_a.push(
            MethodResult::new(format!("{num_des} columns"))
                .with("Aurum_sec", aurum_time.as_secs_f64())
                .with("CMDL_sec", cmdl_time.as_secs_f64()),
        );
        drop(profiled);
    }
    emit(&report_a);

    // (c) The paper's scalability setting: 512-hash MinHash signatures over
    // every column's distinct values, classic k-independent hashing vs the
    // one-permutation hashing with optimal densification the profiler
    // uses. At 512 hashes the signature is the dominant profiling cost,
    // which is exactly what OPH removes.
    let mut report_c = ExperimentReport::new(
        "Figure 8c",
        "Column signature construction wall-clock (seconds) at the paper's 512-hash setting: \
         classic k-independent MinHash vs one-permutation hashing + densification.",
    );
    for factor in [1usize, 4] {
        let lake = replicate_tables(&base_tables, factor);
        let columns: Vec<Vec<String>> = lake
            .tables()
            .iter()
            .flat_map(|table| table.columns.iter().map(|column| column.distinct_texts()))
            .collect();
        let mut result = MethodResult::new(format!("{} columns, 512 hashes", columns.len()));
        for (label, hasher) in [
            ("Classic_sec", MinHasher::new(512, config.seed)),
            ("OPH_sec", MinHasher::one_permutation(512, config.seed)),
        ] {
            let start = Instant::now();
            for values in &columns {
                std::hint::black_box(hasher.signature(values));
            }
            result = result.with(label, start.elapsed().as_secs_f64());
        }
        report_c.push(result);
    }
    emit(&report_c);

    // (b) Unstructured profiling: scale the number of documents.
    let pipeline = Pipeline::new(PipelineConfig::default());
    let base_docs: Vec<Document> = base.documents().to_vec();
    let mut report_b = ExperimentReport::new(
        "Figure 8b",
        "Unstructured-document profiling wall-clock time (seconds) vs number of documents \
         (NLP pipeline to bag-of-words + sketches).",
    );
    for factor in [5usize, 10, 20, 40] {
        let docs: Vec<Document> = (0..factor).flat_map(|_| base_docs.clone()).collect();
        let start = Instant::now();
        let mut total_terms = 0usize;
        for d in &docs {
            total_terms += pipeline.process(&d.text).distinct_len();
        }
        let elapsed = start.elapsed();
        report_b.push(
            MethodResult::new(format!("{} documents", docs.len()))
                .with("CMDL_sec", elapsed.as_secs_f64())
                .with("avg_terms", total_terms as f64 / docs.len() as f64),
        );
    }
    emit(&report_b);
}
