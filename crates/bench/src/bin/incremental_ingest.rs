//! Incremental ingestion benchmark: delta-ingest throughput into a 90%
//! pre-built catalog versus a full batch rebuild, and query throughput
//! *while* the lake is being ingested (the HTAP-style workload the
//! delta/snapshot architecture exists for).
//!
//! Emits `target/reports/incremental_ingest.json`; the CI bench-smoke step
//! publishes it as `BENCH_incremental.json` and enforces the ≥5x
//! ingest-vs-rebuild floor.

use std::time::{Duration, Instant};

use cmdl_bench::{bench_config, emit, pharma_lake};
use cmdl_core::{Cmdl, QueryBuilder, SearchMode};
use cmdl_datalake::{DataLake, Document, Table};
use cmdl_eval::{ExperimentReport, MethodResult};

/// Rows of data carried by a delta batch (table rows + documents).
fn delta_rows(tables: &[Table], docs: &[Document]) -> usize {
    tables.iter().map(|t| t.num_rows()).sum::<usize>() + docs.len()
}

fn lake_of(name: &str, tables: &[Table], docs: &[Document]) -> DataLake {
    let mut lake = DataLake::new(name);
    for t in tables {
        lake.add_table(t.clone());
    }
    for d in docs {
        lake.add_document(d.clone());
    }
    lake
}

fn main() {
    let config = bench_config();
    let lake = pharma_lake().lake;
    let tables: Vec<Table> = lake.tables().to_vec();
    let docs: Vec<Document> = lake.documents().to_vec();
    let table_seed = (tables.len() * 9) / 10;
    let doc_seed = (docs.len() * 9) / 10;
    let delta_tables = &tables[table_seed..];
    let delta_docs = &docs[doc_seed..];

    // Query workload: drug names + document titles, as ad-hoc text.
    let queries: Vec<String> = tables
        .iter()
        .take(4)
        .flat_map(|t| t.columns.first())
        .flat_map(|c| c.values.iter().take(3))
        .map(|v| v.as_text())
        .chain(docs.iter().take(4).map(|d| d.title.clone()))
        .collect();

    // --- Full rebuild baseline (best of 2 to absorb CPU-steal spikes). ---
    let mut full_rebuild = f64::MAX;
    let mut full = None;
    for _ in 0..2 {
        let start = Instant::now();
        let system = Cmdl::build(lake.clone(), config.clone());
        full_rebuild = full_rebuild.min(start.elapsed().as_secs_f64());
        full = Some(system);
    }
    let full = full.expect("built at least once");

    // --- 90% pre-built catalog + 10% delta ingest. ---
    let seed_lake = lake_of("pharma-seed", &tables[..table_seed], &docs[..doc_seed]);
    let mut system = Cmdl::build(seed_lake, config.clone());

    let mut ingest_time = Duration::ZERO;
    let mut query_time = Duration::ZERO;
    let mut queries_run = 0usize;
    let run_queries = |system: &Cmdl, query_time: &mut Duration, queries_run: &mut usize| {
        let start = Instant::now();
        for q in &queries {
            let _ = system.execute(
                &QueryBuilder::keyword(q)
                    .mode(SearchMode::Tables)
                    .top_k(10)
                    .build(),
            );
            let _ = system.execute(&QueryBuilder::cross_modal_text(q).top_k(5).build());
        }
        *query_time += start.elapsed();
        *queries_run += 2 * queries.len();
    };

    // Interleave: after every delta batch, run the query workload against
    // the live (delta-carrying) catalog.
    for table in delta_tables {
        let start = Instant::now();
        system
            .ingest_table(table.clone())
            .expect("unique table names");
        ingest_time += start.elapsed();
        run_queries(&system, &mut query_time, &mut queries_run);
    }
    for doc in delta_docs {
        let start = Instant::now();
        system
            .ingest_document(doc.clone())
            .expect("in-memory ingest cannot fail");
        ingest_time += start.elapsed();
        run_queries(&system, &mut query_time, &mut queries_run);
    }
    let qps_under_ingest = queries_run as f64 / query_time.as_secs_f64();

    let compact_start = Instant::now();
    system.compact();
    let compact_secs = compact_start.elapsed().as_secs_f64();

    // Steady-state QPS after compaction, for reference.
    let mut steady_time = Duration::ZERO;
    let mut steady_run = 0usize;
    for _ in 0..3 {
        run_queries(&system, &mut steady_time, &mut steady_run);
    }
    let qps_compacted = steady_run as f64 / steady_time.as_secs_f64();

    let ingest_secs = ingest_time.as_secs_f64();
    let rows = delta_rows(delta_tables, delta_docs);
    let elements = delta_tables.iter().map(|t| t.num_columns()).sum::<usize>() + delta_docs.len();
    let speedup = full_rebuild / ingest_secs;

    let mut report = ExperimentReport::new(
        "Incremental Ingest",
        format!(
            "Delta ingestion of the last {} tables + {} documents (10% of the pharma lake) \
             into a 90% pre-built catalog, vs a full batch rebuild of {} tables + {} documents. \
             Queries ({} content + cross-modal probes per batch) run against the live catalog \
             between delta batches.",
            delta_tables.len(),
            delta_docs.len(),
            tables.len(),
            docs.len(),
            2 * queries.len(),
        ),
    );
    report.push(
        MethodResult::new("Full rebuild (batch)")
            .with("Seconds", full_rebuild)
            .with("Elements", full.profiled.len() as f64),
    );
    report.push(
        MethodResult::new("Delta ingest (10%)")
            .with("Seconds", ingest_secs)
            .with("Elements", elements as f64)
            .with("Rows_per_sec", rows as f64 / ingest_secs)
            .with("Speedup_vs_rebuild", speedup),
    );
    report.push(MethodResult::new("Query QPS under ingest").with("Qps", qps_under_ingest));
    report.push(
        MethodResult::new("Compaction")
            .with("Seconds", compact_secs)
            .with("Qps_after", qps_compacted),
    );
    emit(&report);
}
