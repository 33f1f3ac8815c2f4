//! Figure 11: end-to-end usability study — system execution time per
//! discovery operation of the five-step pipeline of the motivating example
//! (keyword search → Doc→Table → Doc→Table → joinable → unionable), plus a
//! simulated analyst investigation time per step.
//!
//! The system-side latencies are measured for real; the analyst times are
//! simulated constants (the paper's were measured with human domain experts),
//! reproducing the figure's structure: millisecond-scale system time versus
//! minute-scale human time.

use std::time::Instant;

use cmdl_bench::{build_system, emit, pharma_lake};
use cmdl_core::{Hit, QueryBuilder, SearchMode};
use cmdl_eval::{ExperimentReport, MethodResult};

fn main() {
    let synth = pharma_lake();
    let mut cmdl = build_system(synth.lake);
    cmdl.train_joint(None);
    let k = 3usize;
    let run = |query: QueryBuilder| -> Vec<Hit> {
        cmdl.execute(&query.top_k(k).build())
            .map(|response| response.hits)
            .unwrap_or_default()
    };

    // Simulated analyst investigation minutes per step (paper: 4.6, 1.7, 7.8,
    // 5.3, 8.5 for K=3).
    let analyst_minutes = [4.6f64, 1.7, 7.8, 5.3, 8.5];

    let mut report = ExperimentReport::new(
        "Figure 11",
        format!(
            "End-to-end 5-operation discovery pipeline on the Pharma lake (K = {k}): \
             system execution time per operation (milliseconds, measured) and analyst \
             investigation time (minutes, simulated constants mirroring the paper's study)."
        ),
    );

    // Op1: keyword search for documents about an enzyme.
    let enzyme = cmdl
        .profiled
        .lake
        .table("Enzymes")
        .and_then(|t| t.column("Target"))
        .map(|c| c.values[0].as_text())
        .unwrap_or_else(|| "synthase".to_string());
    let start = Instant::now();
    let docs = run(QueryBuilder::keyword(&enzyme).mode(SearchMode::Text));
    let op1 = start.elapsed();

    // Op2: Doc→Table for the first returned document.
    let doc_idx = docs
        .first()
        .and_then(|r| r.element)
        .and_then(|id| cmdl.profiled.lake.document_index(id))
        .unwrap_or(0);
    let start = Instant::now();
    let tables_1 = run(QueryBuilder::cross_modal_doc(doc_idx));
    let op2 = start.elapsed();

    // Op3: Doc→Table for another returned document.
    let doc_idx_2 = docs
        .get(1)
        .and_then(|r| r.element)
        .and_then(|id| cmdl.profiled.lake.document_index(id))
        .unwrap_or(doc_idx);
    let start = Instant::now();
    let tables_2 = run(QueryBuilder::cross_modal_doc(doc_idx_2));
    let op3 = start.elapsed();

    // Op4: joinable tables for a table selected from the Doc→Table output.
    let selected = tables_1
        .first()
        .or(tables_2.first())
        .and_then(|r| r.table.clone())
        .unwrap_or_else(|| "Drugs".to_string());
    let start = Instant::now();
    let joinable = run(QueryBuilder::joinable(&selected));
    let op4 = start.elapsed();

    // Op5: unionable tables for a table selected from the join output.
    let selected_2 = joinable
        .first()
        .and_then(|r| r.table.clone())
        .unwrap_or(selected.clone());
    let start = Instant::now();
    let _unionable = run(QueryBuilder::unionable(&selected_2));
    let op5 = start.elapsed();

    let ops = [
        ("Op1 Keyword search", op1),
        ("Op2 Doc2Table search", op2),
        ("Op3 Doc2Table search", op3),
        ("Op4 Table-J-Table search", op4),
        ("Op5 Table-U-Table search", op5),
    ];
    let mut cumulative = 0.0;
    for ((label, duration), analyst) in ops.iter().zip(analyst_minutes) {
        cumulative += duration.as_secs_f64() * 1000.0;
        report.push(
            MethodResult::new(*label)
                .with("system_ms", duration.as_secs_f64() * 1000.0)
                .with("cumulative_ms", cumulative)
                .with("analyst_min", analyst),
        );
    }
    emit(&report);
}
