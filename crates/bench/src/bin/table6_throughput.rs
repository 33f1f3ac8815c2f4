//! Table 6: query throughput (queries per second) of the three index types
//! used as labeling functions — keyword search (BM25), containment (LSH
//! Ensemble), and semantic nearest-neighbour (ANN).

use std::time::Instant;

use cmdl_bench::{bench_config, build_system, emit, pharma_lake};
use cmdl_datalake::DeKind;
use cmdl_eval::{ExperimentReport, MethodResult};

/// Best-of-N throughput measurement: runs `passes` timed passes of
/// `probe` over the workload and returns the highest QPS observed.
/// Best-of is robust against the CPU-steal spikes of shared machines.
fn measure_qps(passes: usize, rounds: usize, workload: usize, mut probe: impl FnMut()) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..passes {
        let start = Instant::now();
        for _ in 0..rounds {
            probe();
        }
        let qps = (rounds * workload) as f64 / start.elapsed().as_secs_f64();
        best = best.max(qps);
    }
    best
}

fn main() {
    let synth = pharma_lake();
    let cmdl = build_system(synth.lake);
    let config = bench_config();

    // Query workload: every document's profile probes each index.
    let doc_profiles: Vec<_> = cmdl
        .profiled
        .doc_ids
        .iter()
        .filter_map(|id| cmdl.profiled.profile(*id))
        .collect();
    let rounds = 10usize;
    let passes = 5usize;
    let k = config.label_probe_top_k;

    let mut report = ExperimentReport::new(
        "Table 6",
        format!(
            "Index probe throughput in queries/second (top-{} probes, {} query documents x {} rounds).",
            k,
            doc_profiles.len(),
            rounds
        ),
    );

    // Keyword search: BM25 over content, restricted to columns inside the
    // top-k heap.
    let keyword_qps = measure_qps(passes, rounds, doc_profiles.len(), || {
        for p in &doc_profiles {
            let _ = cmdl.indexes.content_search(
                &cmdl.profiled,
                &p.content,
                Some(DeKind::Column),
                k,
                cmdl_index::ScoringFunction::default(),
            );
        }
    });
    report.push(MethodResult::new("Content search (BM25 inverted index)").with("Qps", keyword_qps));

    let containment_qps = measure_qps(passes, rounds, doc_profiles.len(), || {
        for p in &doc_profiles {
            let _ = cmdl.indexes.containment_search(&p.minhash, k);
        }
    });
    report.push(MethodResult::new("Containment (LSH Ensemble)").with("Qps", containment_qps));

    let ann_qps = measure_qps(passes, rounds, doc_profiles.len(), || {
        for p in &doc_profiles {
            let _ = cmdl.indexes.solo_search(&p.solo.content, k);
        }
    });
    report.push(MethodResult::new("Semantic (ANN random-projection forest)").with("Qps", ann_qps));

    emit(&report);
}
