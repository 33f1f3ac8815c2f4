//! Unionable- and joinable-table discovery over an open-government style
//! lake, comparing CMDL's ensemble measure against the Aurum and D3L
//! baselines on the same profiled lake.
//!
//! Run with: `cargo run --example union_discovery`

use cmdl::baselines::{Aurum, D3l};
use cmdl::core::{Cmdl, CmdlConfig, QueryBuilder, UnionDiscovery};
use cmdl::datalake::synth;

fn main() {
    let synth_lake = synth::ukopen::generate(&synth::ukopen::UkOpenConfig::default());
    let query_table = "education_spending_0";
    let truth = synth_lake
        .truth
        .unionable_for(query_table)
        .cloned()
        .unwrap_or_default();
    let cmdl = Cmdl::build(synth_lake.lake, CmdlConfig::fast());

    println!("query table: {query_table}");
    println!("ground-truth unionable tables: {}", truth.len());

    let k = 8;

    // CMDL ensemble.
    let union = UnionDiscovery::new(&cmdl.profiled, &cmdl.indexes.columns);
    println!("\nCMDL (ensemble of name/containment/numeric/semantic):");
    for r in union.unionable_tables(query_table, k) {
        let hit = if truth.contains(&r.table) { "✓" } else { " " };
        println!("  {hit} {:.3}  {}", r.score, r.table);
    }

    // Aurum baseline.
    let aurum = Aurum::new(&cmdl.profiled, &cmdl.config);
    println!("\nAurum (max of schema and Jaccard similarity):");
    for (table, score) in aurum.unionable_tables(query_table, k) {
        let hit = if truth.contains(&table) { "✓" } else { " " };
        println!("  {hit} {score:.3}  {table}");
    }

    // D3L baseline.
    let d3l = D3l::new(&cmdl.profiled, &cmdl.config);
    println!("\nD3L (weighted Euclidean over per-signal distances):");
    for (table, score) in d3l.unionable_tables(query_table, k) {
        let hit = if truth.contains(&table) { "✓" } else { " " };
        println!("  {hit} {score:.3}  {table}");
    }

    // Joinability through the shared region_code columns, via the unified
    // typed-query API (the `UnionDiscovery` calls above use the low-level
    // engine directly; production queries go through `execute`).
    println!("\nCMDL joinable tables for `regions`:");
    let joinable = cmdl
        .execute(&QueryBuilder::joinable("regions").top_k(5).build())
        .expect("table exists");
    for hit in &joinable.hits {
        println!("  {:.3}  {}", hit.score, hit.label);
    }

    // The same query again as unionability, with score provenance: the
    // breakdown names the ensemble signal that anchored each mapping.
    println!("\nCMDL unionable tables for `{query_table}` (with provenance):");
    let unionable = cmdl
        .execute(&QueryBuilder::unionable(query_table).top_k(3).build())
        .expect("table exists");
    for hit in &unionable.hits {
        let dominant = hit
            .breakdown
            .signals
            .iter()
            .max_by(|a, b| {
                (a.value * a.weight)
                    .partial_cmp(&(b.value * b.weight))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|c| format!("{:?}", c.signal))
            .unwrap_or_default();
        println!(
            "  {:.3}  {}  (dominant signal: {dominant})",
            hit.score, hit.label
        );
    }
}
