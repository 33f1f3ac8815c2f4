//! Structured-data discovery evaluation: syntactic joins (Table 3), PK-FK
//! (Table 4), and unionability (Figure 7 / Table 5).

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use cmdl_baselines::{Aurum, D3l};
use cmdl_core::{Cmdl, JoinDiscovery, QueryBuilder, UnionDiscovery};
use cmdl_datalake::{Benchmark, BenchmarkKind, QueryInput};

use crate::metrics::{precision_recall_curve, r_precision, PrPoint};

/// Systems compared on the structured-data tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StructuredSystem {
    /// CMDL (containment-based joins, ensemble unionability).
    Cmdl,
    /// The Aurum baseline.
    Aurum,
    /// The D3L baseline.
    D3l,
}

impl StructuredSystem {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            StructuredSystem::Cmdl => "CMDL",
            StructuredSystem::Aurum => "Aurum",
            StructuredSystem::D3l => "D3L",
        }
    }
}

/// Result of the syntactic-join evaluation for one system (one cell of
/// Table 3: precision = recall).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinEvaluation {
    /// System label.
    pub system: String,
    /// Mean R-precision over all queries.
    pub r_precision: f64,
    /// Number of evaluated queries.
    pub num_queries: usize,
}

/// Evaluate syntactic-join discovery for a system on a benchmark.
pub fn evaluate_join(
    cmdl: &Cmdl,
    benchmark: &Benchmark,
    system: StructuredSystem,
) -> JoinEvaluation {
    assert_eq!(
        benchmark.kind,
        BenchmarkKind::SyntacticJoin,
        "wrong benchmark kind"
    );
    let aurum = Aurum::new(&cmdl.profiled, &cmdl.config);
    let d3l = D3l::new(&cmdl.profiled, &cmdl.config);
    let join = JoinDiscovery::new(&cmdl.profiled, &cmdl.indexes.columns, &cmdl.config);

    let mut total = 0.0;
    let mut n = 0usize;
    for query in &benchmark.queries {
        let QueryInput::Column { table, column } = &query.input else {
            continue;
        };
        let Some(id) = cmdl.profiled.lake.column_id_by_name(table, column) else {
            continue;
        };
        if query.expected.is_empty() {
            continue;
        }
        // k is set to the ground-truth size, as in the paper.
        let k = query.expected.len();
        let ranked_ids: Vec<(cmdl_datalake::DeId, f64)> = match system {
            StructuredSystem::Cmdl => join.joinable_columns(id, k),
            StructuredSystem::Aurum => aurum.joinable_columns(id, k),
            StructuredSystem::D3l => d3l.joinable_columns(id, k),
        };
        let ranked: Vec<String> = ranked_ids
            .into_iter()
            .filter_map(|(cid, _)| cmdl.profiled.profile(cid).map(|p| p.qualified_name.clone()))
            .collect();
        total += r_precision(&ranked, &query.expected);
        n += 1;
    }
    JoinEvaluation {
        system: system.label().to_string(),
        r_precision: if n == 0 { 0.0 } else { total / n as f64 },
        num_queries: n,
    }
}

/// Result of the PK-FK evaluation for one system (one row of Table 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PkFkEvaluation {
    /// System label.
    pub system: String,
    /// Precision of the discovered links.
    pub precision: f64,
    /// Recall against the known links.
    pub recall: f64,
    /// Number of links the system reported.
    pub reported: usize,
    /// Number of known (ground-truth) links.
    pub known: usize,
}

/// Evaluate PK-FK discovery for CMDL and Aurum (D3L does not compute PK-FK
/// links, as noted in the paper).
pub fn evaluate_pkfk(
    cmdl: &Cmdl,
    benchmark: &Benchmark,
    system: StructuredSystem,
) -> PkFkEvaluation {
    assert_eq!(benchmark.kind, BenchmarkKind::PkFk, "wrong benchmark kind");
    let expected: &BTreeSet<String> = &benchmark.queries[0].expected;
    let reported: Vec<String> = match system {
        StructuredSystem::Cmdl => cmdl
            .execute(&QueryBuilder::pkfk().top_k(usize::MAX).build())
            .map(|response| response.hits)
            .unwrap_or_default()
            .into_iter()
            .filter_map(|hit| hit.pkfk)
            .map(|l| format!("{}->{}", l.pk_name, l.fk_name))
            .collect(),
        StructuredSystem::Aurum => Aurum::new(&cmdl.profiled, &cmdl.config)
            .pkfk_links()
            .into_iter()
            .map(|l| format!("{}->{}", l.pk_name, l.fk_name))
            .collect(),
        StructuredSystem::D3l => Vec::new(),
    };
    let hits = reported.iter().filter(|r| expected.contains(*r)).count();
    PkFkEvaluation {
        system: system.label().to_string(),
        precision: if reported.is_empty() {
            0.0
        } else {
            hits as f64 / reported.len() as f64
        },
        recall: if expected.is_empty() {
            0.0
        } else {
            hits as f64 / expected.len() as f64
        },
        reported: reported.len(),
        known: expected.len(),
    }
}

/// Result of the unionability evaluation for one system: a P/R curve over k
/// (Figure 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnionEvaluation {
    /// System label.
    pub system: String,
    /// One point per evaluated `k`.
    pub curve: Vec<PrPoint>,
}

/// Evaluate unionable-table discovery. `measure` selects the similarity
/// measure for CMDL (`"ensemble"` for the full system, or one of `"name"`,
/// `"containment"`, `"numeric"`, `"semantic"` for the Table 5 analysis).
pub fn evaluate_union(
    cmdl: &Cmdl,
    benchmark: &Benchmark,
    system: StructuredSystem,
    ks: &[usize],
    measure: &str,
) -> UnionEvaluation {
    assert_eq!(
        benchmark.kind,
        BenchmarkKind::Unionable,
        "wrong benchmark kind"
    );
    let aurum = Aurum::new(&cmdl.profiled, &cmdl.config);
    let d3l = D3l::new(&cmdl.profiled, &cmdl.config);
    let union = UnionDiscovery::new(&cmdl.profiled, &cmdl.indexes.columns);
    let max_k = ks.iter().copied().max().unwrap_or(10);

    let per_query: Vec<(Vec<String>, BTreeSet<String>)> = benchmark
        .queries
        .iter()
        .filter_map(|query| {
            let QueryInput::Table(table) = &query.input else {
                return None;
            };
            if cmdl.profiled.lake.table(table).is_none() || query.expected.is_empty() {
                return None;
            }
            let ranked: Vec<String> = match system {
                StructuredSystem::Cmdl => union
                    .unionable_tables_with(table, max_k, measure)
                    .into_iter()
                    .map(|u| u.table)
                    .collect(),
                StructuredSystem::Aurum => aurum
                    .unionable_tables(table, max_k)
                    .into_iter()
                    .map(|(t, _)| t)
                    .collect(),
                StructuredSystem::D3l => d3l
                    .unionable_tables(table, max_k)
                    .into_iter()
                    .map(|(t, _)| t)
                    .collect(),
            };
            Some((ranked, query.expected.clone()))
        })
        .collect();

    UnionEvaluation {
        system: format!(
            "{}{}",
            system.label(),
            if measure == "ensemble" || system != StructuredSystem::Cmdl {
                String::new()
            } else {
                format!(" ({measure})")
            }
        ),
        curve: precision_recall_curve(&per_query, ks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_core::CmdlConfig;
    use cmdl_datalake::benchmarks::{
        pkfk_benchmark, syntactic_join_benchmark, unionable_benchmark,
    };
    use cmdl_datalake::{synth, BenchmarkId};

    fn pharma_system() -> (Cmdl, cmdl_datalake::synth::SyntheticLake) {
        let synth_lake = synth::pharma::generate(&synth::PharmaConfig::tiny());
        let cmdl = Cmdl::build(synth_lake.lake.clone(), CmdlConfig::fast());
        (cmdl, synth_lake)
    }

    #[test]
    fn join_evaluation_cmdl_not_worse_than_aurum() {
        let (cmdl, synth_lake) = pharma_system();
        let benchmark = syntactic_join_benchmark(BenchmarkId::B2B, &synth_lake);
        let c = evaluate_join(&cmdl, &benchmark, StructuredSystem::Cmdl);
        let a = evaluate_join(&cmdl, &benchmark, StructuredSystem::Aurum);
        assert!(c.num_queries > 0);
        assert!(
            c.r_precision >= a.r_precision - 1e-9,
            "CMDL {} should be >= Aurum {}",
            c.r_precision,
            a.r_precision
        );
        assert!(
            c.r_precision > 0.2,
            "CMDL join accuracy too low: {}",
            c.r_precision
        );
    }

    #[test]
    fn pkfk_evaluation_recall_ordering() {
        let (cmdl, synth_lake) = pharma_system();
        let benchmark = pkfk_benchmark(BenchmarkId::B2D, &synth_lake);
        let c = evaluate_pkfk(&cmdl, &benchmark, StructuredSystem::Cmdl);
        let a = evaluate_pkfk(&cmdl, &benchmark, StructuredSystem::Aurum);
        assert!(c.known > 0);
        assert!(
            c.recall >= a.recall,
            "CMDL recall {} vs Aurum {}",
            c.recall,
            a.recall
        );
        assert!(c.recall > 0.3);
        assert!((0.0..=1.0).contains(&c.precision));
    }

    #[test]
    fn union_evaluation_produces_curves() {
        let (cmdl, synth_lake) = pharma_system();
        let benchmark = unionable_benchmark(BenchmarkId::B3B, &synth_lake);
        let ks = [1, 3, 5];
        for system in [
            StructuredSystem::Cmdl,
            StructuredSystem::Aurum,
            StructuredSystem::D3l,
        ] {
            let eval = evaluate_union(&cmdl, &benchmark, system, &ks, "ensemble");
            assert_eq!(eval.curve.len(), ks.len());
            for p in &eval.curve {
                assert!((0.0..=1.0).contains(&p.precision));
                assert!((0.0..=1.0).contains(&p.recall));
            }
        }
    }

    #[test]
    fn union_individual_measures_run() {
        let (cmdl, synth_lake) = pharma_system();
        let benchmark = unionable_benchmark(BenchmarkId::B3B, &synth_lake);
        let name = evaluate_union(&cmdl, &benchmark, StructuredSystem::Cmdl, &[3], "name");
        assert!(name.system.contains("name"));
    }
}
