//! `--smoke`: the whole benchmark on a tiny lake, in seconds — a check of
//! the benchmark itself, not a measurement.

use std::path::Path;

use crate::report::RunReport;
use crate::run::{run, RunOptions};
use crate::setup::Scale;
use crate::verify::TruthSample;
use crate::workload::Workload;

/// Run all four workloads, untraced and traced, at smoke scale with
/// one-second phases. Fails when a request fails, an answer mismatches the
/// in-process execution, or a named metric is missing or not finite.
pub fn smoke(out_dir: &Path) -> Result<Vec<RunReport>, String> {
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(&RunOptions {
                workload,
                seed: 1,
                seconds: 2.0,
                trace,
                scale: Scale::SMOKE,
                truth: TruthSample::SMOKE,
                out_dir: out_dir.to_path_buf(),
            })?;
            if report.failed != 0 {
                return Err(format!(
                    "{}: fail_ratio {} ({} of {} requests)\n{}",
                    workload.name(),
                    report.fail_ratio(),
                    report.failed,
                    report.attempted,
                    report.render()
                ));
            }
            reports.push(report);
        }
    }
    Ok(reports)
}
