//! Command line of the CMDL benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cmdl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last line is the JSON result
//! cmdl-benchmark [--seed <n>] [--seconds <s>] [--repeat <k>]                every workload, untraced then traced
//! cmdl-benchmark --smoke                                                    all four workloads on a tiny lake
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use cmdl_benchmark::report::{end_to_end, parse_result_line, Better};
use cmdl_benchmark::run::{run, RunOptions};
use cmdl_benchmark::setup::Scale;
use cmdl_benchmark::smoke::smoke;
use cmdl_benchmark::verify::TruthSample;
use cmdl_benchmark::workload::Workload;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
        out_dir: PathBuf::from("target/benchmark"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag}: {value} is not {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: {value} is not a whole number"))?
            }
            "--seconds" => {
                args.seconds = number("a number of seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
            }
            "--trace" => args.trace = number("0 or 1")? != 0.0,
            "--repeat" => {
                args.repeat = value
                    .parse()
                    .map_err(|_| format!("--repeat: {value} is not a count"))?
            }
            "--out" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The end-to-end metrics of one child run, parsed from its result line.
struct ChildResult {
    values: Vec<(String, f64)>,
    correct: bool,
    void: bool,
}

/// Run one workload in a child process (a fresh address space, so
/// `rss_peak_mb` is this run's alone), echo its report, parse its result.
fn run_child(args: &Args, workload: Workload, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} run: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(format!(
            "the {} run exited with {}",
            workload.name(),
            output.status
        ));
    }
    let (correct, values) = parse_result_line(result)
        .ok_or_else(|| format!("the {} run printed no result line", workload.name()))?;
    Ok(ChildResult {
        values,
        correct,
        void: report.contains("\n  VOID: "),
    })
}

/// Every workload, untraced then traced, `repeat` times; then, per
/// end-to-end metric and workload, the values of each set, the gap between
/// the first two and the bound.
fn run_suite(args: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<(Workload, ChildResult)>> = Vec::new();
    let mut ok = true;
    for set in 0..args.repeat {
        println!("#### set {} of {} ####", set + 1, args.repeat);
        let mut results = Vec::new();
        for workload in Workload::ALL {
            let untraced = run_child(args, workload, false)?;
            let traced = run_child(args, workload, true)?;
            ok &= untraced.correct && traced.correct && !untraced.void;
            results.push((workload, untraced));
        }
        sets.push(results);
    }
    if sets.len() < 2 {
        return Ok(ok);
    }
    println!(
        "#### agreement between sets (gap = how much worse the second set is than the first) ####"
    );
    println!(
        "{:<24} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "gap", "bound"
    );
    for spec in end_to_end() {
        let bound = spec.bound.expect("end-to-end metrics have bounds");
        for (index, (workload, first)) in sets[0].iter().enumerate() {
            let value = |result: &ChildResult| {
                result
                    .values
                    .iter()
                    .find(|(n, _)| *n == spec.name)
                    .map(|(_, v)| *v)
            };
            let (Some(a), Some(b)) = (value(first), value(&sets[1][index].1)) else {
                return Err(format!(
                    "{} missing from a {} result",
                    spec.name,
                    workload.name()
                ));
            };
            let gap = match spec.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let verdict = if gap.abs() > bound { "  EXCEEDS" } else { "" };
            ok &= gap.abs() <= bound;
            println!(
                "{:<24} {:<14} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                workload.name(),
                spec.name,
                gap * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cmdl-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return match smoke(&args.out_dir) {
            Ok(reports) => {
                reports.iter().for_each(|r| print!("{}", r.render()));
                println!("smoke: all four workloads ran, every metric present, nothing failed");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("cmdl-benchmark: smoke failed: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload else {
        return match run_suite(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("cmdl-benchmark: a run was incorrect or void, or two sets disagree beyond a bound");
                ExitCode::FAILURE
            }
            Err(message) => {
                eprintln!("cmdl-benchmark: {message}");
                ExitCode::FAILURE
            }
        };
    };
    let options = RunOptions {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::FULL,
        truth: TruthSample::FULL,
        out_dir: args.out_dir,
    };
    match run(&options) {
        Ok(report) => {
            print!("{}", report.render());
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("cmdl-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
