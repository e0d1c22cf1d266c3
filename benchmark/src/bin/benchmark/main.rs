//! `benchmark` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--quick]
//! benchmark all [--seed <n>] [--seconds <s>] [--quick]
//! benchmark repeat [--sets <k>] [--runs <r>] [--seed <n>] [--seconds <s>]
//!                  [--workload <name>]... [--trace 0|1] [--quick]
//! ```
//!
//! A run builds its inputs from `--seed`, measures one workload for
//! `--seconds`, checks the program's outputs, and prints two JSON lines:
//! the run's context (machine, threads, commit, request counts, checks),
//! then the result `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones of `BENCHMARK.json`;
//! with `--trace 1` they are its per-layer ones. A failed check exits 1.
//! `--quick` shrinks every release to smoke size and the serving warm-up
//! to 0.2 s. `all` and `repeat` run workloads as child processes; see
//! `README.md` next to this package's manifest.

mod context;
mod release;
mod repeat;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use serde::Value;
use serve::Mix;
use std::process::ExitCode;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["release", "serve-point", "serve-batch", "serve-mixed"];

/// `None` is the `release` workload; the others serve.
fn mix_of(workload: &str) -> Option<Option<Mix>> {
    match workload {
        "release" => Some(None),
        "serve-point" => Some(Some(Mix::Point)),
        "serve-batch" => Some(Some(Mix::Batch)),
        "serve-mixed" => Some(Some(Mix::Mixed)),
        _ => None,
    }
}

/// Command-line options shared by every mode.
#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub sets: usize,
    pub runs: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        sets: 2,
        runs: 3,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => o.workloads.push(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--sets" => o.sets = value()?.parse().map_err(|e| bad(&e))?,
            "--runs" => o.runs = value()?.parse().map_err(|e| bad(&e))?,
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(w) = o.workloads.iter().find(|w| mix_of(w).is_none()) {
        return Err(format!("unknown workload '{w}' (one of {WORKLOADS:?})"));
    }
    // Serving metrics are medians over whole one-second windows.
    if !(o.seconds >= 1.0 && o.seconds.is_finite()) {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(o)
}

fn run_one(o: &Options) -> ExitCode {
    let [workload] = o.workloads.as_slice() else {
        eprintln!("benchmark: name exactly one --workload");
        return ExitCode::from(2);
    };
    let mix = mix_of(workload).expect("validated by parse");
    context::pin_obs_gates();
    let mut report = Report::default();
    if o.trace {
        trace::measure(mix, o.seed, o.seconds, o.quick, &mut report);
    } else {
        match mix {
            None => release::measure(o.seed, o.seconds, o.quick, &mut report),
            Some(mix) => serve::measure(mix, o.seed, o.seconds, o.quick, &mut report),
        }
        report.metric("peak_rss_mb", context::peak_rss_mb(), "MiB");
    }
    report.print(context::describe(vec![
        ("workload", Value::String(workload.clone())),
        ("seed", Value::Number(o.seed as f64)),
        ("seconds", Value::Number(o.seconds)),
        ("trace", Value::Bool(o.trace)),
        ("quick", Value::Bool(o.quick)),
    ]));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("all" | "repeat")) => (m, &args[1..]),
        _ => ("run", &args[..]),
    };
    let options = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        "all" => repeat::all(&options),
        "repeat" => repeat::repeat(&options),
        _ => run_one(&options),
    }
}
