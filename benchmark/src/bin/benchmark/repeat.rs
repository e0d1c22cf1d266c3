//! `all` and `repeat`: workloads run as child processes, one process
//! per run, so each run's `peak_rss_mb` is its own.

use crate::context::is_obs_switch;
use crate::report::{field, finite_or_null, to_json};
use crate::stats::{median, quartiles};
use crate::{Options, WORKLOADS};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Run one workload in a child process whose environment carries none of
/// the program's observability switches. Returns the result line.
fn child(workload: &str, seed: u64, o: &Options) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if o.quick {
        cmd.arg("--quick");
    }
    for (key, _) in std::env::vars_os() {
        if key.to_str().is_some_and(is_obs_switch) {
            cmd.env_remove(key);
        }
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload} seed {seed}: unreadable result ({e}): {last}"))?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: {} — {last}", out.status));
    }
    Ok(result)
}

fn workloads(o: &Options) -> Vec<String> {
    if o.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else {
        o.workloads.clone()
    }
}

/// Run every workload once and print each result line.
pub fn all(o: &Options) -> ExitCode {
    let mut ok = true;
    for w in workloads(o) {
        match child(&w, o.seed, o) {
            Ok(result) => println!("{w}: {}", to_json(&result)),
            Err(e) => {
                eprintln!("benchmark: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    bound: Option<f64>,
}

/// The metrics `BENCHMARK.json` (in the working directory) declares for
/// this kind of run.
fn declared(trace: bool) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = field(&doc, key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some(Declared {
                name: field(m, "name")?.as_str()?.to_string(),
                bound: field(m, "bound").and_then(Value::as_f64),
            })
        })
        .collect())
}

/// Run `--sets` sets of `--runs` runs of each workload (every run with
/// its own seed, workloads interleaved), then print, per workload and
/// metric, each set's median and quartile spread and whether the sets
/// agree within the metric's bound.
pub fn repeat(o: &Options) -> ExitCode {
    let metrics = match declared(o.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = workloads(o);
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(String, String), Vec<Vec<f64>>> = BTreeMap::new();
    for set in 0..o.sets {
        for run in 0..o.runs {
            let seed = o.seed + (set * o.runs + run) as u64;
            for w in &workloads {
                let result = match child(w, seed, o) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                for m in &metrics {
                    let v = field(&result, "metrics")
                        .and_then(|ms| field(ms, &m.name))
                        .and_then(|x| field(x, "value"))
                        .and_then(Value::as_f64)
                        .unwrap_or(f64::NAN);
                    let sets = values
                        .entry((w.clone(), m.name.clone()))
                        .or_insert_with(|| vec![Vec::new(); o.sets]);
                    sets[set].push(v);
                }
                eprintln!("benchmark: set {set} run {run} {w} done");
            }
        }
    }

    let mut rows = Vec::new();
    let mut all_agree = true;
    println!(
        "{:<12} {:<32} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "median 1", "spread", "median 2", "spread", "change", "agree"
    );
    for w in &workloads {
        for m in &metrics {
            let sets = &values[&(w.clone(), m.name.clone())];
            let summary: Vec<(f64, f64)> = sets
                .iter()
                .map(|v| {
                    let (q1, q3) = quartiles(v);
                    let med = median(v);
                    (med, (q3 - q1) / med)
                })
                .collect();
            let (first, last) = (summary[0], summary[summary.len() - 1]);
            let change = (last.0 - first.0) / first.0;
            let agree = m.bound.map(|b| change.abs() <= b);
            all_agree &= agree != Some(false);
            println!(
                "{:<12} {:<32} {:>14.6} {:>8.4} {:>14.6} {:>8.4} {:>+8.4} {:>6}",
                w,
                m.name,
                first.0,
                first.1,
                last.0,
                last.1,
                change,
                agree.map_or("-", |a| if a { "yes" } else { "NO" }),
            );
            rows.push(Value::Object(vec![
                ("workload".into(), Value::String(w.clone())),
                ("metric".into(), Value::String(m.name.clone())),
                (
                    "sets".into(),
                    Value::Array(
                        summary
                            .iter()
                            .zip(sets)
                            .map(|(&(med, spread), v)| {
                                Value::Object(vec![
                                    ("median".into(), finite_or_null(med)),
                                    ("iqr_over_median".into(), finite_or_null(spread)),
                                    (
                                        "values".into(),
                                        Value::Array(
                                            v.iter().map(|&x| finite_or_null(x)).collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("bound".into(), m.bound.map_or(Value::Null, Value::Number)),
                ("agree".into(), agree.map_or(Value::Null, Value::Bool)),
            ]));
        }
    }
    println!(
        "{}",
        to_json(&Value::Object(vec![
            ("agree".into(), Value::Bool(all_agree)),
            ("rows".into(), Value::Array(rows)),
        ]))
    );
    if all_agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
