//! Smoke test of the benchmark's output format: every workload, untraced
//! and traced, at smoke size (`--quick`) must pass all of its checks and
//! print, as its last line, exactly the metrics `BENCHMARK.json` declares
//! for that kind of run, each with its declared unit.

use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["release", "serve-point", "serve-batch", "serve-mixed"];

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {name} in {v:?}"))
}

/// Declared metric name → unit, for `end_to_end` or `per_layer`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    field(&doc, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = field(m, "name").as_str().expect("name").to_string();
            let unit = field(m, "unit").as_str().expect("unit").to_string();
            (name, unit)
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn assert_output(workload: &str, trace: bool, expected: &BTreeMap<String, String>) {
    let result = run(workload, trace);
    let keys: Vec<&str> = result
        .as_object()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}");
    assert!(field(&result, "attempted").as_f64().expect("count") >= 1.0);
    assert_eq!(field(&result, "failed").as_f64(), Some(0.0), "{workload}");
    let metrics: BTreeMap<String, (f64, String)> = field(&result, "metrics")
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = field(m, "value").as_f64().expect("numeric value");
            let unit = field(m, "unit").as_str().expect("unit").to_string();
            (name.clone(), (value, unit))
        })
        .collect();
    let emitted: Vec<&String> = metrics.keys().collect();
    let wanted: Vec<&String> = expected.keys().collect();
    assert_eq!(emitted, wanted, "{workload} (trace {trace}) metric names");
    for (name, (value, unit)) in &metrics {
        assert_eq!(unit, &expected[name], "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn every_workload_emits_its_end_to_end_metrics_and_passes_its_checks() {
    let expected = declared("end_to_end");
    for w in WORKLOADS {
        assert_output(w, false, &expected);
    }
}

#[test]
fn every_traced_run_emits_the_per_layer_metrics_and_passes_its_checks() {
    let expected = declared("per_layer");
    for w in WORKLOADS {
        assert_output(w, true, &expected);
    }
}

#[test]
fn bad_arguments_exit_with_a_usage_error_and_no_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "release", "--trace", "2"][..],
        &["--seed"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
