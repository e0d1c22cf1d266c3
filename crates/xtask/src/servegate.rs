//! Regression rows for the committed serve benchmark (`BENCH_serve.json`).
//!
//! The serving daemon's two promises are load-bearing enough to gate
//! every `cargo xtask regress` run:
//!
//! * **zero-spend**: answering queries is post-processing — the committed
//!   bench must carry a verified ε-freeness proof with *bitwise* `0.0`
//!   spent while serving;
//! * **throughput**: the batch engine must clear the committed
//!   `target_qps` floor on at least one thread count (the bench records
//!   `best_qps` over its thread sweep).
//!
//! Unlike the experiment baselines (which skip when a result was not
//! regenerated), `BENCH_serve.json` is a committed artifact: a missing or
//! unparseable file is a hard failure — deleting the proof must not turn
//! the gate green.

use std::path::Path;

use serde::Value;

use crate::jsonsel::select;
use crate::report::{CheckResult, Outcome};

/// The committed bench artifact, relative to the workspace root.
pub const BENCH_FILE: &str = "BENCH_serve.json";

/// Evaluate the serve-bench gate rows for the workspace at `root`.
pub fn evaluate_serve_bench(root: &Path) -> Vec<CheckResult> {
    let path = root.join(BENCH_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            return vec![row(
                "present",
                "committed serve bench exists",
                Outcome::Fail {
                    observed: format!("could not read {}: {e}", path.display()),
                    expected: format!("{BENCH_FILE} committed at the workspace root"),
                    delta: "run `cargo run --release -p stpt-bench --bin serve_bench`".to_owned(),
                },
            )];
        }
    };
    let doc: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            return vec![row(
                "present",
                "committed serve bench parses",
                Outcome::Fail {
                    observed: format!("{BENCH_FILE}: {e}"),
                    expected: "valid JSON".to_owned(),
                    delta: "n/a".to_owned(),
                },
            )];
        }
    };
    vec![
        row("present", "committed serve bench exists", Outcome::Pass),
        zero_spend_check(&doc),
        throughput_check(&doc),
    ]
}

fn row(id: &str, note: &str, outcome: Outcome) -> CheckResult {
    CheckResult {
        baseline: "serve_bench".to_owned(),
        id: id.to_owned(),
        note: note.to_owned(),
        outcome,
    }
}

/// The ε-freeness proof: `verified` must be `true` and
/// `epsilon_spent_serving` must be bitwise `+0.0` — not merely small.
fn zero_spend_check(doc: &Value) -> CheckResult {
    let note = "serving spent zero ε (verified ledger proof)";
    let verified = match select(doc, "zero_spend/verified") {
        Ok(Value::Bool(b)) => *b,
        Ok(other) => {
            return row(
                "zero-spend",
                note,
                fail_shape("zero_spend/verified", "a boolean", other),
            )
        }
        Err(e) => return row("zero-spend", note, fail_missing(e)),
    };
    let spent = match select(doc, "zero_spend/epsilon_spent_serving").map(Value::as_f64) {
        Ok(Some(v)) => v,
        Ok(None) => {
            return row(
                "zero-spend",
                note,
                Outcome::Fail {
                    observed: "zero_spend/epsilon_spent_serving is not a number".to_owned(),
                    expected: "0".to_owned(),
                    delta: "n/a".to_owned(),
                },
            )
        }
        Err(e) => return row("zero-spend", note, fail_missing(e)),
    };
    if verified && spent.to_bits() == 0 {
        row("zero-spend", note, Outcome::Pass)
    } else {
        row(
            "zero-spend",
            note,
            Outcome::Fail {
                observed: format!("verified={verified}, epsilon_spent_serving={spent}"),
                expected: "verified=true, epsilon_spent_serving bitwise 0.0".to_owned(),
                delta: format!("{spent:+e}"),
            },
        )
    }
}

/// The committed best throughput must clear the committed target floor.
fn throughput_check(doc: &Value) -> CheckResult {
    let note = "batch engine clears the committed queries/sec floor";
    let target = match select(doc, "target_qps").map(Value::as_f64) {
        Ok(Some(v)) => v,
        Ok(None) | Err(_) => {
            return row(
                "throughput",
                note,
                fail_missing("`target_qps` missing or not a number".to_owned()),
            )
        }
    };
    let best = match select(doc, "best_qps").map(Value::as_f64) {
        Ok(Some(v)) => v,
        Ok(None) | Err(_) => {
            return row(
                "throughput",
                note,
                fail_missing("`best_qps` missing or not a number".to_owned()),
            )
        }
    };
    if best >= target {
        row("throughput", note, Outcome::Pass)
    } else {
        row(
            "throughput",
            note,
            Outcome::Fail {
                observed: format!("{best:.0} queries/sec"),
                expected: format!("≥ {target:.0} queries/sec"),
                delta: format!("{:.0}", best - target),
            },
        )
    }
}

fn fail_missing(e: String) -> Outcome {
    Outcome::Fail {
        observed: e,
        expected: "field present in BENCH_serve.json".to_owned(),
        delta: "n/a".to_owned(),
    }
}

fn fail_shape(sel: &str, want: &str, got: &Value) -> Outcome {
    Outcome::Fail {
        observed: format!("{sel} is {got:?}"),
        expected: format!("{sel} is {want}"),
        delta: "n/a".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::totals;

    const GOOD: &str = r#"{
        "benchmark": "serve_bench",
        "target_qps": 1000000.0,
        "best_qps": 5000000.0,
        "zero_spend": { "verified": true, "epsilon_spent_serving": 0.0,
                        "epsilon_spent_total": 30.0, "ledger_entries": 12 },
        "results": [ { "threads": 1, "qps": 4000000.0 } ]
    }"#;

    fn eval(text: &str) -> Vec<CheckResult> {
        let dir = std::env::temp_dir().join(format!(
            "xtask_servegate_{}_{}",
            std::process::id(),
            text.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(BENCH_FILE), text).unwrap();
        let out = evaluate_serve_bench(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn clean_bench_passes_all_rows() {
        let rows = eval(GOOD);
        assert_eq!(rows.len(), 3, "{rows:?}");
        assert_eq!(totals(&rows).failed, 0, "{rows:?}");
    }

    #[test]
    fn missing_file_is_a_hard_failure() {
        let dir = std::env::temp_dir().join("xtask_servegate_missing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rows = evaluate_serve_bench(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(rows.len(), 1);
        assert!(matches!(rows[0].outcome, Outcome::Fail { .. }), "{rows:?}");
    }

    #[test]
    fn nonzero_spend_or_unverified_proof_fails() {
        let spent = GOOD.replace(
            "\"epsilon_spent_serving\": 0.0",
            "\"epsilon_spent_serving\": 1e-12",
        );
        let rows = eval(&spent);
        let zs = rows.iter().find(|r| r.id == "zero-spend").unwrap();
        assert!(matches!(zs.outcome, Outcome::Fail { .. }), "{rows:?}");

        let unverified = GOOD.replace("\"verified\": true", "\"verified\": false");
        let rows = eval(&unverified);
        let zs = rows.iter().find(|r| r.id == "zero-spend").unwrap();
        assert!(matches!(zs.outcome, Outcome::Fail { .. }), "{rows:?}");
    }

    #[test]
    fn throughput_below_target_fails_with_delta() {
        let slow = GOOD.replace("\"best_qps\": 5000000.0", "\"best_qps\": 400000.0");
        let rows = eval(&slow);
        let tp = rows.iter().find(|r| r.id == "throughput").unwrap();
        match &tp.outcome {
            Outcome::Fail {
                observed, expected, ..
            } => {
                assert!(observed.contains("400000"), "{observed}");
                assert!(expected.contains("1000000"), "{expected}");
            }
            other => panic!("expected Fail, got {other:?}"),
        }
    }
}
