//! `cargo xtask regress` — evaluate `results/` against `baselines/`.
//!
//! For every committed `baselines/<name>.json` the gate loads the matching
//! result envelope and evaluates each check:
//!
//! * the result file is missing → every check skips (the run was not part
//!   of this invocation; CI smoke runs regenerate only a subset);
//! * the result file is a legacy pre-envelope document → one pointed
//!   failure, because the gate cannot see its provenance;
//! * the run's `env` differs from the baseline's → scale-bound checks skip,
//!   scale-free checks (table2 statistics, ledger consistency) still run;
//! * the run has no telemetry → telemetry checks skip, unless
//!   `--require-telemetry` turns that into a failure (CI sets it, because
//!   there a missing telemetry block means the pipeline lost it).
//!
//! Exit is non-zero iff at least one check fails. `--json` renders the
//! same evaluation machine-readably.

use std::path::Path;

use crate::baseline::{BaselineDoc, EvalCtx};
use crate::report::{CheckResult, Outcome};
use crate::results::load_run;

/// Options for one gate invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegressOpts {
    /// Fail (instead of skip) telemetry checks when the run has none.
    pub require_telemetry: bool,
}

/// Evaluate every committed baseline under `root` against `root/results`.
///
/// Returns the per-check results; the caller renders them and picks the
/// exit code. Errors only for infrastructure problems (no baselines
/// directory, unparseable baseline).
pub fn evaluate_workspace(root: &Path, opts: RegressOpts) -> Result<Vec<CheckResult>, String> {
    let baselines_dir = root.join("baselines");
    let results_dir = root.join("results");

    let mut names: Vec<String> = std::fs::read_dir(&baselines_dir)
        .map_err(|e| {
            format!(
                "no baselines at {} ({e}) — run `cargo xtask baseline` after \
                 `./run_experiments.sh` and commit the output",
                baselines_dir.display()
            )
        })?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".json").map(str::to_owned)
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "{} holds no *.json baselines — run `cargo xtask baseline`",
            baselines_dir.display()
        ));
    }

    let mut out = Vec::new();
    for name in names {
        let path = baselines_dir.join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("could not read {}: {e}", path.display()))?;
        let doc = BaselineDoc::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.extend(evaluate_baseline(&doc, &results_dir, opts));
    }
    Ok(out)
}

/// Evaluate one baseline document against a results directory.
pub fn evaluate_baseline(
    doc: &BaselineDoc,
    results_dir: &Path,
    opts: RegressOpts,
) -> Vec<CheckResult> {
    let run = match load_run(results_dir, &doc.name) {
        Ok(run) => run,
        Err(e) if e.contains("could not read") => {
            // Missing result: the run was not regenerated this invocation.
            return doc
                .checks
                .iter()
                .map(|c| CheckResult {
                    baseline: doc.name.clone(),
                    id: c.id.clone(),
                    note: c.note.clone(),
                    outcome: Outcome::Skip {
                        reason: format!("result file absent: {e}"),
                    },
                })
                .collect();
        }
        Err(e) => {
            // Legacy/malformed envelope: pointed failure, not a silent skip.
            return vec![CheckResult {
                baseline: doc.name.clone(),
                id: "envelope".to_owned(),
                note: "result document must be a schema-2 envelope".to_owned(),
                outcome: Outcome::Fail {
                    observed: e,
                    expected: "schema-2 envelope from `./run_experiments.sh`".to_owned(),
                    delta: "n/a".to_owned(),
                },
            }];
        }
    };

    let ctx = EvalCtx {
        env_matches: run.env == doc.env,
        require_telemetry: opts.require_telemetry,
    };
    let mut out: Vec<CheckResult> = doc
        .checks
        .iter()
        .map(|c| CheckResult {
            baseline: doc.name.clone(),
            id: c.id.clone(),
            note: c.note.clone(),
            outcome: c.evaluate(&run, ctx),
        })
        .collect();

    // Implicit telemetry-health rows — not committed in the baseline (old
    // baselines predate them), derived from the run document itself.
    //
    // Dropped span events mean the Chrome trace is incomplete: under
    // `--require-telemetry` that is a hard failure naming the fixed ring
    // capacity; otherwise it surfaces as a skip so local runs stay green
    // but visible.
    if let Some(dropped) = run.events_dropped() {
        let outcome = if dropped == 0 {
            Outcome::Pass
        } else {
            let cap = run
                .events_capacity()
                .map(|c| c.to_string())
                .unwrap_or_else(|| "unknown".to_owned());
            let msg = format!(
                "{dropped} span events dropped by the fixed-capacity event ring \
                 (capacity {cap}) — shorten the traced run"
            );
            if opts.require_telemetry {
                Outcome::Fail {
                    observed: msg,
                    expected: "0 dropped events".to_owned(),
                    delta: format!("+{dropped}"),
                }
            } else {
                Outcome::Skip { reason: msg }
            }
        };
        out.push(CheckResult {
            baseline: doc.name.clone(),
            id: "events-dropped".to_owned(),
            note: "span event ring kept every recorded event".to_owned(),
            outcome,
        });
    }

    // An `inconsistent` noise verdict should never reach a published
    // telemetry document (the audit fails closed first) — if one does, the
    // export path was bypassed and the gate must say so.
    if run.noise_status().as_deref() == Some("inconsistent") {
        out.push(CheckResult {
            baseline: doc.name.clone(),
            id: "noise-verdict".to_owned(),
            note: "published noise self-check verdict".to_owned(),
            outcome: Outcome::Fail {
                observed: "noise: inconsistent".to_owned(),
                expected: "noise: consistent or unchecked".to_owned(),
                delta: "empirical noise moments diverge from ledger scales".to_owned(),
            },
        });
    }

    // Make the scale skip legible once per baseline instead of per check.
    if !ctx.env_matches {
        out.insert(
            0,
            CheckResult {
                baseline: doc.name.clone(),
                id: "env".to_owned(),
                note: "experiment scale".to_owned(),
                outcome: Outcome::Skip {
                    reason: format!(
                        "run at [{}], baseline at [{}] — scale-bound checks skipped",
                        run.env.render(),
                        doc.env.render()
                    ),
                },
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::build;
    use crate::report::totals;

    const ENVELOPE: &str = r#"{ "name": "unit", "schema": 2, "created_unix": 1,
        "env": { "reps": 3, "queries": 300, "grid": 32, "hours": 220, "t_train": 100 },
        "data": { "mre": { "STPT": { "mean": 5.0, "std": 0.2, "min": 4.8, "max": 5.2, "n": 3 },
                           "WPO": 60.0 } },
        "telemetry": { "counters": [ { "name": "dp.noise_draws.laplace", "value": 42 } ],
                       "gauges": [ { "name": "process.peak_rss_bytes", "value": 67108864.0 },
                                   { "name": "pool.utilization", "value": 0.93 } ],
                       "spans": [ { "path": "stpt", "count": 1, "total_ms": 100.0 },
                                  { "path": "stpt/pattern", "count": 1, "total_ms": 40.0 },
                                  { "path": "stpt/sanitize", "count": 1, "total_ms": 50.0,
                                    "cpu_secs": 0.045, "cpu_efficiency": 0.9,
                                    "peak_rss_bytes": 67108864 } ],
                       "events": { "recorded": 4, "dropped": 0, "capacity": 65536 },
                       "ledger": { "check": { "consistent": true,
                                              "noise": "consistent" } } } }"#;

    fn fixture(dirname: &str, envelope: &str) -> (std::path::PathBuf, BaselineDoc) {
        let dir = std::env::temp_dir().join(dirname);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("unit.json"), envelope).unwrap();
        let run = load_run(&dir, "unit").unwrap();
        let (doc, _) = build(&run).unwrap();
        (dir, doc)
    }

    #[test]
    fn clean_results_pass_the_gate() {
        let (dir, doc) = fixture("xtask_regress_clean", ENVELOPE);
        let results = evaluate_baseline(&doc, &dir, RegressOpts::default());
        let t = totals(&results);
        assert_eq!(t.failed, 0, "{results:?}");
        assert!(t.passed >= 4, "{results:?}");
        assert!(
            results
                .iter()
                .any(|r| r.id == "noise" && r.outcome == Outcome::Pass),
            "{results:?}"
        );
        assert!(
            results
                .iter()
                .any(|r| r.id == "events-dropped" && r.outcome == Outcome::Pass),
            "{results:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_events_skip_locally_and_fail_under_require_telemetry() {
        let (dir, doc) = fixture("xtask_regress_dropped", ENVELOPE);
        let lossy = ENVELOPE.replace("\"dropped\": 0", "\"dropped\": 1234");
        std::fs::write(dir.join("unit.json"), lossy).unwrap();

        let lax = evaluate_baseline(&doc, &dir, RegressOpts::default());
        let row = lax
            .iter()
            .find(|r| r.id == "events-dropped")
            .unwrap_or_else(|| panic!("no events-dropped row: {lax:?}"));
        match &row.outcome {
            Outcome::Skip { reason } => {
                assert!(reason.contains("1234"), "{reason}");
                assert!(reason.contains("65536"), "{reason}");
                assert!(reason.contains("shorten the traced run"), "{reason}");
            }
            other => panic!("expected Skip, got {other:?}"),
        }

        let strict = evaluate_baseline(
            &doc,
            &dir,
            RegressOpts {
                require_telemetry: true,
            },
        );
        let row = strict
            .iter()
            .find(|r| r.id == "events-dropped")
            .unwrap_or_else(|| panic!("no events-dropped row: {strict:?}"));
        match &row.outcome {
            Outcome::Fail { observed, .. } => {
                assert!(observed.contains("capacity 65536"), "{observed}");
                assert!(observed.contains("shorten the traced run"), "{observed}");
            }
            other => panic!("expected Fail, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resourceless_runs_skip_resource_checks_with_a_named_reason() {
        let (dir, doc) = fixture("xtask_regress_resourceless", ENVELOPE);
        // The committed baseline carries both resource-gate kinds.
        assert!(
            doc.checks
                .iter()
                .any(|c| c.id == "pool-utilization:stpt/sanitize"),
            "{doc:?}"
        );
        assert!(doc.checks.iter().any(|c| c.id == "rss-ceiling"), "{doc:?}");

        // Re-run the experiment with resource sampling degraded: telemetry
        // present, but no gauges and no cpu fields on the sanitize span.
        let degraded = ENVELOPE
            .replace(
                r#""gauges": [ { "name": "process.peak_rss_bytes", "value": 67108864.0 },
                                   { "name": "pool.utilization", "value": 0.93 } ],"#,
                r#""gauges": [],"#,
            )
            .replace(
                r#""cpu_secs": 0.045, "cpu_efficiency": 0.9,
                                    "peak_rss_bytes": 67108864 } ],"#,
                r#""count_": 0 } ],"#,
            );
        assert!(!degraded.contains("cpu_efficiency"), "replace failed");
        std::fs::write(dir.join("unit.json"), degraded).unwrap();

        // Even under --require-telemetry the gate must skip (not fail): the
        // telemetry block exists, only the resource layer was unavailable.
        let strict = evaluate_baseline(
            &doc,
            &dir,
            RegressOpts {
                require_telemetry: true,
            },
        );
        let t = totals(&strict);
        assert_eq!(t.failed, 0, "{strict:?}");
        for id in ["pool-utilization:stpt/sanitize", "rss-ceiling"] {
            let row = strict
                .iter()
                .find(|r| r.id == id)
                .unwrap_or_else(|| panic!("no {id} row: {strict:?}"));
            match &row.outcome {
                Outcome::Skip { reason } => {
                    assert!(reason.contains("resource sampling unavailable"), "{reason}");
                    assert!(reason.contains("/proc absent"), "{reason}");
                }
                other => panic!("{id}: expected Skip, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_inconsistent_noise_verdict_fails_the_gate() {
        let (dir, doc) = fixture("xtask_regress_noise", ENVELOPE);
        let bad = ENVELOPE.replace("\"noise\": \"consistent\"", "\"noise\": \"inconsistent\"");
        std::fs::write(dir.join("unit.json"), bad).unwrap();

        let results = evaluate_baseline(&doc, &dir, RegressOpts::default());
        // Both the committed `noise` check and the implicit verdict row fire.
        assert!(
            results
                .iter()
                .any(|r| r.id == "noise" && matches!(r.outcome, Outcome::Fail { .. })),
            "{results:?}"
        );
        assert!(
            results
                .iter()
                .any(|r| r.id == "noise-verdict" && matches!(r.outcome, Outcome::Fail { .. })),
            "{results:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_perturbed_result_fails_with_a_named_check_and_delta() {
        let (dir, doc) = fixture("xtask_regress_perturbed", ENVELOPE);
        // Perturb one value far outside its band.
        let broken = ENVELOPE.replace("\"WPO\": 60.0", "\"WPO\": 600.0");
        std::fs::write(dir.join("unit.json"), broken).unwrap();

        let results = evaluate_baseline(&doc, &dir, RegressOpts::default());
        let fail: Vec<&CheckResult> = results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Fail { .. }))
            .collect();
        assert_eq!(fail.len(), 1, "{results:?}");
        assert_eq!(fail[0].id, "band:data/mre/WPO");
        match &fail[0].outcome {
            Outcome::Fail {
                observed,
                expected,
                delta,
            } => {
                assert_eq!(observed, "600");
                assert!(expected.contains("60 ±"), "{expected}");
                assert!(delta.starts_with("+540"), "{delta}");
            }
            other => panic!("expected Fail, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scale_mismatch_skips_scale_bound_checks_only() {
        let (dir, doc) = fixture("xtask_regress_scale", ENVELOPE);
        let smoke = ENVELOPE
            .replace("\"reps\": 3", "\"reps\": 1")
            .replace("\"grid\": 32", "\"grid\": 8");
        std::fs::write(dir.join("unit.json"), smoke).unwrap();

        let results = evaluate_baseline(&doc, &dir, RegressOpts::default());
        let t = totals(&results);
        assert_eq!(t.failed, 0, "{results:?}");
        // Scale-free ledger check still runs; bands and counters skip.
        assert!(
            results
                .iter()
                .any(|r| r.id == "ledger" && r.outcome == Outcome::Pass),
            "{results:?}"
        );
        assert!(
            results
                .iter()
                .any(|r| r.id.starts_with("band:") && matches!(r.outcome, Outcome::Skip { .. })),
            "{results:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_results_fail_with_a_pointed_message() {
        let (dir, doc) = fixture("xtask_regress_legacy", ENVELOPE);
        std::fs::write(dir.join("unit.json"), "[ 1, 2, 3 ]").unwrap();
        let results = evaluate_baseline(&doc, &dir, RegressOpts::default());
        assert_eq!(results.len(), 1);
        match &results[0].outcome {
            Outcome::Fail { observed, .. } => {
                assert!(observed.contains("legacy"), "{observed}");
                assert!(observed.contains("run_experiments.sh"), "{observed}");
            }
            other => panic!("expected Fail, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_results_skip_and_missing_telemetry_escalates_on_request() {
        let (dir, doc) = fixture("xtask_regress_missing", ENVELOPE);
        std::fs::remove_file(dir.join("unit.json")).unwrap();
        let results = evaluate_baseline(&doc, &dir, RegressOpts::default());
        assert!(
            results
                .iter()
                .all(|r| matches!(r.outcome, Outcome::Skip { .. })),
            "{results:?}"
        );

        let bare = ENVELOPE.replacen("\"telemetry\": {", "\"telemetry_\": {", 1);
        std::fs::write(dir.join("unit.json"), bare).unwrap();
        let lax = evaluate_baseline(&doc, &dir, RegressOpts::default());
        assert!(
            lax.iter()
                .filter(|r| r.id == "ledger" || r.id.starts_with("counter:"))
                .all(|r| matches!(r.outcome, Outcome::Skip { .. })),
            "{lax:?}"
        );
        let strict = evaluate_baseline(
            &doc,
            &dir,
            RegressOpts {
                require_telemetry: true,
            },
        );
        assert!(
            strict
                .iter()
                .filter(|r| r.id == "ledger")
                .all(|r| matches!(r.outcome, Outcome::Fail { .. })),
            "{strict:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
