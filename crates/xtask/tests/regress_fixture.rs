//! End-to-end fixture for the regression gate: build a miniature workspace
//! root (results/ + baselines/), then drive `evaluate_workspace` exactly as
//! `cargo xtask regress` does and inspect the rendered report.

use std::path::PathBuf;

use xtask::baseline::build;
use xtask::regress::{evaluate_workspace, RegressOpts};
use xtask::report::{render_human, render_json, totals};
use xtask::results::load_run;

const ENVELOPE: &str = r#"{ "name": "fig7", "schema": 2, "created_unix": 1,
  "env": { "reps": 3, "queries": 300, "grid": 32, "hours": 220, "t_train": 100 },
  "data": { "mre": { "Identity": { "Random": 19.6, "Large": 28.2 },
                     "STPT":     { "Random": 6.3,  "Large": 6.2 },
                     "WPO":      { "Random": 79.5, "Large": 92.8 } } },
  "telemetry": { "counters": [ { "name": "dp.noise_draws.laplace", "value": 1234 } ],
                 "spans": [ { "path": "stpt", "count": 3, "total_ms": 900.0 },
                            { "path": "stpt/pattern", "count": 3, "total_ms": 300.0 } ],
                 "ledger": { "check": { "total": 1.0, "replayed": 1.0, "spent": 1.0,
                                        "entries": 4, "consistent": true } } } }"#;

fn make_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("xtask_regress_fixture_{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("results")).unwrap();
    std::fs::create_dir_all(root.join("baselines")).unwrap();
    std::fs::write(root.join("results/fig7.json"), ENVELOPE).unwrap();
    let run = load_run(&root.join("results"), "fig7").unwrap();
    let (doc, warnings) = build(&run).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
    std::fs::write(root.join("baselines/fig7.json"), doc.to_json()).unwrap();
    root
}

#[test]
fn a_fresh_run_passes_the_whole_gate() {
    let root = make_root("clean");
    let results = evaluate_workspace(&root, RegressOpts::default()).unwrap();
    let t = totals(&results);
    assert_eq!(t.failed, 0, "{}", render_human(&results));
    assert!(t.passed >= 8, "{}", render_human(&results));
    assert!(render_human(&results).contains("regress: OK"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_broken_result_fails_with_a_pointed_message() {
    let root = make_root("broken");
    // An accuracy regression: STPT's random-range MRE triples, which both
    // leaves its band and flips the "STPT beats Identity" ordering claim.
    let broken = ENVELOPE.replace("\"Random\": 6.3", "\"Random\": 21.3");
    std::fs::write(root.join("results/fig7.json"), broken).unwrap();

    let results = evaluate_workspace(&root, RegressOpts::default()).unwrap();
    let t = totals(&results);
    assert!(t.failed >= 2, "{}", render_human(&results));

    let human = render_human(&results);
    assert!(human.contains("regress: FAILED"), "{human}");
    // The report names the check and spells out observed vs expected.
    assert!(human.contains("FAIL band:data/mre/STPT/Random"), "{human}");
    assert!(human.contains("observed 21.3"), "{human}");
    assert!(
        human.contains("FAIL claim:fig7-stpt-beats-identity-Random"),
        "{human}"
    );

    // The JSON rendering carries the same verdicts for CI.
    let json = render_json(&results);
    let value: serde::Value = serde_json::from_str(&json).unwrap();
    let failed = xtask::jsonsel::select(&value, "failed")
        .and_then(xtask::jsonsel::scalar_of)
        .unwrap();
    assert!(failed >= 2.0, "{json}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn missing_baselines_directory_is_an_infrastructure_error() {
    let root = std::env::temp_dir().join("xtask_regress_fixture_nodir");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let err = evaluate_workspace(&root, RegressOpts::default()).unwrap_err();
    assert!(err.contains("cargo xtask baseline"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}
