//! Fixture-driven tests for the structural rules XT08–XT10 (closure
//! capture analysis, call-graph budget dominance, env hermeticity), the
//! `--allows` inventory with stale detection, and the vendor/rayon
//! scanner carve-in.

use xtask::lexer::lex;
use xtask::rules::SourceFile;
use xtask::scan::{lint_files, lint_workspace, render_report_json, LintReport};

/// Lint an in-memory mini-workspace: each `(rel_path, source)` pair acts
/// as one file of the tree.
fn lint(sources: &[(&str, &str)]) -> LintReport {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, s)| SourceFile::new(*p, lex(s)))
        .collect();
    lint_files(&files)
}

fn rules_of(report: &LintReport) -> Vec<&str> {
    report.diags.iter().map(|d| d.rule).collect()
}

const LIB_PATH: &str = "crates/core/src/fixture.rs";
const DP_PATH: &str = "crates/dp/src/mechanism.rs";
const DP_SAMPLER: &str = include_str!("fixtures/xt09/dp_sampler.rs");

// ---- XT08: schedule-dependent randomness -------------------------------

#[test]
fn xt08_flags_captured_rng_and_worker_side_fork() {
    let report = lint(&[(LIB_PATH, include_str!("fixtures/xt08/pos_captured_rng.rs"))]);
    assert_eq!(
        rules_of(&report),
        vec!["XT08", "XT08"],
        "{:?}",
        report.diags
    );
    // The draw on the captured RNG, with the closure's own location.
    let draw = &report.diags[0];
    assert_eq!(draw.line, 6);
    assert!(draw.message.contains("`rng`"), "{}", draw.message);
    assert!(
        draw.message.contains(&format!("closure at {LIB_PATH}:5")),
        "closure location must be printed: {}",
        draw.message
    );
    // The worker-side fork.
    let refork = &report.diags[1];
    assert_eq!(refork.line, 14);
    assert!(refork.message.contains("`fork`"), "{}", refork.message);
}

#[test]
fn xt08_accepts_preforked_children_and_sequential_draws() {
    let report = lint(&[(LIB_PATH, include_str!("fixtures/xt08/neg_preforked.rs"))]);
    assert!(report.diags.is_empty(), "{:?}", report.diags);
}

// ---- XT09: budget dominance --------------------------------------------

#[test]
fn xt09_reports_the_call_chain_at_the_entry_definition() {
    let report = lint(&[
        (
            "crates/baselines/src/fixture.rs",
            include_str!("fixtures/xt09/pos_missing_spend.rs"),
        ),
        (DP_PATH, DP_SAMPLER),
    ]);
    assert_eq!(rules_of(&report), vec!["XT09"], "{:?}", report.diags);
    let d = &report.diags[0];
    assert_eq!(d.file, "crates/baselines/src/fixture.rs");
    assert_eq!(d.line, 4, "reported at the `fn sanitize` definition");
    assert!(
        d.message
            .contains("Leaky::sanitize -> noisy -> laplace_sample"),
        "call chain must be printed: {}",
        d.message
    );
    assert!(
        d.message.contains(&format!("{DP_PATH}:3")),
        "sampler location must be printed: {}",
        d.message
    );
}

#[test]
fn xt09_spend_before_fanout_dominates_the_draws() {
    let report = lint(&[
        (LIB_PATH, include_str!("fixtures/xt09/neg_dominated.rs")),
        (DP_PATH, DP_SAMPLER),
    ]);
    assert!(report.diags.is_empty(), "{:?}", report.diags);
}

#[test]
fn xt09_allow_above_the_entry_suppresses_and_is_counted() {
    // The allow goes directly above the entry-point definition, where the
    // chain diagnostic is anchored.
    let src = include_str!("fixtures/xt09/pos_missing_spend.rs").replace(
        "    pub fn sanitize",
        "    // xtask-allow(XT09): fixture baseline outside the accountant\n    pub fn sanitize",
    );
    let report = lint(&[
        ("crates/baselines/src/fixture.rs", src.as_str()),
        (DP_PATH, DP_SAMPLER),
    ]);
    assert!(report.diags.is_empty(), "{:?}", report.diags);
    let allow = &report.allows[0];
    assert_eq!((allow.rule.as_str(), allow.used), ("XT09", 1));
    assert!(!allow.is_stale());
}

// ---- XT10: hermeticity -------------------------------------------------

#[test]
fn xt10_flags_env_reads_outside_choke_points() {
    let src = include_str!("fixtures/xt10/pos_env_read.rs");
    let report = lint(&[(LIB_PATH, src)]);
    assert_eq!(
        rules_of(&report),
        vec!["XT10", "XT10"],
        "{:?}",
        report.diags
    );
    assert_eq!(report.diags[0].line, 4);
    assert_eq!(report.diags[1].line, 11);
}

#[test]
fn xt10_choke_points_and_tests_are_exempt() {
    let src = include_str!("fixtures/xt10/pos_env_read.rs");
    assert!(lint(&[("crates/obs/src/lib.rs", src)]).diags.is_empty());
    assert!(lint(&[("vendor/rayon/src/lib.rs", src)]).diags.is_empty());
    assert!(lint(&[("crates/obs/tests/trace.rs", src)]).diags.is_empty());
    assert!(lint(&[("tests/par_determinism.rs", src)]).diags.is_empty());
}

#[test]
fn xt10_covers_the_live_metrics_and_resource_env_vars() {
    // The obs variables are sanctioned only inside `stpt_obs::init_from_env`
    // (`crates/obs/src/lib.rs`); reads elsewhere — other obs files
    // included — are flagged with a message that names the reader and the
    // variables it owns.
    let src = include_str!("fixtures/xt10/pos_metrics_env.rs");
    let report = lint(&[(LIB_PATH, src)]);
    assert_eq!(
        rules_of(&report),
        vec!["XT10", "XT10", "XT10"],
        "{:?}",
        report.diags
    );
    for name in ["init_from_env", "STPT_METRICS_ADDR"] {
        assert!(
            report.diags[0].message.contains(name),
            "{}",
            report.diags[0].message
        );
    }
    assert!(lint(&[("crates/obs/src/lib.rs", src)]).diags.is_empty());
    assert_eq!(
        lint(&[("crates/obs/src/export.rs", src)]).diags.len(),
        3,
        "only lib.rs is the obs choke point"
    );
}

#[test]
fn xt10_ignores_plumbed_config_and_lookalikes() {
    let report = lint(&[(LIB_PATH, include_str!("fixtures/xt10/neg_plumbed.rs"))]);
    assert!(report.diags.is_empty(), "{:?}", report.diags);
}

// ---- allow inventory + stale detection ---------------------------------

#[test]
fn stale_allows_are_detected_and_used_ones_are_not() {
    let report = lint(&[(
        LIB_PATH,
        "// xtask-allow(XT04): this suppressed something once, long ago\n\
         fn clean() -> u32 { 1 }\n\
         // xtask-allow(XT04): index checked above\n\
         fn guarded(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )]);
    assert!(report.diags.is_empty(), "{:?}", report.diags);
    assert_eq!(report.allows.len(), 2);
    assert!(report.allows[0].is_stale(), "{:?}", report.allows[0]);
    assert!(!report.allows[1].is_stale(), "{:?}", report.allows[1]);
}

#[test]
fn reasonless_allows_are_reported_not_stale() {
    let report = lint(&[(LIB_PATH, "// xtask-allow(XT04):\nfn f() {}\n")]);
    assert_eq!(rules_of(&report), vec!["XTALLOW"]);
    assert!(
        !report.allows[0].is_stale(),
        "reason-less directives are XTALLOW findings, not stale allows"
    );
}

#[test]
fn report_json_carries_the_allow_inventory() {
    let report = lint(&[(
        LIB_PATH,
        "// xtask-allow(XT04): stale example\nfn clean() -> u32 { 1 }\n",
    )]);
    let json = render_report_json(&report);
    assert!(json.contains("\"allows\": ["), "{json}");
    assert!(json.contains("\"stale\": true"), "{json}");
    assert!(json.contains("\"stale_allows\": 1"), "{json}");
    assert!(json.contains("\"count\": 0"), "{json}");
}

// ---- scanner: vendor/rayon carve-in ------------------------------------

#[test]
fn scanner_lints_vendor_rayon_but_skips_other_vendor_dirs() {
    let root = std::env::temp_dir().join(format!("xtask-vendor-{}", std::process::id()));
    let mk = |rel: &str, src: &str| {
        let p = root.join(rel);
        std::fs::create_dir_all(p.parent().expect("fixture paths have parents")).expect("mkdir");
        std::fs::write(p, src).expect("write fixture");
    };
    let raw_thread = "fn f() { std::thread::spawn(|| {}); }\n";
    mk("vendor/rayon/src/lib.rs", raw_thread);
    mk("vendor/rand/src/lib.rs", raw_thread);
    mk("vendor/serde/src/lib.rs", "fn f() { thread_rng(); }\n");

    let diags = lint_workspace(&root).expect("scan succeeds");
    let hits: Vec<(&str, &str)> = diags.iter().map(|d| (d.rule, d.file.as_str())).collect();
    assert_eq!(hits, vec![("XT07", "vendor/rayon/src/lib.rs")], "{diags:?}");

    std::fs::remove_dir_all(&root).ok();
}
