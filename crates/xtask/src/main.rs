//! `cargo xtask` — workspace tooling entry point.
//!
//! Exit codes: 0 = clean, 1 = violations/regressions found, 2 = usage or
//! I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::baseline;
use xtask::regress::{evaluate_workspace, RegressOpts};
use xtask::report;
use xtask::results::load_run;
use xtask::scan::{
    lint_workspace_report, render_allows_human, render_human, render_json, render_report_json,
};

const USAGE: &str = "\
usage: cargo xtask <lint|baseline|regress> [options] [ROOT]

  lint [--json] [--allows]
      Run the DP-soundness static-analysis pass — lexical rules XT01..XT07
      plus the structural rules XT08..XT10 (call-graph budget dominance,
      parallel-RNG determinism, env hermeticity) — over every .rs file in
      the workspace (vendor/ except the first-party rayon shim, and test
      fixtures, excluded). --allows additionally lists every xtask-allow
      directive with its suppression count and fails on stale directives
      that no longer suppress any finding.

  baseline
      Regenerate baselines/*.json from the result envelopes in results/.
      Run after `./run_experiments.sh`; commit the output. Ordering claims
      that do not hold in the measured data are dropped with a warning.

  regress [--json] [--require-telemetry]
      Check the envelopes in results/ against the committed
      baselines. Scale-bound checks are skipped when a run's env differs
      from its baseline's; --require-telemetry turns missing-telemetry
      skips into failures. Non-zero exit iff a check fails.

  --json   emit machine-readable output on stdout
  ROOT     workspace root (defaults to this workspace)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("lint") => {
            let mut json = false;
            let mut allows = false;
            let mut root: Option<PathBuf> = None;
            for arg in it {
                match arg {
                    "--json" => json = true,
                    "--allows" => allows = true,
                    "--help" | "-h" => {
                        print!("{USAGE}");
                        return ExitCode::SUCCESS;
                    }
                    other if !other.starts_with('-') && root.is_none() => {
                        root = Some(PathBuf::from(other));
                    }
                    other => {
                        eprintln!("xtask: unknown argument `{other}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            let root = root.unwrap_or_else(default_workspace_root);
            match lint_workspace_report(&root) {
                Ok(report) => {
                    if json {
                        if allows {
                            print!("{}", render_report_json(&report));
                        } else {
                            print!("{}", render_json(&report.diags));
                        }
                    } else {
                        print!("{}", render_human(&report.diags));
                        if allows {
                            print!("{}", render_allows_human(&report.allows));
                        }
                    }
                    let stale = allows && report.allows.iter().any(|a| a.is_stale());
                    if report.diags.is_empty() && !stale {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("xtask: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("baseline") => {
            let mut root: Option<PathBuf> = None;
            for arg in it {
                match arg {
                    "--help" | "-h" => {
                        print!("{USAGE}");
                        return ExitCode::SUCCESS;
                    }
                    other if !other.starts_with('-') && root.is_none() => {
                        root = Some(PathBuf::from(other));
                    }
                    other => {
                        eprintln!("xtask: unknown argument `{other}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            let root = root.unwrap_or_else(default_workspace_root);
            run_baseline(&root)
        }
        Some("regress") => {
            let mut json = false;
            let mut opts = RegressOpts::default();
            let mut root: Option<PathBuf> = None;
            for arg in it {
                match arg {
                    "--json" => json = true,
                    "--require-telemetry" => opts.require_telemetry = true,
                    "--help" | "-h" => {
                        print!("{USAGE}");
                        return ExitCode::SUCCESS;
                    }
                    other if !other.starts_with('-') && root.is_none() => {
                        root = Some(PathBuf::from(other));
                    }
                    other => {
                        eprintln!("xtask: unknown argument `{other}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            let root = root.unwrap_or_else(default_workspace_root);
            match evaluate_workspace(&root, opts) {
                Ok(results) => {
                    if json {
                        print!("{}", report::render_json(&results));
                    } else {
                        print!("{}", report::render_human(&results));
                    }
                    if report::totals(&results).failed == 0 {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("xtask: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Regenerate every baseline a result envelope exists for.
fn run_baseline(root: &std::path::Path) -> ExitCode {
    let results_dir = root.join("results");
    let baselines_dir = root.join("baselines");
    if let Err(e) = std::fs::create_dir_all(&baselines_dir) {
        eprintln!("xtask: could not create {}: {e}", baselines_dir.display());
        return ExitCode::from(2);
    }

    let mut errors = 0usize;
    let mut written = 0usize;
    for name in baseline::EXPERIMENTS {
        if !results_dir.join(format!("{name}.json")).exists() {
            println!("baseline: {name}: no result file, skipped");
            continue;
        }
        let run = match load_run(&results_dir, name) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("baseline: {e}");
                errors += 1;
                continue;
            }
        };
        match baseline::build(&run) {
            Ok((doc, warnings)) => {
                for w in &warnings {
                    eprintln!("baseline: warning: {w}");
                }
                let path = baselines_dir.join(format!("{name}.json"));
                match std::fs::write(&path, doc.to_json()) {
                    Ok(()) => {
                        println!(
                            "baseline: wrote {} ({} checks, {} claims dropped)",
                            path.display(),
                            doc.checks.len(),
                            warnings.len()
                        );
                        written += 1;
                    }
                    Err(e) => {
                        eprintln!("baseline: could not write {}: {e}", path.display());
                        errors += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("baseline: {name}: {e}");
                errors += 1;
            }
        }
    }
    println!("baseline: {written} written, {errors} errors");
    if errors > 0 {
        ExitCode::from(2)
    } else if written == 0 {
        eprintln!(
            "baseline: no result envelopes found under {}",
            results_dir.display()
        );
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// The workspace root is two levels above this crate's manifest
/// (`crates/xtask` → workspace), resolved at compile time so the binary
/// works from any cwd.
fn default_workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}
