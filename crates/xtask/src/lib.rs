//! Workspace tooling for the STPT reproduction.
//!
//! Three subcommands:
//!
//! * `cargo xtask lint` — DP-soundness static analysis (below);
//! * `cargo xtask baseline` — regenerate `baselines/*.json` from the
//!   result envelopes in `results/` ([`baseline`]);
//! * `cargo xtask regress` — gate `results/` against the committed
//!   baselines ([`regress`]), failing on accuracy drift, broken ordering
//!   claims, changed noise-draw counts, or an inconsistent budget ledger.
//!
//! The lint pass enforces the DP-soundness invariants that rustc
//! and clippy cannot see:
//!
//! | rule | name           | invariant |
//! |------|----------------|-----------|
//! | XT01 | unseeded-rng   | all randomness flows from explicit seeds |
//! | XT02 | raw-noise      | noise sampling lives in `crates/dp` only |
//! | XT03 | float-eq       | no `==`/`!=` on float literals in library code |
//! | XT04 | panic-in-lib   | library code returns `Result`, never panics |
//! | XT05 | budget-bypass  | budget spend results are never discarded |
//! | XT06 | println-in-lib | library output flows through `stpt-obs`, not `println!` |
//! | XT07 | raw-thread     | all fan-out goes through the `rayon` seam, never `std::thread` |
//! | XT08 | schedule-dependent-randomness | parallel-seam closures only draw from pre-forked child RNGs |
//! | XT09 | budget-dominance | every call path from a release entry point to a `crates/dp` sampler passes a `spend_*` first |
//! | XT10 | hermeticity    | `env::var` reads happen only at the config choke points |
//!
//! XT01–XT07 are lexical (per-file token scans, [`rules`]); XT08–XT10 are
//! structural (item tree + workspace call graph, [`syntax`], [`callgraph`],
//! [`structural`]).
//!
//! Violations are suppressed per-site with `// xtask-allow(XTnn): reason`;
//! the reason is mandatory, and `cargo xtask lint --allows` fails on stale
//! directives that no longer suppress anything. See `DESIGN.md`
//! § "Privacy-invariant tooling" and § 13.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod jsonsel;
pub mod lexer;
pub mod regress;
pub mod report;
pub mod results;
pub mod rules;
pub mod scan;
pub mod structural;
pub mod syntax;

pub use rules::{check_file, AllowRecord, Diagnostic, SourceFile};
pub use scan::{lint_files, lint_workspace, render_human, render_json, LintReport};
