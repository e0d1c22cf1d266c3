//! ε-free consistency post-processing for sanitized releases.
//!
//! A differentially private release may be transformed by any function that
//! does not touch the protected data without changing its privacy guarantee
//! (the post-processing theorem, Theorem 3 of the paper). This crate
//! implements the one post-processing step the paper's evaluation family
//! benefits from most: **projection onto the consistency polytope** — the
//! set of releases that are non-negative and whose hierarchical aggregates
//! agree (every internal node of the release hierarchy equals the sum of
//! its children). The true consumption matrix lies in that polytope, so
//! moving a noisy release toward it can only remove noise, never signal:
//! the projection provably does not increase the aggregate absolute error
//! of the release (see [`project_hierarchy`]).
//!
//! The crate is deliberately a *leaf*: it depends only on the data model,
//! draws no randomness, and spends no budget. `cargo xtask lint` enforces
//! that structurally (rule XT09 flags any path from this crate to a noise
//! sampler), and the `stpt-dp` accountant proves it per release at runtime
//! (a `PostProcessProof` ledger record that the auditor replays and fails
//! closed on).

#![forbid(unsafe_code)]

mod hierarchy;
mod project;
mod release;
mod smooth;

pub use hierarchy::Hierarchy;
pub use project::{project_hierarchy, project_matrix, PostProcessRecord};
pub use release::{Release, ReleaseStage, POSTPROCESS_STAGE};
pub use smooth::smooth_l2;
