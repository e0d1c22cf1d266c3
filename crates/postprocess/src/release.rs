//! The common `Release` value every mechanism's output flows through.
//!
//! A [`Release`] bundles the sanitized data with its provenance: the
//! producing mechanism, whether the consistency stage ran, and — when it
//! did — its [`PostProcessRecord`]. Mechanisms produce
//! [`ReleaseStage::Raw`] releases; `stpt_core::postprocess` is the only
//! step that turns one into a post-processed release.

use crate::project::PostProcessRecord;
use stpt_data::ConsumptionMatrix;

/// Ledger stage label under which the consistency projection is proven
/// ε-free (`PostProcessProof.stage`).
pub const POSTPROCESS_STAGE: &str = "consistency";

/// Which stage of the pipeline produced the released data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseStage {
    /// Straight out of the sanitizer; no post-processing applied.
    Raw,
    /// Projected onto the consistency polytope after sanitization.
    PostProcessed,
}

impl ReleaseStage {
    /// Stable label used in result envelopes and telemetry. (The vendored
    /// serde shim has no enum-representation attributes, so envelopes
    /// carry this string rather than a derived variant encoding.)
    pub fn label(self) -> &'static str {
        match self {
            ReleaseStage::Raw => "raw",
            ReleaseStage::PostProcessed => "postprocessed",
        }
    }
}

/// A sanitized release with its provenance.
#[derive(Debug, Clone)]
pub struct Release {
    /// Name of the producing mechanism (e.g. `"STPT"`, `"Identity"`).
    pub mechanism: String,
    /// Raw vs. post-processed provenance of `data`.
    pub stage: ReleaseStage,
    /// The released consumption matrix.
    pub data: ConsumptionMatrix,
    /// Evidence of the consistency projection, present iff
    /// `stage == ReleaseStage::PostProcessed`.
    pub post: Option<PostProcessRecord>,
}

impl Release {
    /// A raw release, straight out of a mechanism.
    pub fn raw(mechanism: impl Into<String>, data: ConsumptionMatrix) -> Release {
        Release {
            mechanism: mechanism.into(),
            stage: ReleaseStage::Raw,
            data,
            post: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_release_has_no_trail() {
        let r = Release::raw("Identity", ConsumptionMatrix::zeros(1, 1, 2));
        assert_eq!(r.stage, ReleaseStage::Raw);
        assert_eq!(r.stage.label(), "raw");
        assert!(r.post.is_none());
    }

    #[test]
    fn stage_labels_are_stable() {
        assert_eq!(ReleaseStage::PostProcessed.label(), "postprocessed");
        assert_eq!(POSTPROCESS_STAGE, "consistency");
    }
}
