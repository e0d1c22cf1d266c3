//! Common interface implemented by every baseline mechanism.

use stpt_data::ConsumptionMatrix;
use stpt_dp::DpRng;
use stpt_postprocess::Release;

/// A DP release mechanism over the consumption matrix.
///
/// Implementations receive the matrix built from **clipped** readings (each
/// user contributes at most `clip` per cell) and the total user-level
/// privacy budget, and must return an ε_total-DP sanitised matrix.
pub trait Mechanism {
    /// Display name used in experiment tables.
    fn name(&self) -> String;

    /// Produce the ε_total-DP release.
    fn sanitize(
        &self,
        c_cons_clipped: &ConsumptionMatrix,
        clip: f64,
        eps_total: f64,
        rng: &mut DpRng,
    ) -> ConsumptionMatrix;

    /// Produce the release wrapped in a [`Release`] value, tagged raw (pre
    /// post-processing). Callers that want the consistency stage pass its
    /// data to `stpt_core::postprocess`.
    ///
    /// Named `raw_release` (not `release`) so the structural call-graph
    /// lint does not conflate it with release entry points.
    fn raw_release(
        &self,
        c_cons_clipped: &ConsumptionMatrix,
        clip: f64,
        eps_total: f64,
        rng: &mut DpRng,
    ) -> Release {
        Release::raw(
            self.name(),
            self.sanitize(c_cons_clipped, clip, eps_total, rng),
        )
    }
}
