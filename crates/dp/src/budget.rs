//! Privacy-budget accounting with enforced composition laws and an audit
//! ledger.
//!
//! * **Sequential composition** (Theorem 1): mechanisms applied to the *same*
//!   data add their budgets.
//! * **Parallel composition** (Theorem 2): mechanisms applied to *disjoint*
//!   partitions of the data cost only the maximum of their budgets.
//!
//! The consumption matrix composes *sequentially in time* and *in parallel
//! across space* (Theorem 5): each time slice has its own sub-budget, and
//! within a slice all disjoint spatial cells share one spend.
//!
//! Beyond enforcement, the accountant keeps an **audit ledger**: every
//! accepted spend appends one [`LedgerEntry`] (phase, sibling, mechanism,
//! ε, sensitivity, composition kind). [`BudgetAccountant::audit`] replays
//! the ledger through the composition rules from scratch and verifies that
//! the replay reproduces the live accountant *bit-exactly* and telescopes
//! to the configured total ε — turning Theorems 1–3 from a code-review
//! claim into a runtime-checked invariant. Phase maps are `BTreeMap`s so
//! summation order is deterministic and the bit-exact comparison is
//! meaningful.

use crate::error::DpError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use stpt_obs::{Composition, LedgerCheck, LedgerEntry, PostProcessProof};

/// A strictly positive privacy budget ε.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Create a budget. Panics on non-positive or non-finite values, which
    /// indicate programming errors in budget arithmetic.
    pub fn new(eps: f64) -> Self {
        assert!(
            eps.is_finite() && eps > 0.0,
            "epsilon must be finite and positive, got {eps}"
        );
        Epsilon(eps)
    }

    /// Fallible constructor for user-supplied configuration.
    pub fn try_new(eps: f64) -> Result<Self, DpError> {
        if eps.is_finite() && eps > 0.0 {
            Ok(Epsilon(eps))
        } else {
            Err(DpError::InvalidParameter(format!(
                "epsilon must be finite and positive, got {eps}"
            )))
        }
    }

    /// The budget value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Split the budget evenly into `n` sequential parts (e.g. one per time
    /// slice, as the Identity baseline does).
    #[must_use = "split returns the per-part budget; it does not mutate or spend self"]
    pub fn split(self, n: usize) -> Epsilon {
        assert!(n > 0, "cannot split a budget into zero parts");
        Epsilon::new(self.0 / n as f64)
    }

    /// Fraction of the budget, `0 < frac <= 1`.
    #[must_use = "fraction returns the sub-budget; it does not mutate or spend self"]
    pub fn fraction(self, frac: f64) -> Epsilon {
        assert!(frac > 0.0 && frac <= 1.0, "fraction must be in (0,1]");
        Epsilon::new(self.0 * frac)
    }
}

/// Attribution attached to a spend for the audit ledger: which mechanism
/// consumed the budget and at what L1 sensitivity.
#[derive(Debug, Clone, Copy)]
pub struct SpendInfo {
    /// Mechanism label (stable, lowercase).
    pub mechanism: &'static str,
    /// L1 sensitivity the mechanism was calibrated against. `NaN` when the
    /// caller did not attribute the spend (exports as `null`).
    pub sensitivity: f64,
}

impl SpendInfo {
    /// A spend feeding the Laplace mechanism at the given L1 sensitivity.
    pub fn laplace(sensitivity: f64) -> Self {
        SpendInfo {
            mechanism: "laplace",
            sensitivity,
        }
    }

    /// A spend with no mechanism attribution (legacy call sites and tests).
    pub fn unattributed() -> Self {
        SpendInfo {
            mechanism: "unattributed",
            sensitivity: f64::NAN,
        }
    }
}

/// Tracks budget consumption for one release pipeline and *enforces* the
/// total: a spend that would exceed `total` fails with
/// [`DpError::BudgetExhausted`].
///
/// Spends are grouped by *partition group*: spends in the **same** group are
/// assumed to touch the same records and compose sequentially (they add);
/// groups named differently but registered as *parallel siblings* compose in
/// parallel (the accountant charges only the per-group maximum).
///
/// Every accepted spend is also appended to the audit [ledger]; see
/// [`BudgetAccountant::audit`].
///
/// [ledger]: BudgetAccountant::ledger
///
/// The common usage in this repository:
///
/// ```
/// use stpt_dp::budget::{BudgetAccountant, Epsilon};
///
/// let mut acc = BudgetAccountant::new(Epsilon::new(30.0));
/// // Pattern-recognition phase: sequential over time slices.
/// for _t in 0..100 {
///     acc.spend_sequential("pattern", Epsilon::new(0.1)).unwrap();
/// }
/// // Sanitisation phase: one spend per partition, parallel across disjoint
/// // partitions -> charged the max.
/// acc.spend_parallel("sanitize", "p0", Epsilon::new(12.0)).unwrap();
/// acc.spend_parallel("sanitize", "p1", Epsilon::new(20.0)).unwrap();
/// assert!((acc.spent() - 30.0).abs() < 1e-9);
/// assert!(acc.spend_sequential("extra", Epsilon::new(0.5)).is_err());
/// let check = acc.audit(30.0).unwrap();
/// assert!(check.consistent);
/// ```
#[derive(Debug, Clone)]
pub struct BudgetAccountant {
    total: Epsilon,
    /// Sequential phases: phase name -> accumulated ε. `BTreeMap` so the
    /// summation order in [`spent_of`] is deterministic.
    sequential: BTreeMap<String, f64>,
    /// Parallel phases: phase name -> (sibling name -> accumulated ε).
    /// The phase is charged max over siblings.
    parallel: BTreeMap<String, BTreeMap<String, f64>>,
    /// Append-only record of every accepted spend, in acceptance order.
    ledger: Vec<LedgerEntry>,
    /// One ε-freeness proof per completed post-processing stage, in
    /// completion order. See [`BudgetAccountant::begin_postprocess`].
    proofs: Vec<PostProcessProof>,
}

/// Open bracket of a post-processing stage, returned by
/// [`BudgetAccountant::begin_postprocess`] and consumed by
/// [`BudgetAccountant::end_postprocess`]. Dropping it without closing the
/// stage leaves no proof behind, which [`BudgetAccountant::audit`] treats
/// the same as never claiming ε-freeness — stages must be closed to count.
#[must_use = "a post-processing stage must be closed with end_postprocess to record its proof"]
#[derive(Debug)]
pub struct PostProcessToken {
    /// Ledger length when the stage opened.
    start: usize,
    /// Stage label, carried into the proof.
    stage: String,
}

/// Total spend of a (sequential, parallel) phase-map pair: sum over phases,
/// where a parallel phase contributes the max over its disjoint siblings.
/// Shared by the live accountant and the audit replay so both sum in the
/// identical (sorted) order and bit-exact comparison is well-defined.
fn spent_of(
    sequential: &BTreeMap<String, f64>,
    parallel: &BTreeMap<String, BTreeMap<String, f64>>,
) -> f64 {
    let seq: f64 = sequential.values().sum();
    let par: f64 = parallel
        .values()
        .map(|sibs| sibs.values().copied().fold(0.0, f64::max))
        .sum();
    seq + par
}

impl BudgetAccountant {
    /// Create an accountant enforcing `total` across all phases.
    pub fn new(total: Epsilon) -> Self {
        BudgetAccountant {
            total,
            sequential: BTreeMap::new(),
            parallel: BTreeMap::new(),
            ledger: Vec::new(),
            proofs: Vec::new(),
        }
    }

    /// The enforced total budget.
    pub fn total(&self) -> Epsilon {
        self.total
    }

    /// Budget consumed so far: the sum over phases, where a parallel phase
    /// contributes the maximum over its disjoint siblings.
    pub fn spent(&self) -> f64 {
        spent_of(&self.sequential, &self.parallel)
    }

    /// Budget still available.
    pub fn remaining(&self) -> f64 {
        (self.total.value() - self.spent()).max(0.0)
    }

    /// The audit ledger: one entry per accepted spend, in acceptance order.
    pub fn ledger(&self) -> &[LedgerEntry] {
        &self.ledger
    }

    /// The recorded post-processing proofs, in stage-completion order.
    pub fn proofs(&self) -> &[PostProcessProof] {
        &self.proofs
    }

    /// Open a post-processing stage: capture the current ledger length so
    /// [`end_postprocess`](Self::end_postprocess) — and later the audit —
    /// can prove that no budget was spent while the stage ran (the runtime
    /// form of the post-processing theorem, Thm. 3).
    pub fn begin_postprocess(&mut self, stage: &str) -> PostProcessToken {
        PostProcessToken {
            start: self.ledger.len(),
            stage: stage.to_string(),
        }
    }

    /// Close a post-processing stage and record its ε-freeness proof. The
    /// proof captures how many spends (and how much ε) landed between
    /// `begin` and `end`; a correct post-processing stage records zero of
    /// both, and [`audit`](Self::audit) /
    /// [`verify_postprocess`](Self::verify_postprocess) fail closed
    /// otherwise.
    pub fn end_postprocess(&mut self, token: PostProcessToken) {
        let spends_during = self.ledger.len().saturating_sub(token.start);
        // Fold from +0.0: `Iterator::sum` for f64 starts at -0.0, and the
        // proof's ε must be bit-exactly +0.0 for an empty window.
        let epsilon = self.ledger[token.start..]
            .iter()
            .fold(0.0f64, |acc, e| acc + e.epsilon);
        self.proofs.push(PostProcessProof {
            stage: token.stage,
            epsilon,
            spends_during,
            ledger_at: token.start,
        });
    }

    /// Replay every recorded [`PostProcessProof`] against the ledger and
    /// fail closed unless each stage's window is empty: zero spends, zero
    /// ε, and a recorded ε that bit-matches the window replay. Returns the
    /// number of verified stages. Called from
    /// [`audit`](Self::audit) and usable standalone on release paths that
    /// do not run a full audit.
    pub fn verify_postprocess(&self) -> Result<usize, DpError> {
        for proof in &self.proofs {
            let end = proof.ledger_at + proof.spends_during;
            let window: f64 = self
                .ledger
                .get(proof.ledger_at..end)
                .map(|w| w.iter().fold(0.0f64, |acc, e| acc + e.epsilon))
                .unwrap_or(f64::NAN);
            let replay_matches = window.to_bits() == proof.epsilon.to_bits();
            // Bit patterns, not float compares: the proof's ε must be the
            // canonical +0.0 (an empty-window fold), nothing else.
            let zero_bits = 0.0f64.to_bits();
            if proof.spends_during != 0 || proof.epsilon.to_bits() != zero_bits {
                return Err(DpError::AuditFailed {
                    expected: 0.0,
                    replayed: proof.epsilon,
                    detail: format!(
                        "post-processing stage '{}' is not ε-free: {} spend(s) totalling \
                         ε={} landed while it ran (Thm. 3 requires zero)",
                        proof.stage, proof.spends_during, proof.epsilon
                    ),
                });
            }
            if !replay_matches {
                return Err(DpError::AuditFailed {
                    expected: proof.epsilon,
                    replayed: window,
                    detail: format!(
                        "post-processing proof for stage '{}' does not match the ledger replay",
                        proof.stage
                    ),
                });
            }
        }
        Ok(self.proofs.len())
    }

    /// Spend `eps` sequentially in `phase` (touches the same records as all
    /// other spends in `phase`). Fails if the total would be exceeded.
    #[must_use = "an ignored Err(BudgetExhausted) silently overspends the privacy budget"]
    pub fn spend_sequential(&mut self, phase: &str, eps: Epsilon) -> Result<(), DpError> {
        self.spend_sequential_with(phase, eps, SpendInfo::unattributed())
    }

    /// [`spend_sequential`](Self::spend_sequential) with mechanism
    /// attribution for the audit ledger.
    #[must_use = "an ignored Err(BudgetExhausted) silently overspends the privacy budget"]
    pub fn spend_sequential_with(
        &mut self,
        phase: &str,
        eps: Epsilon,
        info: SpendInfo,
    ) -> Result<(), DpError> {
        self.check(eps.value())?;
        *self.sequential.entry(phase.to_string()).or_insert(0.0) += eps.value();
        self.ledger.push(LedgerEntry {
            phase: phase.to_string(),
            sibling: None,
            mechanism: info.mechanism,
            epsilon: eps.value(),
            sensitivity: info.sensitivity,
            kind: Composition::Sequential,
        });
        Ok(())
    }

    /// Spend `eps` in `phase` on the disjoint partition `sibling`.
    /// Repeated spends on the same sibling add (sequential within the
    /// sibling); the phase as a whole is charged `max` over siblings.
    #[must_use = "an ignored Err(BudgetExhausted) silently overspends the privacy budget"]
    pub fn spend_parallel(
        &mut self,
        phase: &str,
        sibling: &str,
        eps: Epsilon,
    ) -> Result<(), DpError> {
        self.spend_parallel_with(phase, sibling, eps, SpendInfo::unattributed())
    }

    /// [`spend_parallel`](Self::spend_parallel) with mechanism attribution
    /// for the audit ledger.
    #[must_use = "an ignored Err(BudgetExhausted) silently overspends the privacy budget"]
    pub fn spend_parallel_with(
        &mut self,
        phase: &str,
        sibling: &str,
        eps: Epsilon,
        info: SpendInfo,
    ) -> Result<(), DpError> {
        // Check against the total before touching any state, so a rejected
        // spend leaves the accountant (and the ledger) exactly as it was.
        let (current_max, current_sib) = match self.parallel.get(phase) {
            Some(sibs) => (
                sibs.values().copied().fold(0.0, f64::max),
                sibs.get(sibling).copied().unwrap_or(0.0),
            ),
            None => (0.0, 0.0),
        };
        let new_sib = current_sib + eps.value();
        let delta = (new_sib - current_max).max(0.0);
        let seq: f64 = self.sequential.values().sum();
        let par_others: f64 = self
            .parallel
            .iter()
            .filter(|(name, _)| name.as_str() != phase)
            .map(|(_, sibs)| sibs.values().copied().fold(0.0, f64::max))
            .sum();
        let spent_now = seq + par_others + current_max;
        let tol = 1e-9 * self.total.value().max(1.0);
        if spent_now + delta > self.total.value() + tol {
            return Err(DpError::BudgetExhausted {
                requested: delta,
                remaining: (self.total.value() - spent_now).max(0.0),
            });
        }
        *self
            .parallel
            .entry(phase.to_string())
            .or_default()
            .entry(sibling.to_string())
            .or_insert(0.0) = new_sib;
        self.ledger.push(LedgerEntry {
            phase: phase.to_string(),
            sibling: Some(sibling.to_string()),
            mechanism: info.mechanism,
            epsilon: eps.value(),
            sensitivity: info.sensitivity,
            kind: Composition::Parallel,
        });
        Ok(())
    }

    /// Reconstruct an accountant from a previously recorded ledger by
    /// replaying every entry through the composition rules, preserving
    /// mechanism attribution.
    ///
    /// This is how a *serving* process (e.g. `stpt-serve`) resumes budget
    /// accounting for a release it did not sanitize in-process: the
    /// release carries its ledger, the replay rebuilds the accountant
    /// bit-exactly, and the server can then bracket its entire query-answer
    /// lifetime with [`begin_postprocess`](Self::begin_postprocess) /
    /// [`end_postprocess`](Self::end_postprocess) to prove — via
    /// [`verify_postprocess`](Self::verify_postprocess) — that answering
    /// queries spent zero ε (Thm. 3). Fails if any entry is invalid or the
    /// replay would overdraw `total`.
    pub fn replay(total: Epsilon, ledger: &[LedgerEntry]) -> Result<Self, DpError> {
        let mut acc = BudgetAccountant::new(total);
        for entry in ledger {
            let eps = Epsilon::try_new(entry.epsilon)?;
            let info = SpendInfo {
                mechanism: entry.mechanism,
                sensitivity: entry.sensitivity,
            };
            match (&entry.kind, &entry.sibling) {
                (Composition::Sequential, _) => {
                    acc.spend_sequential_with(&entry.phase, eps, info)?;
                }
                (Composition::Parallel, Some(sib)) => {
                    acc.spend_parallel_with(&entry.phase, sib, eps, info)?;
                }
                (Composition::Parallel, None) => {
                    return Err(DpError::AuditFailed {
                        expected: total.value(),
                        replayed: f64::NAN,
                        detail: format!(
                            "ledger entry for phase '{}' is parallel but has no sibling",
                            entry.phase
                        ),
                    });
                }
            }
        }
        Ok(acc)
    }

    /// Replay the audit ledger from scratch through the composition rules
    /// and verify that
    ///
    /// 1. the replayed phase maps reproduce the live accountant **bit for
    ///    bit** (every phase, sibling, and accumulated ε), and
    /// 2. the replayed total telescopes to `expected_total` within the
    ///    accountant's enforcement tolerance (`1e-9 · max(ε_tot, 1)` —
    ///    budget *allocation* splits ε_tot with ordinary float arithmetic,
    ///    so demanding bit-exactness against the configured total would
    ///    reject correct runs), and
    /// 3. the draws in this thread's open draw log (taken and closed here)
    ///    pass the statistical noise self-check against the ledger's
    ///    scales ([`crate::noisecheck`]).
    ///
    /// On success the [`LedgerCheck`] and the post-processing proofs are
    /// published to `stpt-obs` for telemetry export (a no-op unless
    /// `STPT_TRACE` is on) and the check is returned. On failure returns
    /// [`DpError::AuditFailed`] — a failed audit means the ledger and the
    /// accountant disagree, i.e. some spend bypassed the ledger or the
    /// composition arithmetic is broken, or the drawn noise does not match
    /// the ledger, and the release must not be trusted.
    pub fn audit(&self, expected_total: f64) -> Result<LedgerCheck, DpError> {
        let mut sequential: BTreeMap<String, f64> = BTreeMap::new();
        let mut parallel: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
        for entry in &self.ledger {
            match (&entry.kind, &entry.sibling) {
                (Composition::Sequential, _) => {
                    *sequential.entry(entry.phase.clone()).or_insert(0.0) += entry.epsilon;
                }
                (Composition::Parallel, Some(sib)) => {
                    *parallel
                        .entry(entry.phase.clone())
                        .or_default()
                        .entry(sib.clone())
                        .or_insert(0.0) += entry.epsilon;
                }
                (Composition::Parallel, None) => {
                    return Err(DpError::AuditFailed {
                        expected: expected_total,
                        replayed: f64::NAN,
                        detail: format!(
                            "ledger entry for phase '{}' is parallel but has no sibling",
                            entry.phase
                        ),
                    });
                }
            }
        }

        // Post-processing stages must prove ε-freeness before anything is
        // published (Thm. 3, checked at runtime).
        let stages = self.verify_postprocess()?;

        let replayed = spent_of(&sequential, &parallel);
        let spent = self.spent();
        let maps_match = maps_bit_equal(&sequential, &self.sequential)
            && nested_maps_bit_equal(&parallel, &self.parallel);
        let tol = 1e-9 * self.total.value().max(1.0);
        let total_matches = (replayed - expected_total).abs() <= tol;
        // Statistical noise self-check: the release's own draws, logged
        // since its `noisecheck::open_log`, must sit at ledger scales and
        // look like the calibrated Laplace(b) (see `crate::noisecheck`).
        // `Unchecked` when no log was open or samples are too few — never
        // a pass masquerading.
        let draws = crate::noisecheck::take_log();
        let (noise_status, noise_findings) =
            crate::noisecheck::verify_ledger_noise(&self.ledger, &draws);
        let check = LedgerCheck {
            total: expected_total,
            replayed,
            spent,
            entries: self.ledger.len(),
            postprocess_stages: stages,
            consistent: maps_match && total_matches,
            noise: noise_status,
        };

        if !maps_match {
            return Err(DpError::AuditFailed {
                expected: expected_total,
                replayed,
                detail: "ledger replay does not reproduce the live accountant bit-exactly"
                    .to_string(),
            });
        }
        if !total_matches {
            return Err(DpError::AuditFailed {
                expected: expected_total,
                replayed,
                detail: format!(
                    "ledger telescopes to ε={replayed}, expected ε={expected_total} (tol {tol})"
                ),
            });
        }
        if noise_status == stpt_obs::NoiseStatus::Inconsistent {
            // Fail closed *before* publication: a release whose noise does
            // not match its ledger must not ship a "verified" telemetry
            // document. Published verdicts are only Consistent/Unchecked.
            return Err(DpError::AuditFailed {
                expected: expected_total,
                replayed,
                detail: format!(
                    "noise self-check failed: {}",
                    crate::noisecheck::findings_summary(&noise_findings)
                ),
            });
        }
        stpt_obs::ledger::publish_ledger(&self.proofs, check);
        Ok(check)
    }

    fn check(&self, eps: f64) -> Result<(), DpError> {
        let remaining = self.remaining();
        let tol = 1e-9 * self.total.value().max(1.0);
        if eps > remaining + tol {
            Err(DpError::BudgetExhausted {
                requested: eps,
                remaining,
            })
        } else {
            Ok(())
        }
    }
}

/// Bit-exact equality of two phase maps (same keys, same `f64` bits).
fn maps_bit_equal(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// Bit-exact equality of two nested phase/sibling maps.
fn nested_maps_bit_equal(
    a: &BTreeMap<String, BTreeMap<String, f64>>,
    b: &BTreeMap<String, BTreeMap<String, f64>>,
) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((ka, va), (kb, vb))| ka == kb && maps_bit_equal(va, vb))
}

#[cfg(test)]
// Exact float assertions in these tests are deliberate (bitwise-reproducible
// quantities); float_cmp stays deny in library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_split_and_fraction() {
        let e = Epsilon::new(30.0);
        assert!((e.split(120).value() - 0.25).abs() < 1e-12);
        assert!((e.fraction(1.0 / 3.0).value() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn try_new_rejects_bad_values() {
        assert!(Epsilon::try_new(0.0).is_err());
        assert!(Epsilon::try_new(-1.0).is_err());
        assert!(Epsilon::try_new(f64::NAN).is_err());
        assert!(Epsilon::try_new(f64::INFINITY).is_err());
        assert!(Epsilon::try_new(1e-9).is_ok());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn epsilon_new_panics_on_zero() {
        let _ = Epsilon::new(0.0);
    }

    #[test]
    fn sequential_spends_add() {
        let mut acc = BudgetAccountant::new(Epsilon::new(1.0));
        acc.spend_sequential("a", Epsilon::new(0.4)).unwrap();
        acc.spend_sequential("a", Epsilon::new(0.4)).unwrap();
        assert!((acc.spent() - 0.8).abs() < 1e-12);
        assert!(acc.spend_sequential("a", Epsilon::new(0.4)).is_err());
        // The failed spend must not be recorded — in the maps or the ledger.
        assert!((acc.spent() - 0.8).abs() < 1e-12);
        assert_eq!(acc.ledger().len(), 2);
    }

    #[test]
    fn distinct_sequential_phases_add() {
        let mut acc = BudgetAccountant::new(Epsilon::new(30.0));
        acc.spend_sequential("pattern", Epsilon::new(10.0)).unwrap();
        acc.spend_sequential("sanitize", Epsilon::new(20.0))
            .unwrap();
        assert!((acc.spent() - 30.0).abs() < 1e-12);
        assert_eq!(acc.remaining(), 0.0);
    }

    #[test]
    fn parallel_spends_take_max() {
        let mut acc = BudgetAccountant::new(Epsilon::new(5.0));
        acc.spend_parallel("slice", "cell-0", Epsilon::new(2.0))
            .unwrap();
        acc.spend_parallel("slice", "cell-1", Epsilon::new(3.0))
            .unwrap();
        acc.spend_parallel("slice", "cell-2", Epsilon::new(1.0))
            .unwrap();
        assert!((acc.spent() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_sibling_resends_add_within_sibling() {
        let mut acc = BudgetAccountant::new(Epsilon::new(5.0));
        acc.spend_parallel("p", "s", Epsilon::new(2.0)).unwrap();
        acc.spend_parallel("p", "s", Epsilon::new(2.0)).unwrap();
        assert!((acc.spent() - 4.0).abs() < 1e-12);
        assert!(acc.spend_parallel("p", "s", Epsilon::new(2.0)).is_err());
        // Another sibling below the max is free.
        acc.spend_parallel("p", "other", Epsilon::new(4.0)).unwrap();
        assert!((acc.spent() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_overflow_is_rejected_before_commit() {
        let mut acc = BudgetAccountant::new(Epsilon::new(3.0));
        acc.spend_sequential("seq", Epsilon::new(2.0)).unwrap();
        assert!(acc.spend_parallel("par", "x", Epsilon::new(2.0)).is_err());
        // Phase map may exist but must not carry the failed spend.
        assert!((acc.spent() - 2.0).abs() < 1e-12);
        assert_eq!(acc.ledger().len(), 1);
        acc.spend_parallel("par", "x", Epsilon::new(1.0)).unwrap();
        assert!((acc.spent() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_pipeline_matches_paper_accounting() {
        // ε_tot = 30 = ε_pattern (10) + ε_sanitize (20); pattern is
        // sequential over T_train slices, each slice parallel over cells.
        let mut acc = BudgetAccountant::new(Epsilon::new(30.0));
        let per_slice = Epsilon::new(10.0).split(100);
        for t in 0..100 {
            acc.spend_sequential(&format!("pattern-t{t}"), per_slice)
                .unwrap();
        }
        assert!((acc.spent() - 10.0).abs() < 1e-9);
        for p in 0..8 {
            acc.spend_parallel("sanitize", &format!("part-{p}"), Epsilon::new(20.0))
                .unwrap();
        }
        assert!((acc.spent() - 30.0).abs() < 1e-9);
        assert!(acc.spend_sequential("post", Epsilon::new(0.01)).is_err());
    }

    #[test]
    fn ledger_records_attribution() {
        let mut acc = BudgetAccountant::new(Epsilon::new(2.0));
        acc.spend_sequential_with("seq", Epsilon::new(0.5), SpendInfo::laplace(1.0))
            .unwrap();
        acc.spend_parallel_with("par", "cell", Epsilon::new(1.0), SpendInfo::laplace(2.0))
            .unwrap();
        let ledger = acc.ledger();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger[0].mechanism, "laplace");
        assert_eq!(ledger[0].sensitivity, 1.0);
        assert!(ledger[0].sibling.is_none());
        assert_eq!(ledger[0].kind, Composition::Sequential);
        assert_eq!(ledger[1].mechanism, "laplace");
        assert_eq!(ledger[1].sensitivity, 2.0);
        assert_eq!(ledger[1].sibling.as_deref(), Some("cell"));
        assert_eq!(ledger[1].kind, Composition::Parallel);
    }

    #[test]
    fn audit_replays_bit_exactly() {
        let mut acc = BudgetAccountant::new(Epsilon::new(30.0));
        let per_slice = Epsilon::new(10.0).split(96);
        for t in 0..96 {
            let phase = format!("pattern-t{t}");
            for cell in 0..4 {
                acc.spend_parallel_with(
                    &phase,
                    &format!("n{cell}"),
                    per_slice,
                    SpendInfo::laplace(1.0),
                )
                .unwrap();
            }
        }
        for p in 0..8 {
            acc.spend_parallel_with(
                "sanitize",
                &format!("part-{p}"),
                Epsilon::new(20.0),
                SpendInfo::laplace(0.5),
            )
            .unwrap();
        }
        let check = acc.audit(30.0).expect("audit must pass");
        assert!(check.consistent);
        assert_eq!(check.entries, 96 * 4 + 8);
        assert_eq!(check.replayed.to_bits(), check.spent.to_bits());
    }

    #[test]
    fn audit_fails_closed_on_wrong_total() {
        let mut acc = BudgetAccountant::new(Epsilon::new(10.0));
        acc.spend_sequential("only", Epsilon::new(4.0)).unwrap();
        let err = acc.audit(10.0).expect_err("ledger does not telescope");
        match err {
            DpError::AuditFailed { replayed, .. } => assert!((replayed - 4.0).abs() < 1e-12),
            other => panic!("expected AuditFailed, got {other:?}"),
        }
    }

    #[test]
    fn clean_postprocess_stage_proves_epsilon_free() {
        let mut acc = BudgetAccountant::new(Epsilon::new(5.0));
        acc.spend_sequential("sanitize", Epsilon::new(5.0)).unwrap();
        let token = acc.begin_postprocess("consistency");
        // A genuine post-processing stage touches no budget here.
        acc.end_postprocess(token);
        assert_eq!(acc.proofs().len(), 1);
        assert_eq!(acc.proofs()[0].spends_during, 0);
        assert_eq!(acc.proofs()[0].epsilon.to_bits(), 0.0f64.to_bits());
        assert_eq!(acc.verify_postprocess().unwrap(), 1);
        let check = acc.audit(5.0).expect("audit must pass");
        assert!(check.consistent);
        assert_eq!(check.postprocess_stages, 1);
    }

    #[test]
    fn audit_fails_closed_on_spend_during_postprocess() {
        let mut acc = BudgetAccountant::new(Epsilon::new(5.0));
        acc.spend_sequential("sanitize", Epsilon::new(4.0)).unwrap();
        let token = acc.begin_postprocess("consistency");
        // A stage that claims to be post-processing but draws budget.
        acc.spend_sequential("sneaky", Epsilon::new(1.0)).unwrap();
        acc.end_postprocess(token);
        let err = acc.verify_postprocess().expect_err("stage spent budget");
        assert!(matches!(err, DpError::AuditFailed { .. }));
        // The full audit refuses too, even though the ledger telescopes.
        let err = acc.audit(5.0).expect_err("audit must fail closed");
        match err {
            DpError::AuditFailed { detail, .. } => {
                assert!(detail.contains("not ε-free"), "{detail}");
            }
            other => panic!("expected AuditFailed, got {other:?}"),
        }
    }

    #[test]
    fn tampered_postprocess_proof_fails_replay() {
        let mut acc = BudgetAccountant::new(Epsilon::new(2.0));
        acc.spend_sequential("a", Epsilon::new(1.0)).unwrap();
        let token = acc.begin_postprocess("consistency");
        acc.end_postprocess(token);
        // Simulate a proof whose window points at real spends.
        acc.proofs[0].ledger_at = 0;
        acc.proofs[0].spends_during = 1;
        assert!(acc.verify_postprocess().is_err());
    }

    #[test]
    fn replay_reconstructs_accountant_bit_exactly() {
        let mut acc = BudgetAccountant::new(Epsilon::new(30.0));
        let per_slice = Epsilon::new(10.0).split(96);
        for t in 0..96 {
            acc.spend_sequential_with(&format!("pattern-t{t}"), per_slice, SpendInfo::laplace(1.0))
                .unwrap();
        }
        for p in 0..8 {
            acc.spend_parallel_with(
                "sanitize",
                &format!("part-{p}"),
                Epsilon::new(20.0),
                SpendInfo::laplace(0.5),
            )
            .unwrap();
        }
        let rebuilt = BudgetAccountant::replay(Epsilon::new(30.0), acc.ledger())
            .expect("replaying a valid ledger");
        assert_eq!(rebuilt.spent().to_bits(), acc.spent().to_bits());
        assert_eq!(rebuilt.ledger().len(), acc.ledger().len());
        // The rebuilt accountant supports the serving-proof bracket.
        let mut rebuilt = rebuilt;
        let token = rebuilt.begin_postprocess("serve");
        rebuilt.end_postprocess(token);
        assert_eq!(rebuilt.verify_postprocess().unwrap(), 1);
        let check = rebuilt.audit(30.0).expect("rebuilt ledger audits");
        assert!(check.consistent);
    }

    #[test]
    fn replay_rejects_overdraw_and_bad_entries() {
        let mut acc = BudgetAccountant::new(Epsilon::new(4.0));
        acc.spend_sequential("a", Epsilon::new(3.0)).unwrap();
        // Replaying into a smaller total must fail, not silently truncate.
        assert!(matches!(
            BudgetAccountant::replay(Epsilon::new(2.0), acc.ledger()),
            Err(DpError::BudgetExhausted { .. })
        ));
        // A corrupted entry (non-positive ε) is rejected.
        let mut ledger = acc.ledger().to_vec();
        ledger[0].epsilon = -1.0;
        assert!(BudgetAccountant::replay(Epsilon::new(4.0), &ledger).is_err());
        // A parallel entry without a sibling is structurally invalid.
        let mut ledger = acc.ledger().to_vec();
        ledger[0].kind = Composition::Parallel;
        ledger[0].sibling = None;
        assert!(matches!(
            BudgetAccountant::replay(Epsilon::new(4.0), &ledger),
            Err(DpError::AuditFailed { .. })
        ));
    }

    #[test]
    fn audit_detects_ledger_tampering() {
        let mut acc = BudgetAccountant::new(Epsilon::new(2.0));
        acc.spend_sequential("a", Epsilon::new(1.0)).unwrap();
        // Simulate a spend that bypassed the ledger.
        acc.sequential.insert("ghost".to_string(), 0.5);
        let err = acc.audit(1.5).expect_err("replay must not match");
        assert!(matches!(err, DpError::AuditFailed { .. }));
    }
}
