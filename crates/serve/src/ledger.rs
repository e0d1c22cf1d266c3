//! Ledger-backed ε-freeness proof for the serving path.
//!
//! A release's audit ledger records every spend its sanitization made.
//! [`ServingLedger`] replays that ledger into a fresh
//! [`BudgetAccountant`] (bit-exact, see [`BudgetAccountant::replay`]) and
//! then keeps a post-processing bracket open for the daemon's entire
//! serving lifetime. Proving ε-freeness is closing the bracket, replaying
//! every recorded stage window against the ledger
//! ([`BudgetAccountant::verify_postprocess`]), and reopening a new
//! bracket — if *any* spend landed while the daemon was answering
//! queries, the proof fails closed and the daemon reports it instead of
//! pretending the release is still only ε_tot-DP.

use serde::Serialize;
use stpt_dp::budget::{BudgetAccountant, Epsilon, PostProcessToken};
use stpt_dp::DpError;
use stpt_obs::LedgerEntry;

/// Machine-readable outcome of one ε-freeness proof, exposed by
/// `GET /releases`.
#[derive(Debug, Clone, Serialize)]
pub struct ServingProof {
    /// Post-processing stages verified (sanitize-time consistency stages
    /// plus one closed serving bracket per proof request).
    pub stages: usize,
    /// ε spent across all serving brackets. Exactly `0.0` — anything else
    /// fails the proof before this value is produced.
    pub epsilon_spent_serving: f64,
    /// Total ε the replayed accountant reports as spent (the
    /// sanitization's ε_tot; serving adds nothing to it).
    pub epsilon_spent_total: f64,
    /// Ledger entries backing the proof.
    pub ledger_entries: usize,
    /// The proof verified: always `true` on the `Ok` path (kept explicit
    /// so the JSON is self-describing).
    pub verified: bool,
}

/// Budget accounting for one cached release while it is being served.
#[derive(Debug)]
pub struct ServingLedger {
    accountant: BudgetAccountant,
    /// The currently open serving bracket. Always `Some` between public
    /// calls; taken and immediately replaced inside [`prove`].
    ///
    /// [`prove`]: ServingLedger::prove
    open: Option<PostProcessToken>,
    /// Brackets closed so far, used to label successive stages.
    brackets_closed: u64,
}

impl ServingLedger {
    /// Rebuild the accountant from a sanitization ledger and open the
    /// serving bracket. Fails if the ledger does not replay cleanly into
    /// `total`.
    pub fn resume(total: Epsilon, ledger: &[LedgerEntry]) -> Result<Self, DpError> {
        let mut accountant = BudgetAccountant::replay(total, ledger)?;
        let open = Some(accountant.begin_postprocess("serve"));
        Ok(ServingLedger {
            accountant,
            open,
            brackets_closed: 0,
        })
    }

    /// Close the open serving bracket, verify that **every** recorded
    /// post-processing stage (including all closed serving brackets) has
    /// an empty spend window, and reopen a fresh bracket so serving can
    /// continue.
    ///
    /// The reopen happens even when verification fails: the failure is
    /// the caller's to report, and a daemon that keeps running must keep
    /// accounting.
    pub fn prove(&mut self) -> Result<ServingProof, DpError> {
        if let Some(token) = self.open.take() {
            self.accountant.end_postprocess(token);
            self.brackets_closed += 1;
        }
        let verified = self.accountant.verify_postprocess();
        self.open = Some(
            self.accountant
                .begin_postprocess(&format!("serve-{}", self.brackets_closed)),
        );
        let stages = verified?;
        // All proofs verified, so every serving window folded to +0.0;
        // report the fold rather than a constant so tampering would show.
        let epsilon_spent_serving = self
            .accountant
            .proofs()
            .iter()
            .filter(|p| p.stage == "serve" || p.stage.starts_with("serve-"))
            .fold(0.0f64, |acc, p| acc + p.epsilon);
        Ok(ServingProof {
            stages,
            epsilon_spent_serving,
            epsilon_spent_total: self.accountant.spent(),
            ledger_entries: self.accountant.ledger().len(),
            verified: true,
        })
    }

    /// Total ε the underlying accountant has spent (sanitization only, as
    /// long as the proofs keep passing).
    pub fn spent(&self) -> f64 {
        self.accountant.spent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sanitization_ledger() -> (Epsilon, Vec<LedgerEntry>) {
        let total = Epsilon::new(30.0);
        let mut acc = BudgetAccountant::new(total);
        acc.spend_sequential("pattern", Epsilon::new(10.0)).unwrap();
        for p in 0..4 {
            acc.spend_parallel("sanitize", &format!("part-{p}"), Epsilon::new(20.0))
                .unwrap();
        }
        (total, acc.ledger().to_vec())
    }

    #[test]
    fn serving_proves_zero_epsilon_repeatedly() {
        let (total, ledger) = sanitization_ledger();
        let mut serving = ServingLedger::resume(total, &ledger).expect("ledger replays");
        assert!((serving.spent() - 30.0).abs() < 1e-9);
        for round in 1..=3 {
            let proof = serving.prove().expect("serving is ε-free");
            assert_eq!(proof.stages, round);
            assert_eq!(proof.epsilon_spent_serving.to_bits(), 0.0f64.to_bits());
            assert!((proof.epsilon_spent_total - 30.0).abs() < 1e-9);
            assert_eq!(proof.ledger_entries, ledger.len());
            assert!(proof.verified);
        }
    }

    #[test]
    fn proof_fails_closed_on_spend_during_serving() {
        let (total, ledger) = sanitization_ledger();
        // Leave headroom so the sneaky spend is accepted by the
        // accountant — the *proof* must be what catches it.
        let mut serving =
            ServingLedger::resume(Epsilon::new(40.0), &ledger).expect("ledger replays");
        let _ = total;
        serving
            .accountant
            .spend_sequential("sneaky", Epsilon::new(1.0))
            .expect("headroom exists");
        let err = serving.prove().expect_err("spend during serving must fail");
        match err {
            DpError::AuditFailed { detail, .. } => {
                assert!(detail.contains("not ε-free"), "{detail}");
            }
            other => panic!("expected AuditFailed, got {other:?}"),
        }
        // The failure is sticky: the poisoned bracket's proof stays
        // recorded, so later proofs keep failing rather than forgetting.
        assert!(serving.prove().is_err());
    }

    #[test]
    fn resume_rejects_ledger_overdrawing_total() {
        let (_, ledger) = sanitization_ledger();
        assert!(ServingLedger::resume(Epsilon::new(5.0), &ledger).is_err());
    }
}
