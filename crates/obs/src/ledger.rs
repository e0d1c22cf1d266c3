//! Privacy-budget audit ledger.
//!
//! `stpt-dp`'s `BudgetAccountant` records one [`LedgerEntry`] per spend
//! and, when a run finishes, replays the ledger to verify it telescopes to
//! the configured total ε (the runtime form of the sequential/parallel
//! composition theorems). The accountant owns the ledger, and the release
//! carries it; this module only *publishes* the audit's [`LedgerCheck`]
//! and post-processing proofs so the telemetry document can carry the
//! verified composition argument. The check's [`NoiseStatus`] is the
//! verdict `stpt-dp` reaches on each release's own noise draws; the draws
//! themselves never reach this crate.
//!
//! Publication is gated by the global `STPT_TRACE` switch like everything
//! else in this crate — but the *recording and checking* in `stpt-dp` is
//! always on: the ledger is a privacy invariant, not a debugging aid.

use std::sync::{Mutex, MutexGuard, OnceLock};

/// Which composition theorem a spend was accounted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composition {
    /// Sequential composition (Thm. 1): ε adds across phases.
    Sequential,
    /// Parallel composition (Thm. 2): ε is the max across disjoint
    /// siblings within a phase.
    Parallel,
}

/// One recorded budget spend.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Phase label (the accountant key), e.g. `"pattern-t12"` or
    /// `"sanitize"`.
    pub phase: String,
    /// Disjoint-sibling label for parallel spends (`None` for sequential).
    pub sibling: Option<String>,
    /// Mechanism that consumed the budget, e.g. `"laplace"`.
    pub mechanism: &'static str,
    /// Privacy parameter ε of this spend.
    pub epsilon: f64,
    /// L1 sensitivity the mechanism was calibrated against.
    pub sensitivity: f64,
    /// Composition kind the spend was accounted under.
    pub kind: Composition,
}

/// Evidence that one post-processing stage spent no budget (the runtime
/// form of the post-processing theorem, Thm. 3). The accountant records a
/// proof per stage by bracketing it with ledger-length tokens; the audit
/// replays each window and fails closed unless it is empty.
#[derive(Debug, Clone)]
pub struct PostProcessProof {
    /// Stage label, e.g. `"consistency"`.
    pub stage: String,
    /// Sum of ε across spends recorded while the stage was open. Must be
    /// exactly `0.0` for the audit to pass.
    pub epsilon: f64,
    /// Number of ledger entries recorded while the stage was open. Must
    /// be `0` for the audit to pass.
    pub spends_during: usize,
    /// Ledger length when the stage opened (the start of the replay
    /// window).
    pub ledger_at: usize,
}

/// Verdict of the statistical noise self-check (`stpt_dp::noisecheck`),
/// carried by [`LedgerCheck::noise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseStatus {
    /// No verdict: tracing was off, or the release drew too few times at
    /// every scale to test.
    #[default]
    Unchecked,
    /// Every scale the release drew at is claimed by its ledger, and every
    /// sufficiently-sampled one matched its calibrated Laplace(b).
    Consistent,
    /// Some draws sit at a scale the ledger does not claim, or are
    /// statistically incompatible with the distribution it claims — the
    /// audit fails closed.
    Inconsistent,
}

impl NoiseStatus {
    /// Stable lowercase label used in telemetry JSON and regress output.
    pub fn label(self) -> &'static str {
        match self {
            NoiseStatus::Unchecked => "unchecked",
            NoiseStatus::Consistent => "consistent",
            NoiseStatus::Inconsistent => "inconsistent",
        }
    }
}

/// Result of replaying a ledger against the accountant's live state.
#[derive(Debug, Clone, Copy)]
pub struct LedgerCheck {
    /// Configured total budget ε the run was expected to consume.
    pub total: f64,
    /// ε obtained by replaying the ledger through the composition rules.
    pub replayed: f64,
    /// ε the live accountant reports as spent.
    pub spent: f64,
    /// Number of ledger entries replayed.
    pub entries: usize,
    /// Number of post-processing stages whose ε-freeness proofs the audit
    /// replayed (all must be empty windows for `consistent` to hold).
    pub postprocess_stages: usize,
    /// Whether the replay matched the live accountant bit-exactly and the
    /// total within tolerance.
    pub consistent: bool,
    /// Verdict of the statistical noise self-check on the release's own
    /// draws (their scales, empirical moments and KS distance vs. the
    /// calibrated Laplace per ledger scale). `Unchecked` unless debug
    /// tracing logged enough draws.
    pub noise: NoiseStatus,
}

/// Deterministically merged state over every publication of the process
/// (one per run/repetition). A bench bin audits once per repetition; under
/// parallel repetitions "last publication wins" would make the exported
/// ledger depend on thread scheduling. Instead the slot keeps the
/// *canonical* run — the minimum under a total order on every exported
/// field ([`run_order`]) — plus the AND of every run's `consistent`
/// verdict, so the snapshot is identical at any `STPT_THREADS`.
struct Published {
    /// Proofs + check of the canonical (order-minimal) run.
    canonical: Option<PublishedRun>,
    /// AND of every published check's `consistent` flag.
    all_consistent: bool,
    /// Number of publications merged since the last [`reset`].
    runs: usize,
}

static PUBLISHED: OnceLock<Mutex<Published>> = OnceLock::new();

fn slot() -> MutexGuard<'static, Published> {
    PUBLISHED
        .get_or_init(|| {
            Mutex::new(Published {
                canonical: None,
                all_consistent: true,
                runs: 0,
            })
        })
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One published run: its post-processing proofs and the audit verdict.
/// The per-draw entries stay with the release that produced them.
pub type PublishedRun = (Vec<PostProcessProof>, LedgerCheck);

/// Bit-level content key of one post-processing proof.
fn proof_key(p: &PostProcessProof) -> (&str, u64, usize, usize) {
    (
        p.stage.as_str(),
        p.epsilon.to_bits(),
        p.spends_during,
        p.ledger_at,
    )
}

/// Total order on published runs by exported content, never by
/// publication time: the check's fields first, then the proof list
/// lexicographically. Two runs that tie here export the same bytes
/// (`consistent` is exported as the merged AND, not per run). Using
/// `to_bits` keeps the order total (no NaN holes) and exact.
fn run_order(a: &PublishedRun, b: &PublishedRun) -> std::cmp::Ordering {
    let scalar = |(proofs, check): &PublishedRun| {
        (
            check.entries,
            proofs.len(),
            check.total.to_bits(),
            check.replayed.to_bits(),
            check.spent.to_bits(),
            check.postprocess_stages,
            check.noise.label(),
        )
    };
    scalar(a)
        .cmp(&scalar(b))
        .then_with(|| a.0.iter().map(proof_key).cmp(b.0.iter().map(proof_key)))
}

/// Publish a run's post-processing proofs and its audit verdict for
/// export. No-op when the gate is off. Publications merge
/// deterministically: the snapshot keeps the content-minimal run and ANDs
/// all `consistent` flags, so concurrent runs yield the same export
/// regardless of arrival order.
pub fn publish_ledger(proofs: &[PostProcessProof], check: LedgerCheck) {
    if !crate::enabled() {
        return;
    }
    let mut slot = slot();
    slot.runs += 1;
    slot.all_consistent &= check.consistent;
    let candidate = (proofs.to_vec(), check);
    let replace = match &slot.canonical {
        None => true,
        Some(current) => run_order(&candidate, current) == std::cmp::Ordering::Less,
    };
    if replace {
        slot.canonical = Some(candidate);
    }
}

/// The canonical published run, if any. The returned check carries the
/// merged verdict: `consistent` is true only if *every* published run was.
pub fn ledger_snapshot() -> Option<PublishedRun> {
    let slot = slot();
    slot.canonical.as_ref().map(|(proofs, check)| {
        (
            proofs.clone(),
            LedgerCheck {
                consistent: slot.all_consistent,
                ..*check
            },
        )
    })
}

/// Number of publications merged since the last [`reset`].
pub fn published_runs() -> usize {
    slot().runs
}

/// Drop any published run and reset the merge state.
pub fn reset() {
    let mut slot = slot();
    slot.canonical = None;
    slot.all_consistent = true;
    slot.runs = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_labels_are_stable() {
        assert_eq!(NoiseStatus::Unchecked.label(), "unchecked");
        assert_eq!(NoiseStatus::Consistent.label(), "consistent");
        assert_eq!(NoiseStatus::Inconsistent.label(), "inconsistent");
        assert_eq!(NoiseStatus::default(), NoiseStatus::Unchecked);
    }

    fn check(eps: f64, ok: bool, noise: NoiseStatus) -> LedgerCheck {
        LedgerCheck {
            total: eps,
            replayed: eps,
            spent: eps,
            entries: 1,
            postprocess_stages: 0,
            consistent: ok,
            noise,
        }
    }

    #[test]
    fn publish_respects_gate_and_snapshot_round_trips() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        reset();
        publish_ledger(&[], check(1.0, true, NoiseStatus::Unchecked));
        assert!(ledger_snapshot().is_none());

        crate::set_enabled(true);
        publish_ledger(
            &[PostProcessProof {
                stage: "consistency".to_owned(),
                epsilon: 0.0,
                spends_during: 0,
                ledger_at: 2,
            }],
            LedgerCheck {
                total: 1.0,
                replayed: 1.0,
                spent: 1.0,
                entries: 2,
                postprocess_stages: 1,
                consistent: true,
                noise: NoiseStatus::Unchecked,
            },
        );
        crate::set_enabled(false);
        let (proofs, check) = ledger_snapshot().expect("published");
        assert!(check.consistent);
        assert_eq!(check.entries, 2);
        assert_eq!(check.postprocess_stages, 1);
        assert_eq!(proofs.len(), 1);
        assert_eq!(proofs[0].stage, "consistency");
        assert_eq!(proofs[0].spends_during, 0);
        reset();
        assert!(ledger_snapshot().is_none());
    }

    #[test]
    fn merge_is_publication_order_independent_and_ands_consistency() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        // Publish two runs in both orders; return the merged snapshot of
        // each order, rendered in full.
        let both_orders = |a: LedgerCheck, b: LedgerCheck| {
            [(a, b), (b, a)].map(|(first, second)| {
                reset();
                publish_ledger(&[], first);
                publish_ledger(&[], second);
                assert_eq!(published_runs(), 2);
                format!("{:?}", ledger_snapshot().expect("published"))
            })
        };

        // Same canonical run either way, and one bad run poisons the
        // merged verdict.
        let unchecked = NoiseStatus::Unchecked;
        let [forward, reversed] =
            both_orders(check(0.25, true, unchecked), check(0.5, false, unchecked));
        assert_eq!(forward, reversed);
        assert!(forward.contains("total: 0.25"), "{forward}");
        assert!(forward.contains("consistent: false"), "{forward}");

        // Two runs equal on every exported field but the noise verdict
        // still export one document whichever is published first.
        let consistent = NoiseStatus::Consistent;
        let [forward, reversed] =
            both_orders(check(0.5, true, consistent), check(0.5, true, unchecked));
        assert_eq!(forward, reversed);
        assert!(forward.contains("noise: Consistent"), "{forward}");
        crate::set_enabled(false);
        reset();
    }
}
