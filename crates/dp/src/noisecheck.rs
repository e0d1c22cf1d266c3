//! Statistical noise self-check: does the noise a release *drew* match the
//! noise its ledger *claims*?
//!
//! Budget accounting proves the right ε was spent, but not that the
//! sampler actually produced Laplace(b) noise — a broken RNG, a dropped
//! factor in the scale, or unit drift between sensitivity and ε would leave
//! the ledger pristine while silently under- (or over-) protecting the
//! release.
//!
//! When debug tracing (`STPT_TRACE`) is on, `run_stpt` opens a draw log on
//! its thread ([`open_log`]), every [`laplace_sample`](crate::laplace_sample)
//! on that thread appends its `(scale, draw)` pair, and
//! [`BudgetAccountant::audit`](crate::BudgetAccountant::audit) takes the log
//! and judges it against the release's own ledger. A release is built on
//! one thread (pattern recognition and `sanitize_partitions` draw in plain
//! loops), so the log holds that release's draws and nothing else: the
//! verdict depends neither on other releases nor on thread timing. Each
//! distinct scale `b` in the log, with `m` draws at it, is judged as
//! follows:
//!
//! * a scale that no `laplace` ledger entry claims (bit-equal
//!   `sensitivity / ε`) is `Inconsistent` at any `m` — the mechanism's
//!   scale drifted from its ledger entry;
//! * a claimed scale with `m ≥` [`MIN_SAMPLES`] must pass three bounds:
//!   * **mean**: `|mean| ≤ 6·b·√(2/m)` — six standard errors of the sample
//!     mean of Laplace(b) (variance `2b²`);
//!   * **variance**: `|var − 2b²| ≤ 6·b²·√(20/m)` — six standard errors of
//!     the sample variance (`Var(s²) ≈ (κ−1)σ⁴/m` with Laplace kurtosis
//!     `κ = 6`, i.e. `20b⁴/m`);
//!   * **KS**: the Kolmogorov–Smirnov distance of the draws from the
//!     Laplace(b) CDF must satisfy `D ≤ 3.5/√m`;
//! * a claimed scale with fewer draws is not judged. If no scale is judged
//!   and none is unclaimed, the verdict is `Unchecked`.
//!
//! The 6σ / 3.5-critical-value bounds are deliberately loose: at the draw
//! counts of one release the false-alarm probability is astronomically
//! small, while a mis-calibrated scale (off by 2× with a few hundred draws)
//! fails by a wide margin. The audit fails closed on `Inconsistent`
//! *before* publishing the ledger, so published verdicts are only ever
//! `Consistent`/`Unchecked`.
//!
//! **Privacy note:** raw draws reveal the noise that protects the release,
//! so the log is debug telemetry only. It opens under the trace gate alone
//! (never the live-monitoring gate), lives for one release, and is never
//! serialised: only the [`NoiseStatus`] verdict leaves this module.

use std::cell::RefCell;
use std::collections::BTreeMap;
use stpt_obs::ledger::LedgerEntry;
use stpt_obs::NoiseStatus;

/// Minimum draws one release must make at a scale before the check has
/// any power.
pub const MIN_SAMPLES: u64 = 200;

thread_local! {
    /// The open release's `(scale, draw)` pairs; `None` when no log is open.
    static LOG: RefCell<Option<Vec<(f64, f64)>>> = const { RefCell::new(None) };
}

/// An open draw log. Dropping it closes the log, so no exit path of a
/// release (an error, a panic) leaves one open to collect a later
/// release's draws.
#[must_use = "the draw log closes when this guard is dropped"]
pub struct DrawLog(());

impl Drop for DrawLog {
    fn drop(&mut self) {
        // `try_with`: a drop during thread teardown must not panic.
        let _ = LOG.try_with(|log| log.borrow_mut().take());
    }
}

/// Open this thread's draw log for one release, replacing any log still
/// open. Draws are logged only while the trace gate is on; otherwise the
/// log stays closed and the audit's verdict is `Unchecked`.
pub fn open_log() -> DrawLog {
    let fresh = stpt_obs::enabled().then(Vec::new);
    LOG.with(|log| *log.borrow_mut() = fresh);
    DrawLog(())
}

/// Append one draw to this thread's open log, if there is one.
pub(crate) fn record(scale: f64, x: f64) {
    LOG.with(|log| {
        if let Some(draws) = log.borrow_mut().as_mut() {
            draws.push((scale, x));
        }
    });
}

/// Close this thread's draw log and return its draws (empty when no log
/// was open).
pub(crate) fn take_log() -> Vec<(f64, f64)> {
    LOG.with(|log| log.borrow_mut().take()).unwrap_or_default()
}

/// One scale that failed its comparison.
#[derive(Debug, Clone)]
pub struct NoiseFinding {
    /// The Laplace scale `b` the draws were taken at.
    pub scale: f64,
    /// Draws the release made at that scale.
    pub count: u64,
    /// Human-readable description of the violated rule.
    pub detail: String,
}

/// Laplace(0, b) CDF.
fn laplace_cdf(x: f64, b: f64) -> f64 {
    if x < 0.0 {
        0.5 * (x / b).exp()
    } else {
        1.0 - 0.5 * (-x / b).exp()
    }
}

/// Two-sided KS distance of non-empty `samples` from Laplace(0, b).
fn ks_distance(samples: &mut [f64], b: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let m = samples.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in samples.iter().enumerate() {
        let f = laplace_cdf(x, b);
        let hi = (i + 1) as f64 / m - f;
        let lo = f - i as f64 / m;
        d = d.max(hi.abs()).max(lo.abs());
    }
    d
}

/// Judge one release's `draws` against the Laplace scales its `ledger`
/// claims. Returns the overall verdict plus one finding per violated rule,
/// in ascending scale order.
pub fn verify_ledger_noise(
    ledger: &[LedgerEntry],
    draws: &[(f64, f64)],
) -> (NoiseStatus, Vec<NoiseFinding>) {
    // Scales are compared by bit pattern: the draw must use exactly the
    // `sensitivity / ε` the ledger records (XT03 bans raw float equality).
    let mut claimed: Vec<u64> = ledger
        .iter()
        .filter(|e| e.mechanism == "laplace")
        .map(|e| (e.sensitivity / e.epsilon).to_bits())
        .collect();
    claimed.sort_unstable();
    let mut by_scale: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(b, x) in draws {
        by_scale.entry(b.to_bits()).or_default().push(x);
    }

    let mut findings = Vec::new();
    let mut checked_any = false;
    for (bits, mut samples) in by_scale {
        let b = f64::from_bits(bits);
        let count = samples.len() as u64;
        let mut fail = |detail: String| {
            findings.push(NoiseFinding {
                scale: b,
                count,
                detail,
            });
        };
        if claimed.binary_search(&bits).is_err() {
            fail(format!(
                "{count} draw(s) at Laplace(b={b}), a scale no ledger entry claims"
            ));
            continue;
        }
        if count < MIN_SAMPLES {
            continue;
        }
        checked_any = true;
        let n = count as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let variance = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let mean_bound = 6.0 * b * (2.0 / n).sqrt();
        if mean.abs() > mean_bound {
            fail(format!(
                "mean {mean:.6} exceeds ±{mean_bound:.6} for Laplace(b={b}) over {count} draws"
            ));
        }
        let expect_var = 2.0 * b * b;
        let var_bound = 6.0 * b * b * (20.0 / n).sqrt();
        if (variance - expect_var).abs() > var_bound {
            fail(format!(
                "variance {variance:.6} vs expected 2b²={expect_var:.6} \
                 (tol ±{var_bound:.6}) for Laplace(b={b}) over {count} draws"
            ));
        }
        let d = ks_distance(&mut samples, b);
        let ks_bound = 3.5 / n.sqrt();
        if d > ks_bound {
            fail(format!(
                "KS distance {d:.4} exceeds {ks_bound:.4} vs Laplace(b={b}) over {count} draws"
            ));
        }
    }
    let status = if !findings.is_empty() {
        NoiseStatus::Inconsistent
    } else if checked_any {
        NoiseStatus::Consistent
    } else {
        NoiseStatus::Unchecked
    };
    (status, findings)
}

/// Render findings as one audit-failure detail line.
pub fn findings_summary(findings: &[NoiseFinding]) -> String {
    findings
        .iter()
        .map(|f| f.detail.as_str())
        .collect::<Vec<_>>()
        .join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::laplace_sample;
    use crate::rng::DpRng;
    use rand::SeedableRng;
    use stpt_obs::ledger::Composition;

    fn entry(scale: f64) -> LedgerEntry {
        LedgerEntry {
            phase: "test".to_owned(),
            sibling: None,
            mechanism: "laplace",
            // Any (sensitivity, epsilon) pair with sensitivity/epsilon ==
            // scale; the checker only looks at the ratio.
            epsilon: 1.0,
            sensitivity: scale,
            kind: Composition::Sequential,
        }
    }

    /// `n` honest Laplace draws at `draw_scale`, logged under `logged_scale`.
    fn draws(logged_scale: f64, draw_scale: f64, n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = DpRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (logged_scale, laplace_sample(draw_scale, &mut rng)))
            .collect()
    }

    #[test]
    fn laplace_cdf_is_pinned() {
        assert!((laplace_cdf(0.0, 1.0) - 0.5).abs() < 1e-15);
        assert!((laplace_cdf(f64::ln(2.0), 1.0) - 0.75).abs() < 1e-12);
        assert!((laplace_cdf(-f64::ln(2.0), 1.0) - 0.25).abs() < 1e-12);
        assert!(laplace_cdf(-20.0, 1.0) < 1e-8);
        assert!(laplace_cdf(20.0, 1.0) > 1.0 - 1e-8);
    }

    #[test]
    fn genuine_draws_pass_the_check() {
        let b = 0.37109375;
        let (status, findings) = verify_ledger_noise(&[entry(b)], &draws(b, b, 4000, 2024));
        assert!(findings.is_empty(), "{}", findings_summary(&findings));
        assert_eq!(status, NoiseStatus::Consistent);
    }

    #[test]
    fn perturbed_draws_fail_closed() {
        // The ledger claims scale b, but the draws came from Laplace(2b)
        // — the classic dropped-factor calibration bug, logged under the
        // claimed scale.
        let b = 0.7265625;
        let (status, findings) = verify_ledger_noise(&[entry(b)], &draws(b, 2.0 * b, 4000, 77));
        assert_eq!(status, NoiseStatus::Inconsistent);
        // Variance off by 4× must trip the moment bound; the KS distance
        // of Laplace(2b) vs Laplace(b) (~0.16) must trip the KS bound.
        let summary = findings_summary(&findings);
        assert!(summary.contains("variance"), "{summary}");
        assert!(summary.contains("KS distance"), "{summary}");
    }

    #[test]
    fn shifted_draws_fail_the_mean_bound() {
        let b = 0.5703125;
        let mut log = draws(b, b, 200, 5);
        // Contaminate with a systematic bias.
        log.extend((0..800).map(|_| (b, 0.5 * b)));
        let (status, findings) = verify_ledger_noise(&[entry(b)], &log);
        assert_eq!(status, NoiseStatus::Inconsistent);
        assert!(findings_summary(&findings).contains("mean"));
    }

    #[test]
    fn a_draw_at_an_unclaimed_scale_fails_closed() {
        // One draw at 2b while the ledger claims only b: far too few draws
        // for any moment bound, but a scale no entry claims is never
        // unchecked.
        let b = 0.4140625;
        let mut log = draws(b, b, 10, 8);
        log.extend(draws(2.0 * b, 2.0 * b, 1, 9));
        let (status, findings) = verify_ledger_noise(&[entry(b)], &log);
        assert_eq!(status, NoiseStatus::Inconsistent);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].scale.to_bits(), (2.0 * b).to_bits());
        assert_eq!(findings[0].count, 1);
        assert!(
            findings[0].detail.contains("no ledger entry claims"),
            "{}",
            findings[0].detail
        );
    }

    #[test]
    fn under_sampled_or_untraced_scales_stay_unchecked() {
        let b = 0.3203125;
        let half = (MIN_SAMPLES / 2) as usize;
        let (status, findings) = verify_ledger_noise(&[entry(b)], &draws(b, b, half, 9));
        assert_eq!(status, NoiseStatus::Unchecked);
        assert!(findings.is_empty());
        // No log (tracing off): nothing to judge.
        let (status, _) = verify_ledger_noise(&[entry(b)], &[]);
        assert_eq!(status, NoiseStatus::Unchecked);
    }

    #[test]
    fn log_records_under_the_trace_gate_until_closed() {
        // The trace gate is process-global; this is the one test in the
        // crate that switches it.
        let b = 0.25;
        let mut rng = DpRng::seed_from_u64(3);

        // Live monitoring alone must not record raw noise draws.
        stpt_obs::set_live_enabled(true);
        let guard = open_log();
        let _ = laplace_sample(b, &mut rng);
        stpt_obs::set_live_enabled(false);
        assert!(take_log().is_empty());
        drop(guard);

        stpt_obs::set_enabled(true);
        // A dropped guard closes the log: later draws go nowhere.
        drop(open_log());
        let _ = laplace_sample(b, &mut rng);
        assert!(take_log().is_empty());
        let _guard = open_log();
        let x = laplace_sample(b, &mut rng);
        stpt_obs::set_enabled(false);
        let log = take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0.to_bits(), b.to_bits());
        assert_eq!(log[0].1.to_bits(), x.to_bits());
    }
}
