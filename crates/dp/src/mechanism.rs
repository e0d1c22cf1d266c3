//! The Laplace mechanism (Equation 4).

use crate::budget::Epsilon;
use crate::rng::DpRng;
use crate::sensitivity::Sensitivity;
use rand::Rng;

/// Telemetry: number of Laplace noise draws (counts only when `STPT_TRACE`
/// is on; a single relaxed atomic load otherwise).
static LAPLACE_DRAWS: stpt_obs::Counter = stpt_obs::Counter::new("dp.noise_draws.laplace");

/// True iff `x` is exactly `±0.0` at the bit level.
///
/// This is the intent-revealing form of an *exact* float-zero test: unlike
/// a tolerance comparison it promises that no rounding slack is meant, and
/// unlike `x == 0.0` it cannot be mistaken for an approximate check
/// (`cargo xtask lint` rule XT03 bans the raw comparison in library code).
#[inline]
#[must_use]
pub fn is_exact_zero(x: f64) -> bool {
    // Shifting out the sign bit equates +0.0 and -0.0.
    x.to_bits() << 1 == 0
}

/// Draw one sample from the Laplace distribution `Lap(0, scale)` via the
/// inverse CDF: if `U ~ Uniform(-1/2, 1/2)`, then
/// `-scale * sign(U) * ln(1 - 2|U|) ~ Lap(0, scale)`.
pub fn laplace_sample(scale: f64, rng: &mut DpRng) -> f64 {
    assert!(
        scale >= 0.0,
        "Laplace scale must be non-negative, got {scale}"
    );
    if is_exact_zero(scale) {
        return 0.0;
    }
    LAPLACE_DRAWS.add(1);
    // gen::<f64>() is in [0, 1); shift to (-1/2, 1/2].
    let u: f64 = 0.5 - rng.gen::<f64>();
    let x = -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln();
    // Debug-only (STPT_TRACE-gated) draw log feeding the audit's
    // statistical noise self-check; never serialised, never in envelopes.
    if stpt_obs::enabled() {
        crate::noisecheck::record(scale, x);
    }
    x
}

/// The Laplace mechanism (Equation 4): adds `Lap(s/ε)` noise to a real-valued
/// query answer, achieving ε-DP for queries of L1 sensitivity `s`.
#[derive(Debug, Clone, Copy)]
pub struct LaplaceMechanism {
    sensitivity: Sensitivity,
    epsilon: Epsilon,
}

impl LaplaceMechanism {
    /// Construct a mechanism for a query with the given sensitivity and
    /// privacy budget.
    pub fn new(sensitivity: Sensitivity, epsilon: Epsilon) -> Self {
        LaplaceMechanism {
            sensitivity,
            epsilon,
        }
    }

    /// The noise scale `b = s/ε`.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.sensitivity.value() / self.epsilon.value()
    }

    /// Variance of the added noise, `2b²`. Used by the budget-allocation
    /// optimisation of Theorem 8.
    #[inline]
    pub fn noise_variance(&self) -> f64 {
        let b = self.scale();
        2.0 * b * b
    }

    /// Release a single noisy value.
    #[inline]
    pub fn release(&self, true_value: f64, rng: &mut DpRng) -> f64 {
        true_value + laplace_sample(self.scale(), rng)
    }

    /// Release a noisy copy of a slice. Each element is perturbed
    /// independently; callers are responsible for budget accounting across
    /// elements (sequential in time, parallel across disjoint partitions).
    pub fn release_slice(&self, values: &[f64], rng: &mut DpRng) -> Vec<f64> {
        values.iter().map(|&v| self.release(v, rng)).collect()
    }

    /// Perturb a slice in place.
    pub fn perturb_in_place(&self, values: &mut [f64], rng: &mut DpRng) {
        let b = self.scale();
        for v in values.iter_mut() {
            *v += laplace_sample(b, rng);
        }
    }
}

#[cfg(test)]
// Exact float assertions in these tests are deliberate (bitwise-reproducible
// quantities); float_cmp stays deny in library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::rng::DpRng;
    use rand::SeedableRng;

    fn stats(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn laplace_sample_zero_scale_is_exact() {
        let mut rng = DpRng::seed_from_u64(0);
        assert_eq!(laplace_sample(0.0, &mut rng), 0.0);
    }

    #[test]
    fn laplace_moments_match_distribution() {
        let mut rng = DpRng::seed_from_u64(42);
        let b = 2.0;
        let xs: Vec<f64> = (0..200_000).map(|_| laplace_sample(b, &mut rng)).collect();
        let (mean, var) = stats(&xs);
        // E[X] = 0, Var[X] = 2b² = 8.
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 8.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn laplace_median_absolute_deviation() {
        // For Laplace, P(|X| <= b ln 2) = 1/2.
        let mut rng = DpRng::seed_from_u64(1);
        let b = 1.5;
        let threshold = b * 2f64.ln();
        let n = 100_000;
        let within = (0..n)
            .filter(|_| laplace_sample(b, &mut rng).abs() <= threshold)
            .count();
        let frac = within as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn mechanism_scale_and_variance() {
        let m = LaplaceMechanism::new(Sensitivity::new(2.0), Epsilon::new(0.5));
        assert!((m.scale() - 4.0).abs() < 1e-15);
        assert!((m.noise_variance() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn release_slice_preserves_length_and_centers_on_truth() {
        let m = LaplaceMechanism::new(Sensitivity::new(1.0), Epsilon::new(10.0));
        let mut rng = DpRng::seed_from_u64(3);
        let truth = vec![5.0; 50_000];
        let noisy = m.release_slice(&truth, &mut rng);
        assert_eq!(noisy.len(), truth.len());
        let (mean, _) = stats(&noisy);
        assert!((mean - 5.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn perturb_in_place_matches_release_distribution() {
        let m = LaplaceMechanism::new(Sensitivity::new(1.0), Epsilon::new(1.0));
        let mut rng = DpRng::seed_from_u64(9);
        let mut xs = vec![0.0; 100_000];
        m.perturb_in_place(&mut xs, &mut rng);
        let (mean, var) = stats(&xs);
        assert!(mean.abs() < 0.05);
        assert!((var - 2.0).abs() < 0.1, "var {var}");
    }
}
