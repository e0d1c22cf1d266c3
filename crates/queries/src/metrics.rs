//! Accuracy metrics: Mean Relative Error (Equation 5) and helpers for
//! evaluating a query workload against a sanitised matrix.

use crate::prefix::PrefixSum3D;
use crate::query::RangeQuery;
use serde::{Deserialize, Serialize};
use stpt_data::ConsumptionMatrix;

/// Telemetry: total range queries evaluated across all workloads.
static QUERIES_EVALUATED: stpt_obs::Counter = stpt_obs::Counter::new("queries.evaluated");

/// Relative error of one query in percent: `|p - p̄| / max(p, ρ) · 100`.
///
/// Like the DP histogram literature, the denominator is floored at a
/// sanity bound `rho` so queries whose true answer is ≈0 do not dominate
/// the average.
pub fn relative_error(truth: f64, noisy: f64, rho: f64) -> f64 {
    (truth - noisy).abs() / truth.max(rho) * 100.0
}

/// Result of evaluating a workload.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Mean relative error in percent (Equation 5, averaged over queries).
    pub mre: f64,
    /// Median relative error in percent.
    pub median_re: f64,
    /// Number of queries evaluated.
    pub queries: usize,
}

/// Evaluate `queries` on the true and sanitised matrices, returning the MRE.
///
/// The denominator floor `rho` is 0.1% of the total true mass; see
/// [`default_rho`].
pub fn evaluate_workload(
    truth: &ConsumptionMatrix,
    sanitized: &ConsumptionMatrix,
    queries: &[RangeQuery],
) -> WorkloadResult {
    assert_eq!(truth.shape(), sanitized.shape(), "matrix shapes differ");
    let ps_truth = PrefixSum3D::new(truth);
    evaluate_workload_with(&ps_truth, default_rho(truth), sanitized, queries)
}

/// [`evaluate_workload`] against a prebuilt truth table.
///
/// The bench bins evaluate many sanitised matrices against one fixed
/// truth; rebuilding the O(cells) truth prefix-sum table per evaluation
/// dominated workload cost. Callers precompute `truth_ps` (and the
/// denominator floor `rho`, normally [`default_rho`] of the truth matrix)
/// once per instance and reuse them across evaluations.
///
/// Per-query errors are computed and reduced in query order on the
/// calling thread: each costs two O(1) table lookups, far less than
/// starting a parallel region.
pub fn evaluate_workload_with(
    truth_ps: &PrefixSum3D,
    rho: f64,
    sanitized: &ConsumptionMatrix,
    queries: &[RangeQuery],
) -> WorkloadResult {
    let _span = stpt_obs::span!("queries.evaluate");
    QUERIES_EVALUATED.add(queries.len() as u64);
    assert_eq!(truth_ps.shape(), sanitized.shape(), "matrix shapes differ");
    let ps_noisy = PrefixSum3D::new(sanitized);
    let mut errors: Vec<f64> = queries
        .iter()
        .map(|q| relative_error(truth_ps.range_sum(q), ps_noisy.range_sum(q), rho))
        .collect();
    let mre = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    errors.sort_by(f64::total_cmp);
    let median_re = match errors.len() {
        0 => 0.0,
        // Even length: the median is the mean of the two middle elements,
        // not the upper-middle one.
        n if n % 2 == 0 => (errors[n / 2 - 1] + errors[n / 2]) / 2.0,
        n => errors[n / 2],
    };
    WorkloadResult {
        mre,
        median_re,
        queries: queries.len(),
    }
}

/// Denominator floor: 0.1% of the matrix's total mass — the standard
/// sanity bound of the DP range-query literature (e.g. Qardaji et al.,
/// Shaham et al.), keeping queries over genuinely empty regions from
/// dominating the mean.
pub fn default_rho(truth: &ConsumptionMatrix) -> f64 {
    0.001 * truth.total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{generate_queries, QueryClass};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(seed: u64) -> ConsumptionMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..8 * 8 * 20).map(|_| rng.gen_range(0.0..5.0)).collect();
        ConsumptionMatrix::from_vec(8, 8, 20, data)
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact values are the point of these assertions
    fn relative_error_basics() {
        assert_eq!(relative_error(100.0, 90.0, 1.0), 10.0);
        assert_eq!(relative_error(100.0, 110.0, 1.0), 10.0);
        assert_eq!(relative_error(100.0, 100.0, 1.0), 0.0);
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact values are the point of these assertions
    fn rho_floors_tiny_denominators() {
        // Truth is zero: without the floor this would be infinite.
        let e = relative_error(0.0, 5.0, 10.0);
        assert_eq!(e, 50.0);
        assert!(e.is_finite());
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact values are the point of these assertions
    fn identical_matrices_have_zero_mre() {
        let m = random_matrix(0);
        let mut rng = StdRng::seed_from_u64(1);
        let qs = generate_queries(QueryClass::Random, 100, m.shape(), &mut rng);
        let r = evaluate_workload(&m, &m, &qs);
        assert_eq!(r.mre, 0.0);
        assert_eq!(r.median_re, 0.0);
        assert_eq!(r.queries, 100);
    }

    #[test]
    fn more_noise_means_higher_mre() {
        let m = random_matrix(2);
        let mut rng = StdRng::seed_from_u64(3);
        let qs = generate_queries(QueryClass::Random, 200, m.shape(), &mut rng);
        let small_noise = m.map(|v| v + 0.1);
        let big_noise = m.map(|v| v + 2.0);
        let r_small = evaluate_workload(&m, &small_noise, &qs);
        let r_big = evaluate_workload(&m, &big_noise, &qs);
        assert!(r_small.mre < r_big.mre);
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact values are the point of these assertions
    fn even_length_median_is_mean_of_middle_pair() {
        // Regression: four queries with relative errors {0, 10, 20, 50}%.
        // The median must be (10 + 20) / 2 = 15, not the upper-middle 20.
        let m = ConsumptionMatrix::from_vec(4, 1, 1, vec![100.0, 100.0, 100.0, 100.0]);
        let noisy = ConsumptionMatrix::from_vec(4, 1, 1, vec![100.0, 90.0, 80.0, 50.0]);
        let shape = m.shape();
        let qs: Vec<RangeQuery> = (0..4)
            .map(|x| RangeQuery::new((x, x + 1), (0, 1), (0, 1), shape))
            .collect();
        let r = evaluate_workload(&m, &noisy, &qs);
        assert_eq!(r.median_re, 15.0);
        assert_eq!(r.mre, 20.0);
        // Odd length keeps the true middle element.
        let r3 = evaluate_workload(&m, &noisy, &qs[..3]);
        assert_eq!(r3.median_re, 10.0);
    }

    #[test]
    fn with_variant_matches_from_scratch_evaluation() {
        let m = random_matrix(7);
        let noisy = m.map(|v| v + 0.7);
        let mut rng = StdRng::seed_from_u64(8);
        let qs = generate_queries(QueryClass::Random, 150, m.shape(), &mut rng);
        let from_scratch = evaluate_workload(&m, &noisy, &qs);
        let ps = PrefixSum3D::new(&m);
        let reused = evaluate_workload_with(&ps, default_rho(&m), &noisy, &qs);
        assert!(from_scratch.mre.to_bits() == reused.mre.to_bits());
        assert!(from_scratch.median_re.to_bits() == reused.median_re.to_bits());
        assert_eq!(from_scratch.queries, reused.queries);
    }

    #[test]
    fn mre_scale_invariant() {
        // Scaling both matrices by a constant leaves relative error unchanged.
        let m = random_matrix(4);
        let noisy = m.map(|v| v * 1.1);
        let mut rng = StdRng::seed_from_u64(5);
        let qs = generate_queries(QueryClass::Large, 100, m.shape(), &mut rng);
        let r1 = evaluate_workload(&m, &noisy, &qs);
        let m2 = m.map(|v| v * 7.0);
        let noisy2 = noisy.map(|v| v * 7.0);
        let r2 = evaluate_workload(&m2, &noisy2, &qs);
        assert!((r1.mre - r2.mre).abs() < 1e-9);
    }
}
