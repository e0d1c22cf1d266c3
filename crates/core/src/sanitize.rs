//! Sanitisation step (Section 4.3, Algorithm 1 lines 15–22): aggregate the
//! true values of each partition, add Laplace noise calibrated to the
//! partition's pillar sensitivity and allocated budget, and spread the noisy
//! sum uniformly over the partition's cells.

use crate::allocation::{allocate, BudgetAllocation};
use crate::quantize::Partition;
use serde::{Deserialize, Serialize};
use stpt_data::ConsumptionMatrix;
use stpt_dp::prelude::*;
use stpt_dp::rng::fork;

/// Configuration of the sanitisation phase.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SanitizeConfig {
    /// Privacy budget ε_sanitize for the whole phase.
    pub epsilon: f64,
    /// Per-reading contribution bound (the Table 2 clipping factor); a
    /// partition's L1 sensitivity is `pillar_sensitivity × clip`.
    pub clip: f64,
    /// How ε_sanitize is divided among partitions.
    pub allocation: BudgetAllocation,
}

/// Per-partition audit record of the sanitisation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionRelease {
    /// Quantisation level.
    pub level: usize,
    /// Number of cells.
    pub cells: usize,
    /// L1 sensitivity in consumption units.
    pub sensitivity: f64,
    /// Budget allocated by Theorem 8.
    pub epsilon: f64,
    /// Released noisy sum.
    pub noisy_sum: f64,
}

/// Sanitise `c_cons` (built from **clipped** readings) according to the
/// partitioning, spending `config.epsilon` from `accountant`.
///
/// Returns the sanitised matrix and the per-partition audit trail.
pub fn sanitize_partitions(
    c_cons: &ConsumptionMatrix,
    partitions: &[Partition],
    config: &SanitizeConfig,
    accountant: &mut BudgetAccountant,
    rng: &mut DpRng,
) -> Result<(ConsumptionMatrix, Vec<PartitionRelease>), DpError> {
    assert!(!partitions.is_empty(), "no partitions to sanitise");
    assert!(config.clip > 0.0, "clip must be positive");

    let sens: Vec<f64> = partitions
        .iter()
        .map(|p| p.pillar_sensitivity as f64 * config.clip)
        .collect();
    // Partitions within the same spatial-tile group share users and compose
    // sequentially; groups are user-disjoint and compose in parallel
    // (Theorem 2), so the full ε_sanitize is allocated *within each group*
    // by the Theorem 8 rule.
    let mut budgets = vec![0.0; partitions.len()];
    let mut group_ids: Vec<usize> = partitions.iter().map(|p| p.group).collect();
    group_ids.sort_unstable();
    group_ids.dedup();
    for g in group_ids {
        let idx: Vec<usize> = (0..partitions.len())
            .filter(|&i| partitions[i].group == g)
            .collect();
        let group_sens: Vec<f64> = idx.iter().map(|&i| sens[i]).collect();
        let group_budgets = allocate(config.allocation, &group_sens, config.epsilon);
        for (&i, &b) in idx.iter().zip(&group_budgets) {
            budgets[i] = b;
        }
    }

    // Spend the whole phase sequentially up front: the accountant (and its
    // audit ledger) sees exactly the entry order of the old one-pass loop,
    // and a budget-exhaustion error aborts before any noise is drawn.
    for ((part, &s), &eps) in partitions.iter().zip(&sens).zip(&budgets) {
        accountant.spend_parallel_with(
            "sanitize",
            &format!("tile-{}", part.group),
            Epsilon::new(eps),
            SpendInfo::laplace(s),
        )?;
    }

    // Each partition draws from its own child stream, forked in partition
    // order; the fork stays because it fixes every partition's noise draw
    // (DESIGN.md §12).
    let mut out = ConsumptionMatrix::zeros(c_cons.cx(), c_cons.cy(), c_cons.ct());
    let mut releases = Vec::with_capacity(partitions.len());
    for ((part, &s), &eps) in partitions.iter().zip(&sens).zip(&budgets) {
        let mech = LaplaceMechanism::new(Sensitivity::new(s), Epsilon::new(eps));
        let true_sum: f64 = part.cells.iter().map(|&c| c_cons.data()[c]).sum();
        let noisy_sum = mech.release(true_sum, &mut fork(rng));
        let per_cell = noisy_sum / part.cells.len() as f64;
        for &c in &part.cells {
            out.data_mut()[c] = per_cell;
        }
        releases.push(PartitionRelease {
            level: part.level,
            cells: part.cells.len(),
            sensitivity: s,
            epsilon: eps,
            noisy_sum,
        });
    }
    Ok((out, releases))
}

#[cfg(test)]
// Exact float assertions in these tests are deliberate (bitwise-reproducible
// quantities); float_cmp stays deny in library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::quantize::k_quantize;

    fn toy_matrix() -> ConsumptionMatrix {
        ConsumptionMatrix::from_vec(2, 2, 4, (0..16).map(|i| (i % 5) as f64).collect())
    }

    fn config(eps: f64) -> SanitizeConfig {
        SanitizeConfig {
            epsilon: eps,
            clip: 1.0,
            allocation: BudgetAllocation::Optimal,
        }
    }

    #[test]
    fn spends_exactly_epsilon_sanitize() {
        let m = toy_matrix();
        let parts = k_quantize(&m.map(|v| v / 4.0), 3);
        let mut acc = BudgetAccountant::new(Epsilon::new(10.0));
        let mut rng = DpRng::seed_from_u64(0);
        let (out, releases) =
            sanitize_partitions(&m, &parts, &config(10.0), &mut acc, &mut rng).unwrap();
        assert!((acc.spent() - 10.0).abs() < 1e-9);
        assert_eq!(out.shape(), m.shape());
        let eps_sum: f64 = releases.iter().map(|r| r.epsilon).sum();
        assert!((eps_sum - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cells_in_same_partition_share_one_value() {
        let m = toy_matrix();
        let parts = k_quantize(&m.map(|v| v / 4.0), 2);
        let mut acc = BudgetAccountant::new(Epsilon::new(5.0));
        let mut rng = DpRng::seed_from_u64(1);
        let (out, _) = sanitize_partitions(&m, &parts, &config(5.0), &mut acc, &mut rng).unwrap();
        for p in &parts {
            let v0 = out.data()[p.cells[0]];
            for &c in &p.cells {
                assert_eq!(out.data()[c], v0);
            }
        }
    }

    #[test]
    fn high_budget_release_is_nearly_exact_per_partition() {
        let m = toy_matrix();
        let parts = k_quantize(&m.map(|v| v / 4.0), 4);
        let mut acc = BudgetAccountant::new(Epsilon::new(1e7));
        let mut rng = DpRng::seed_from_u64(2);
        let (out, _) = sanitize_partitions(&m, &parts, &config(1e7), &mut acc, &mut rng).unwrap();
        // Partition sums must match almost exactly (within-partition values
        // are uniformised, so compare sums, not cells).
        for p in &parts {
            let truth: f64 = p.cells.iter().map(|&c| m.data()[c]).sum();
            let noisy: f64 = p.cells.iter().map(|&c| out.data()[c]).sum();
            assert!((truth - noisy).abs() < 1e-2, "{truth} vs {noisy}");
        }
    }

    #[test]
    fn budget_exhaustion_is_detected() {
        let m = toy_matrix();
        let parts = k_quantize(&m.map(|v| v / 4.0), 2);
        let mut acc = BudgetAccountant::new(Epsilon::new(1.0));
        acc.spend_sequential("other", Epsilon::new(0.9)).unwrap();
        let mut rng = DpRng::seed_from_u64(3);
        let err = sanitize_partitions(&m, &parts, &config(0.5), &mut acc, &mut rng);
        assert!(matches!(err, Err(DpError::BudgetExhausted { .. })));
    }

    #[test]
    fn sensitivity_scales_with_clip() {
        let m = toy_matrix();
        let parts = k_quantize(&m.map(|v| v / 4.0), 2);
        let cfg = SanitizeConfig {
            epsilon: 4.0,
            clip: 2.5,
            allocation: BudgetAllocation::Optimal,
        };
        let mut acc = BudgetAccountant::new(Epsilon::new(4.0));
        let mut rng = DpRng::seed_from_u64(4);
        let (_, releases) = sanitize_partitions(&m, &parts, &cfg, &mut acc, &mut rng).unwrap();
        for (r, p) in releases.iter().zip(&parts) {
            assert!((r.sensitivity - p.pillar_sensitivity as f64 * 2.5).abs() < 1e-12);
        }
    }
}
