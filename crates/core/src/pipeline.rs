//! The ε-free consistency stage shared by every release.
//!
//! STPT's release is `(ε_pattern + ε_sanitize)`-DP by sequential
//! composition (Theorem 1); everything after sanitisation is
//! post-processing (Theorem 3). So the one step STPT ([`crate::run_stpt`])
//! and the comparison baselines (`stpt_bench::run_baseline`) share is the
//! consistency projection, and [`postprocess`] is that step as a plain
//! function of the released matrix.
//!
//! [`postprocess`] brackets the projection with
//! [`BudgetAccountant::begin_postprocess`] /
//! [`BudgetAccountant::end_postprocess`], so the caller's audit (or
//! [`BudgetAccountant::verify_postprocess`]) can prove the stage spent
//! ε = 0 — Theorem 3 as a runtime fail-closed check, not a comment.
//! Structurally, `cargo xtask lint` rule XT09 forbids any path from
//! `crates/postprocess` to a noise sampler.

use crate::quantize::Partition;
use crate::sanitize::PartitionRelease;
use stpt_data::ConsumptionMatrix;
use stpt_dp::BudgetAccountant;
use stpt_postprocess::{
    project_hierarchy, project_matrix, Hierarchy, PostProcessRecord, POSTPROCESS_STAGE,
};

/// A partition-structured release: the grouped noisy sums behind a
/// uniformly-respread matrix. When present, the consistency stage projects
/// the *sums* (the structure that actually carries the noise — each
/// partition holds one Laplace draw) instead of treating every cell
/// independently, then respreads each projected sum uniformly over its
/// partition's cells, preserving the within-partition uniformity of the
/// sanitisation step. The projection runs under a flat root constraint
/// ([`Hierarchy::flat`]): the partition sums are the only independently
/// measured quantities, so pinning derived tile subtotals would only
/// re-tax accurate partitions (measured on `fig_pp`, the two-level tile
/// hierarchy gave strictly worse MRE at every ε than the flat one).
#[derive(Debug, Clone)]
pub struct GroupedRelease {
    /// Flat cell indices of each partition.
    pub cells: Vec<Vec<usize>>,
    /// Released noisy sum of each partition.
    pub sums: Vec<f64>,
}

impl GroupedRelease {
    /// Capture the partition structure of a finished sanitisation step.
    pub fn from_partitions(partitions: &[Partition], releases: &[PartitionRelease]) -> Self {
        GroupedRelease {
            cells: partitions.iter().map(|p| p.cells.clone()).collect(),
            sums: releases.iter().map(|r| r.noisy_sum).collect(),
        }
    }
}

/// Project a sanitized release onto the consistency polytope in place,
/// recording the stage's ε-freeness proof on `accountant`.
///
/// A grouped release projects its partition sums under
/// [`Hierarchy::flat`] and respreads them uniformly over each partition's
/// cells; a dense release (`grouped = None`) projects cell-wise over the
/// grid hierarchy ([`project_matrix`]).
pub fn postprocess(
    accountant: &mut BudgetAccountant,
    data: &mut ConsumptionMatrix,
    grouped: Option<&GroupedRelease>,
) -> PostProcessRecord {
    let _pp_span = stpt_obs::phase_span!("postprocess");
    let token = accountant.begin_postprocess(POSTPROCESS_STAGE);
    let record = match grouped {
        Some(g) => {
            // Project the per-partition sums, then respread uniformly —
            // the noise lives in the sums.
            let h = Hierarchy::flat(g.sums.len());
            let mut sums = g.sums.clone();
            let record = project_hierarchy(&h, &mut sums);
            for (cells, &sum) in g.cells.iter().zip(&sums) {
                let per_cell = sum / cells.len() as f64;
                for &c in cells {
                    data.data_mut()[c] = per_cell;
                }
            }
            record
        }
        None => project_matrix(data),
    };
    accountant.end_postprocess(token);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use stpt_dp::Epsilon;

    fn noisy_matrix() -> ConsumptionMatrix {
        let mut m = ConsumptionMatrix::zeros(2, 2, 4);
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            *v = (i as f64) - 3.5;
        }
        m
    }

    #[test]
    fn dense_postprocess_is_nonnegative_with_record() {
        let mut acc = BudgetAccountant::new(Epsilon::new(10.0));
        let mut m = noisy_matrix();
        let rec = postprocess(&mut acc, &mut m, None);
        assert!(m.data().iter().all(|&v| v >= 0.0));
        assert_eq!(rec.epsilon.to_bits(), 0.0f64.to_bits());
        assert_eq!(rec.leaves, m.len());
        assert_eq!(acc.verify_postprocess().unwrap(), 1);
    }

    #[test]
    fn grouped_projection_respreads_uniformly() {
        // Two partitions: first half of the cells and second half; one sum
        // is negative.
        let mut data = noisy_matrix();
        let n = data.len();
        let cells: Vec<Vec<usize>> = vec![(0..n / 2).collect(), (n / 2..n).collect()];
        let sums = vec![-4.0, 12.0];
        for (cell_set, &sum) in cells.iter().zip(&sums) {
            for &cell in cell_set {
                data.data_mut()[cell] = sum / cell_set.len() as f64;
            }
        }
        let grouped = GroupedRelease { cells, sums };

        let mut acc = BudgetAccountant::new(Epsilon::new(5.0));
        postprocess(&mut acc, &mut data, Some(&grouped));
        assert_eq!(acc.verify_postprocess().unwrap(), 1);
        // The negative partition clamps to zero; the root target is the
        // clamped total (-4 + 12 = 8 raw, projected mass stays 8 on the
        // positive partition). Every cell in a partition shares one value.
        let data = data.data();
        let half = data.len() / 2;
        assert!(data[..half]
            .iter()
            .all(|&v| v.to_bits() == 0.0f64.to_bits()));
        let v = data[half];
        assert!(data[half..].iter().all(|&x| x.to_bits() == v.to_bits()));
        let total: f64 = data.iter().sum();
        assert!((total - 8.0).abs() < 1e-9);
    }
}
