//! Projection of a noisy release onto the consistency polytope.
//!
//! The polytope is the set of value vectors that are (a) non-negative and
//! (b) hierarchically sum-consistent: for every internal node of a
//! [`Hierarchy`], the node's implied value equals the sum of its children.
//! The true consumption matrix always lies in this set, so projecting a
//! sanitized release toward it is pure noise removal.
//!
//! # Algorithm
//!
//! Constrained least squares in two sweeps over the tree:
//!
//! 1. **Bottom-up** (increasing node id — children precede parents):
//!    compute each node's raw subtree sum `s[n]` from the noisy leaves.
//! 2. **Top-down** (decreasing node id): assign each node a non-negative
//!    target mass. The root keeps its clamped raw sum. An internal node
//!    with target `t` splits `t` across its children by **water-filling**:
//!    the exact Euclidean projection of the clamped child sums onto the
//!    simplex slab `{x ≥ 0, Σx = t}`, i.e. `x_c = max(w_c − τ, 0)` for the
//!    unique `τ ≥ 0` that restores the total. A leaf's target is its
//!    final value.
//!
//! Water-filling (rather than proportional rescaling) matters for utility:
//! clamping negative noise adds surplus mass, and a proportional split
//! removes that surplus as a *multiplicative* tax on every sibling — large,
//! accurately-measured partitions pay the most, which shows up directly as
//! relative query error. The Euclidean projection instead subtracts a
//! *uniform* level `τ`: partitions whose mass is dominated by noise are
//! flattened to zero while large partitions lose only `τ` each — a
//! vanishing relative perturbation. Measured on the STPT release
//! (`fig_pp`), proportional rescaling made post-processed MRE *worse* than
//! raw at moderate ε; water-filling improves it at every ε.
//!
//! # Guarantees
//!
//! * **ε-free**: the routine reads only the released values — no data
//!   access, no randomness, no budget. (Enforced structurally by xtask
//!   rule XT09 and at runtime by the accountant's `PostProcessProof`.)
//! * **Feasible**: outputs are non-negative and children sum to their
//!   parent's value exactly up to float summation error.
//! * **Idempotent, bitwise**: a second projection reproduces the first
//!   bit for bit. When a node's children already sum (bit-exactly) to its
//!   target, the rescale is skipped and the children keep their clamped
//!   values, so re-running the sweeps is the identity.
//! * **Error contraction (L1)**: for non-negative truth `U` with uniform
//!   leaf depth, the total absolute leaf error never increases. Sketch:
//!   at a node with raw sum `s`, target `t = max(s, 0)` and children raw
//!   sums `s_j`, the water-filled targets `T_j` satisfy
//!   `Σ_j |T_j − U_j| ≤ Σ_j |s_j − U_j| + (s − t)` — the argument needs
//!   only `Σ_j T_j = t`, `T_j ≥ 0` and `T_j ≤ max(s_j, 0)` (with `τ ≥ 0`
//!   each positive child only moves down), all of which water-filling
//!   provides. The deficits `s_n − t_n` are conserved level by level
//!   (children's deficits sum to the parent's), so every level's total
//!   correction is bounded by the root deficit `≤ 0`; telescoping down to
//!   the leaves gives `‖T − U‖₁ ≤ ‖noisy − U‖₁`. L2 and relative error
//!   can individually worsen on adversarial inputs, which is why the
//!   regression claim and the property tests below assert the
//!   aggregate-absolute form.

use crate::hierarchy::Hierarchy;
use serde::Serialize;

/// Evidence record for one projection, attached to the release and to the
/// audit trail. `epsilon` is definitionally zero (post-processing theorem);
/// it is carried explicitly so the envelope and the ledger can assert it.
#[derive(Debug, Clone, Serialize)]
pub struct PostProcessRecord {
    /// Budget spent by the stage. Always `0.0`; the accountant's
    /// `PostProcessProof` fails the audit closed if any spend lands while
    /// the stage is open.
    pub epsilon: f64,
    /// Number of leaf values projected.
    pub leaves: usize,
    /// Number of negative node sums clamped to zero across both sweeps.
    pub clamped: usize,
    /// Total absolute change applied to the leaves, `Σ |after − before|`.
    pub moved_l1: f64,
}

fn clamp_nonneg(v: f64) -> f64 {
    // Branch (rather than `f64::max`) so that -0.0 normalizes to +0.0 and
    // NaN never propagates a sign; bitwise idempotence relies on this.
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// The water-filling level for projecting non-negative masses `w` onto the
/// simplex slab `{x ≥ 0, Σx = t}`: the unique `τ ≥ 0` with
/// `Σ max(w_c − τ, 0) = t`, for `0 < t ≤ Σw`. Standard simplex-projection
/// pivot search over the descending prefix sums (O(k log k) in the child
/// count); `w` is consumed as scratch space.
fn waterfill_level(mut w: Vec<f64>, t: f64) -> f64 {
    w.sort_unstable_by(|a, b| b.total_cmp(a));
    let mut prefix = 0.0f64;
    let mut tau = 0.0f64;
    for (j, &wj) in w.iter().enumerate() {
        prefix += wj;
        let cand = (prefix - t) / (j + 1) as f64;
        if wj > cand {
            tau = cand;
        } else {
            // The pivot condition is monotone: once a value sits at or
            // below the candidate level, so does every smaller one.
            break;
        }
    }
    clamp_nonneg(tau)
}

/// Project `values` onto the consistency polytope of `h`, in place.
///
/// `values.len()` must equal `h.n_leaves()`. Returns the evidence record
/// for the stage. See the module docs for the algorithm and guarantees.
pub fn project_hierarchy(h: &Hierarchy, values: &mut [f64]) -> PostProcessRecord {
    assert_eq!(
        values.len(),
        h.n_leaves(),
        "value slice does not match hierarchy leaves"
    );
    let n = h.n_nodes();
    let mut clamped = 0usize;

    // Sweep 1: raw subtree sums, children before parents.
    let mut sum = vec![0.0f64; n];
    for node in 0..n {
        match h.leaf_index(node) {
            Some(i) => sum[node] = values[i],
            None => {
                let mut acc = 0.0;
                for &c in h.children_of(node) {
                    acc += sum[c];
                }
                sum[node] = acc;
            }
        }
    }

    // Sweep 2: non-negative targets, parents before children.
    let mut target = vec![0.0f64; n];
    let root = h.root();
    target[root] = clamp_nonneg(sum[root]);
    if sum[root] < 0.0 || sum[root].is_nan() {
        clamped += 1;
    }
    let mut moved_l1 = 0.0f64;
    for node in (0..n).rev() {
        let kids = h.children_of(node);
        if kids.is_empty() {
            // xtask-allow(XT04): Hierarchy construction guarantees every childless node carries a leaf index
            let i = h.leaf_index(node).expect("childless node is a leaf");
            moved_l1 += (target[node] - values[i]).abs();
            values[i] = target[node];
            continue;
        }
        let t = target[node];
        let mut total = 0.0f64;
        for &c in kids {
            if sum[c] < 0.0 || sum[c].is_nan() {
                clamped += 1;
            }
            total += clamp_nonneg(sum[c]);
        }
        if total.to_bits() == t.to_bits() {
            // Children already carry the target mass exactly: keep their
            // clamped sums so a repeat projection reproduces every bit.
            // (This is what makes the whole sweep bitwise idempotent: on a
            // second pass every node's target IS its recomputed raw sum.)
            for &c in kids {
                target[c] = clamp_nonneg(sum[c]);
            }
        } else if t > 0.0 {
            let w: Vec<f64> = kids.iter().map(|&c| clamp_nonneg(sum[c])).collect();
            let tau = waterfill_level(w, t);
            for &c in kids {
                target[c] = clamp_nonneg(clamp_nonneg(sum[c]) - tau);
            }
        } else {
            // Target mass is zero: every child flattens to zero.
            for &c in kids {
                target[c] = 0.0;
            }
        }
    }

    PostProcessRecord {
        epsilon: 0.0,
        leaves: values.len(),
        clamped,
        moved_l1,
    }
}

/// Project a dense consumption matrix onto the grid-hierarchy polytope of
/// its own shape (cells → pillars → 2×2 spatial blocks → root), in place.
pub fn project_matrix(m: &mut stpt_data::ConsumptionMatrix) -> PostProcessRecord {
    let (cx, cy, ct) = m.shape();
    let h = Hierarchy::grid(cx, cy, ct);
    project_hierarchy(&h, m.data_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn node_values(h: &Hierarchy, values: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; h.n_nodes()];
        for node in 0..h.n_nodes() {
            v[node] = match h.leaf_index(node) {
                Some(i) => values[i],
                None => h.children_of(node).iter().map(|&c| v[c]).sum(),
            };
        }
        v
    }

    fn assert_consistent(h: &Hierarchy, values: &[f64]) {
        let v = node_values(h, values);
        for node in 0..h.n_nodes() {
            let kids = h.children_of(node);
            if kids.is_empty() {
                continue;
            }
            let child_sum: f64 = kids.iter().map(|&c| v[c]).sum();
            let tol = 1e-9 * v[node].abs().max(1.0);
            assert!(
                (child_sum - v[node]).abs() <= tol,
                "node {node}: children sum {child_sum} vs {}",
                v[node]
            );
        }
    }

    #[test]
    fn negative_values_are_clamped_and_consistent() {
        let h = Hierarchy::flat(4);
        let mut v = [-2.0, 5.0, 1.0, -0.5];
        let rec = project_hierarchy(&h, &mut v);
        assert!(v.iter().all(|&x| x >= 0.0));
        assert_consistent(&h, &v);
        assert!(rec.clamped > 0);
        assert!(rec.moved_l1 > 0.0);
        assert!(rec.epsilon.to_bits() == 0.0f64.to_bits());
    }

    #[test]
    fn already_feasible_input_is_untouched() {
        let h = Hierarchy::flat(3);
        let mut v = [1.5, 2.0, 0.25];
        let before = v;
        let rec = project_hierarchy(&h, &mut v);
        for (a, b) in v.iter().zip(before.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(rec.clamped, 0);
        assert!(rec.moved_l1.to_bits() == 0.0f64.to_bits());
    }

    #[test]
    fn waterfilling_taxes_uniformly_not_proportionally() {
        // Clamping -6 to 0 leaves a surplus of 6 over the raw total 104.
        // Water-filling subtracts a uniform τ = 3 from the positive leaves
        // (the 100 keeps 97, the 10 keeps 7); a proportional split would
        // instead have taxed the large leaf by ~5.5.
        let h = Hierarchy::flat(3);
        let mut v = [100.0, 10.0, -6.0];
        let rec = project_hierarchy(&h, &mut v);
        assert!((v[0] - 97.0).abs() < 1e-9, "{v:?}");
        assert!((v[1] - 7.0).abs() < 1e-9, "{v:?}");
        assert_eq!(v[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(rec.clamped, 1);
        // Total is preserved at the raw (unbiased) mass.
        assert!((v.iter().sum::<f64>() - 104.0).abs() < 1e-9);
    }

    #[test]
    fn waterfilling_flattens_noise_dominated_leaves() {
        // A surplus large enough that τ exceeds the small leaves entirely:
        // raw total 90, clamped total 130; τ = 20 zeroes both 10s and the
        // big leaf carries the rest.
        let h = Hierarchy::flat(4);
        let mut v = [110.0, 10.0, 10.0, -40.0];
        project_hierarchy(&h, &mut v);
        assert!((v[0] - 90.0).abs() < 1e-9, "{v:?}");
        assert_eq!(v[1].to_bits(), 0.0f64.to_bits());
        assert_eq!(v[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(v[3].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn all_negative_release_projects_to_zero() {
        let h = Hierarchy::grid(2, 2, 2);
        let mut v = vec![-1.0; 8];
        project_hierarchy(&h, &mut v);
        assert!(v.iter().all(|&x| x.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn matrix_projection_matches_hierarchy_projection() {
        let mut m = stpt_data::ConsumptionMatrix::zeros(2, 2, 3);
        let mut flat = Vec::new();
        for (i, cell) in m.data_mut().iter_mut().enumerate() {
            *cell = (i as f64) - 4.0;
            flat.push(*cell);
        }
        let h = Hierarchy::grid(2, 2, 3);
        project_hierarchy(&h, &mut flat);
        project_matrix(&mut m);
        for (a, b) in m.data().iter().zip(flat.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A random uniform-depth hierarchy — a multi-level grid tree with
    /// variable fan-out, or the flat root-only partition shape. Uniform
    /// leaf depth holds by construction for both, which the L1-contraction
    /// property needs.
    fn arb_hierarchy() -> impl Strategy<Value = Hierarchy> {
        (any::<bool>(), 1usize..4, 1usize..4, 1usize..5, 1usize..24).prop_map(
            |(grid, x, y, t, leaves)| {
                if grid {
                    Hierarchy::grid(x, y, t)
                } else {
                    Hierarchy::flat(leaves)
                }
            },
        )
    }

    proptest! {
        #[test]
        fn projection_is_bitwise_idempotent(
            h in arb_hierarchy(),
            seed in proptest::collection::vec(-50.0f64..50.0, 64),
        ) {
            let mut v: Vec<f64> = (0..h.n_leaves())
                .map(|i| seed[i % seed.len()])
                .collect();
            project_hierarchy(&h, &mut v);
            let once = v.clone();
            project_hierarchy(&h, &mut v);
            for (a, b) in v.iter().zip(once.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn projection_is_nonnegative_and_consistent(
            h in arb_hierarchy(),
            seed in proptest::collection::vec(-50.0f64..50.0, 64),
        ) {
            let mut v: Vec<f64> = (0..h.n_leaves())
                .map(|i| seed[i % seed.len()])
                .collect();
            project_hierarchy(&h, &mut v);
            prop_assert!(v.iter().all(|&x| x >= 0.0));
            assert_consistent(&h, &v);
        }

        #[test]
        fn projection_never_worsens_l1_error(
            h in arb_hierarchy(),
            noise in proptest::collection::vec(-20.0f64..20.0, 64),
            truth_seed in proptest::collection::vec(0.0f64..40.0, 64),
        ) {
            // Truth is any non-negative vector (it lies in the polytope);
            // noisy = truth + noise. The projection may not increase the
            // total absolute error against the truth.
            let truth: Vec<f64> = (0..h.n_leaves())
                .map(|i| truth_seed[i % truth_seed.len()])
                .collect();
            let mut v: Vec<f64> = truth
                .iter()
                .enumerate()
                .map(|(i, &u)| u + noise[i % noise.len()])
                .collect();
            let before: f64 = v.iter().zip(truth.iter()).map(|(a, u)| (a - u).abs()).sum();
            project_hierarchy(&h, &mut v);
            let after: f64 = v.iter().zip(truth.iter()).map(|(a, u)| (a - u).abs()).sum();
            prop_assert!(
                after <= before + 1e-9 * before.max(1.0),
                "L1 error grew: {} -> {}", before, after
            );
        }
    }
}
