//! Rooted aggregation hierarchies over a flat slice of release values.
//!
//! A [`Hierarchy`] describes which sums of a release are supposed to agree:
//! every internal node's value is the sum of its children, and the leaves
//! are indices into the released value slice. Two builders cover the
//! release shapes in this repository:
//!
//! * [`Hierarchy::flat`] — partitioned releases (STPT): one leaf per
//!   partition sum, all directly under a single root. The partition sums
//!   `sanitize_partitions` releases are the only independently measured
//!   quantities, so no interior subtotal is constrained.
//! * [`Hierarchy::grid`] — dense cell releases (the comparison baselines):
//!   cells under their pillar, pillars under 2×2 spatial blocks coarsening
//!   quadtree-style up to a single root.
//!
//! Node ids are assigned children-before-parents (the root is always the
//! last node), which is the traversal order [`crate::project_hierarchy`]
//! relies on.

/// A rooted tree whose leaves index into a slice of release values.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// `children[n]` lists the child node ids of node `n` (empty for
    /// leaves). Child ids are always smaller than their parent's id.
    children: Vec<Vec<usize>>,
    /// `leaf_of[n]` is the value index held by leaf node `n`.
    leaf_of: Vec<Option<usize>>,
    /// Number of leaves (= length of the value slice the tree projects).
    n_leaves: usize,
}

impl Hierarchy {
    /// Flat hierarchy: every leaf directly under the root. The binding
    /// constraints are non-negativity and root-total preservation only —
    /// the right shape when the leaves are the *only* independently
    /// measured quantities and every interior sum would be derived from
    /// them (constraining a release to its own derived subtotals cannot
    /// add information, it can only re-tax accurate leaves).
    pub fn flat(n_leaves: usize) -> Hierarchy {
        assert!(n_leaves > 0, "hierarchy needs at least one leaf");
        let mut children: Vec<Vec<usize>> = Vec::with_capacity(n_leaves + 1);
        let mut leaf_of: Vec<Option<usize>> = Vec::with_capacity(n_leaves + 1);
        for i in 0..n_leaves {
            children.push(Vec::new());
            leaf_of.push(Some(i));
        }
        children.push((0..n_leaves).collect());
        leaf_of.push(None);
        Hierarchy {
            children,
            leaf_of,
            n_leaves,
        }
    }

    /// Dense-grid hierarchy for a `cx × cy × ct` release in the flat
    /// `(x·cy + y)·ct + t` layout of `ConsumptionMatrix`: cells under their
    /// pillar, pillars under 2×2 spatial blocks, blocks coarsening by
    /// factor two per level until a single root covers the grid. Works for
    /// any grid side (blocks at the boundary simply hold fewer children).
    pub fn grid(cx: usize, cy: usize, ct: usize) -> Hierarchy {
        assert!(
            cx > 0 && cy > 0 && ct > 0,
            "grid dimensions must be positive"
        );
        let n_leaves = cx * cy * ct;
        let mut children: Vec<Vec<usize>> = Vec::with_capacity(2 * n_leaves);
        let mut leaf_of: Vec<Option<usize>> = Vec::with_capacity(2 * n_leaves);

        // Cells (leaves), then their pillar nodes.
        let mut level: Vec<usize> = Vec::with_capacity(cx * cy);
        for x in 0..cx {
            for y in 0..cy {
                let mut kids = Vec::with_capacity(ct);
                for t in 0..ct {
                    children.push(Vec::new());
                    leaf_of.push(Some((x * cy + y) * ct + t));
                    kids.push(children.len() - 1);
                }
                children.push(kids);
                leaf_of.push(None);
                level.push(children.len() - 1);
            }
        }
        // Spatial coarsening: 2×2 blocks per level until one block remains.
        // `level` is row-major (x · height + y) at every step.
        let (mut w, mut h) = (cx, cy);
        while w > 1 || h > 1 {
            let nw = w.div_ceil(2);
            let nh = h.div_ceil(2);
            let mut next = Vec::with_capacity(nw * nh);
            for bx in 0..nw {
                for by in 0..nh {
                    let mut kids = Vec::with_capacity(4);
                    for dx in 0..2 {
                        for dy in 0..2 {
                            let (x, y) = (bx * 2 + dx, by * 2 + dy);
                            if x < w && y < h {
                                kids.push(level[x * h + y]);
                            }
                        }
                    }
                    children.push(kids);
                    leaf_of.push(None);
                    next.push(children.len() - 1);
                }
            }
            level = next;
            w = nw;
            h = nh;
        }
        Hierarchy {
            children,
            leaf_of,
            n_leaves,
        }
    }

    /// Number of leaves; the projected value slice must have this length.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Total node count (leaves + internal nodes).
    pub fn n_nodes(&self) -> usize {
        self.children.len()
    }

    /// The root node id (always the last node).
    pub fn root(&self) -> usize {
        self.children.len() - 1
    }

    /// Child ids of `node`.
    pub fn children_of(&self, node: usize) -> &[usize] {
        &self.children[node]
    }

    /// Value index held by `node`, if it is a leaf.
    pub fn leaf_index(&self, node: usize) -> Option<usize> {
        self.leaf_of[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth_of_leaves(h: &Hierarchy) -> Vec<usize> {
        // BFS from the root; children-before-parents ids make this easy.
        let mut depth = vec![usize::MAX; h.n_nodes()];
        depth[h.root()] = 0;
        for node in (0..h.n_nodes()).rev() {
            if depth[node] == usize::MAX {
                continue;
            }
            for &c in h.children_of(node) {
                depth[c] = depth[node] + 1;
            }
        }
        (0..h.n_nodes())
            .filter(|&n| h.leaf_index(n).is_some())
            .map(|n| depth[n])
            .collect()
    }

    #[test]
    fn grid_covers_all_cells_once() {
        let h = Hierarchy::grid(3, 2, 4);
        assert_eq!(h.n_leaves(), 24);
        let mut seen = [0usize; 24];
        for n in 0..h.n_nodes() {
            if let Some(i) = h.leaf_index(n) {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // Children always precede parents.
        for n in 0..h.n_nodes() {
            for &c in h.children_of(n) {
                assert!(c < n, "child {c} not before parent {n}");
            }
        }
        // Uniform leaf depth (the error-contraction proof assumes it).
        let depths = depth_of_leaves(&h);
        assert!(depths.windows(2).all(|w| w[0] == w[1]), "{depths:?}");
    }

    #[test]
    fn grid_handles_single_pillar() {
        let h = Hierarchy::grid(1, 1, 3);
        assert_eq!(h.n_leaves(), 3);
        // Root is the pillar itself: 3 leaves + pillar.
        assert_eq!(h.n_nodes(), 4);
        assert_eq!(h.children_of(h.root()).len(), 3);
    }

    #[test]
    fn grid_handles_non_power_of_two_sides() {
        let h = Hierarchy::grid(5, 3, 2);
        assert_eq!(h.n_leaves(), 30);
        let depths = depth_of_leaves(&h);
        assert!(depths.windows(2).all(|w| w[0] == w[1]), "{depths:?}");
    }
}
