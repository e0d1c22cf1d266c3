//! A small dense row-major `f64` matrix.
//!
//! The networks in this repository are small (widths ≤ 128, windows of 6
//! tokens), so the product kernels are plain safe Rust with no BLAS. They
//! are register-blocked: each holds a block of output cells in a stack-array
//! accumulator, which the compiler keeps in registers, while it streams the
//! shared operand once per block. Blocking only changes which output cells
//! are computed together. Every cell keeps the operations of a
//! one-accumulator loop: the same start value, ascending term order and
//! exact-zero skip. So results are bit-identical to the naive kernels
//! (`DESIGN.md` §9).

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// True iff `x` is exactly `±0.0` at the bit level — the intent-revealing
/// exact-zero test behind the sparsity fast paths: a multiply by a bitwise
/// zero contributes nothing, so the inner loop may be skipped without
/// changing the result (which a tolerance-based test would not guarantee).
#[inline]
fn is_exact_zero(x: f64) -> bool {
    x.to_bits() << 1 == 0
}

/// The single choke point for every panicking shape check in this module:
/// all operators funnel through here so the message format stays uniform.
#[track_caller]
#[inline]
fn assert_shape(ok: bool, op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) {
    assert!(ok, "{op} shape mismatch: {lhs:?} vs {rhs:?}");
}

/// Output columns an `A·B` or `Aᵀ·B` kernel holds in registers at once.
const COL_BLOCK: usize = 16;

/// Block epilogue that writes each cell's sum.
fn set(cell: &mut f64, sum: f64) {
    *cell = sum;
}

/// Block epilogue that adds each cell's sum with a single `+=`.
fn add(cell: &mut f64, sum: f64) {
    *cell += sum;
}

/// `W` sums `Σ_k c_k · b[k·n + col + j]`, `j < W`, over the coefficients
/// `c` (a row of `A` for `A·B`, a column of `A` for `Aᵀ·B`), skipping
/// exact-zero coefficients. Each lane starts at `+0.0` and adds its terms in
/// ascending `k`, exactly as a one-accumulator loop over that cell would.
#[inline(always)]
fn axpy_block<const W: usize>(
    coeffs: impl Iterator<Item = f64>,
    b: &[f64],
    n: usize,
    col: usize,
) -> [f64; W] {
    let mut acc = [0.0; W];
    for (k, c) in coeffs.enumerate() {
        if is_exact_zero(c) {
            continue;
        }
        for (ac, &bv) in acc.iter_mut().zip(&b[k * n + col..][..W]) {
            *ac += c * bv;
        }
    }
    acc
}

/// One output row of `A·B` or `Aᵀ·B`: `out[j] = Σ_k c_k · b[k, j]`, stored
/// through `finish`, [`COL_BLOCK`] columns per block and the remainder one
/// at a time.
fn axpy_row(
    coeffs: impl Iterator<Item = f64> + Clone,
    b: &Matrix,
    out: &mut [f64],
    finish: impl Fn(&mut f64, f64) + Copy,
) {
    let (blocks, tail) = out.as_chunks_mut::<COL_BLOCK>();
    let tail_col = blocks.len() * COL_BLOCK;
    for (jb, cells) in blocks.iter_mut().enumerate() {
        let sums = axpy_block::<COL_BLOCK>(coeffs.clone(), &b.data, b.cols, jb * COL_BLOCK);
        cells.iter_mut().zip(sums).for_each(|(o, s)| finish(o, s));
    }
    for (j, cell) in tail.iter_mut().enumerate() {
        let [sum] = axpy_block::<1>(coeffs.clone(), &b.data, b.cols, tail_col + j);
        finish(cell, sum);
    }
}

/// `I × R` dot products: rows `i0..i0 + I` of `a` with rows `j0..j0 + R` of
/// `b`, each summed from `+0.0` in ascending `k`. The `I·R` sums are
/// independent add chains, which the CPU overlaps where one serial chain
/// per cell would wait on every add, and each load of `a` or `b` feeds
/// several of them.
#[inline(always)]
fn dot_block<const I: usize, const R: usize>(
    a: &Matrix,
    i0: usize,
    b: &Matrix,
    j0: usize,
) -> [[f64; R]; I] {
    let k = a.cols;
    let arows: [&[f64]; I] = std::array::from_fn(|i| &a.data[(i0 + i) * k..][..k]);
    let brows: [&[f64]; R] = std::array::from_fn(|r| &b.data[(j0 + r) * k..][..k]);
    let mut acc = [[0.0; R]; I];
    for kk in 0..k {
        for (acc_i, arow) in acc.iter_mut().zip(&arows) {
            for (ac, brow) in acc_i.iter_mut().zip(&brows) {
                *ac += arow[kk] * brow[kk];
            }
        }
    }
    acc
}

/// Rows `i0..i0 + I` of `out = a · bᵀ`, stored through `finish`: `R` rows
/// of `b` per block and the remainder one at a time.
fn dot_rows<const I: usize, const R: usize>(
    a: &Matrix,
    i0: usize,
    b: &Matrix,
    out: &mut [f64],
    finish: impl Fn(&mut f64, f64) + Copy,
) {
    let n = b.rows;
    let full = n - n % R;
    for j0 in (0..full).step_by(R) {
        for (i, sums) in dot_block::<I, R>(a, i0, b, j0).iter().enumerate() {
            let cells = &mut out[(i0 + i) * n + j0..][..R];
            cells.iter_mut().zip(sums).for_each(|(o, &s)| finish(o, s));
        }
    }
    for j in full..n {
        for (i, &[s]) in dot_block::<I, 1>(a, i0, b, j).iter().enumerate() {
            finish(&mut out[(i0 + i) * n + j], s);
        }
    }
}

/// `out = a · bᵀ`, stored through `finish`: pairs of `a` rows against 4
/// rows of `b` at a time, and the last row of an odd-height `a` (so the
/// only row of a one-row `a`) against 8, so each block runs 8 add chains.
fn dot_all(a: &Matrix, b: &Matrix, out: &mut [f64], finish: impl Fn(&mut f64, f64) + Copy) {
    let pairs = a.rows - a.rows % 2;
    for i0 in (0..pairs).step_by(2) {
        dot_rows::<2, 4>(a, i0, b, out, finish);
    }
    if pairs < a.rows {
        dot_rows::<1, 8>(a, pairs, b, out, finish);
    }
}

/// Grow a per-timestep buffer list to at least `n` entries (never shrinks,
/// so repeated sequences through the same scratch recycle allocations).
pub(crate) fn grow_buffers(v: &mut Vec<Matrix>, n: usize) {
    if v.len() < n {
        v.resize_with(n, Matrix::default);
    }
}

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Matrix {
    /// Empty 0×0 matrix: the dormant state of a [`Workspace`] buffer before
    /// its first `resize`.
    ///
    /// [`Workspace`]: crate::workspace::Workspace
    fn default() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl Matrix {
    /// Zero matrix of shape `rows × cols`.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    #[must_use]
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    #[must_use]
    #[track_caller]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_shape(
            data.len() == rows * cols,
            "from_vec",
            (rows, cols),
            (1, data.len()),
        );
        Matrix { rows, cols, data }
    }

    /// Build from nested rows.
    #[must_use]
    #[track_caller]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_shape(row.len() == c, "from_rows", (r, c), (1, row.len()));
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Xavier/Glorot-uniform initialisation: `U(-a, a)` with
    /// `a = sqrt(6 / (fan_in + fan_out))`.
    #[must_use]
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let a = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-a..a)).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Underlying row-major data.
    #[inline]
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A view of row `r`.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape to `rows × cols`, reusing the existing allocation whenever it
    /// is large enough. A same-shape resize is a no-op (the only path hit in
    /// steady-state training); on a shape change the contents are zeroed.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        if self.rows == rows && self.cols == cols {
            return;
        }
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrite `self` with a copy of `src`, resizing as needed.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Overwrite row `r` of `self` with `src` (length must equal `cols`).
    #[track_caller]
    pub fn copy_row_from(&mut self, r: usize, src: &[f64]) {
        assert_shape(
            src.len() == self.cols,
            "copy_row_from",
            self.shape(),
            (1, src.len()),
        );
        self.row_mut(r).copy_from_slice(src);
    }

    /// Matrix product `self · other`.
    #[must_use]
    #[track_caller]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product written into `out` (resized as needed).
    #[track_caller]
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_shape(
            self.cols == other.rows,
            "matmul",
            self.shape(),
            other.shape(),
        );
        out.resize(self.rows, other.cols);
        for i in 0..self.rows {
            axpy_row(self.row(i).iter().copied(), other, out.row_mut(i), set);
        }
    }

    /// `self · otherᵀ` without materialising the transpose.
    #[must_use]
    #[track_caller]
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_transpose_into(other, &mut out);
        out
    }

    /// `self · otherᵀ` written into `out` (resized as needed).
    #[track_caller]
    pub fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_shape(
            self.cols == other.cols,
            "matmul_transpose",
            self.shape(),
            other.shape(),
        );
        out.resize(self.rows, other.rows);
        dot_all(self, other, &mut out.data, set);
    }

    /// `selfᵀ · other` without materialising the transpose.
    #[must_use]
    #[track_caller]
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_matmul_into(other, &mut out);
        out
    }

    /// `selfᵀ · other` written into `out` (resized as needed).
    #[track_caller]
    pub fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_shape(
            self.rows == other.rows,
            "transpose_matmul",
            self.shape(),
            other.shape(),
        );
        out.resize(self.cols, other.cols);
        for i in 0..self.cols {
            axpy_row(self.column(i), other, out.row_mut(i), set);
        }
    }

    /// Column `c`, top to bottom.
    fn column(&self, c: usize) -> impl Iterator<Item = f64> + Clone + '_ {
        self.data.iter().skip(c).step_by(self.cols).copied()
    }

    /// Transposed copy.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise combination with `f` written into `out` (resized as
    /// needed).
    #[track_caller]
    pub fn zip_with_into(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64, out: &mut Matrix) {
        assert_shape(
            self.shape() == other.shape(),
            "zip_with",
            self.shape(),
            other.shape(),
        );
        out.resize(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
    }

    /// In-place element-wise addition.
    #[track_caller]
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_shape(
            self.shape() == other.shape(),
            "add_assign",
            self.shape(),
            other.shape(),
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place fused `self += other * s`, without a temporary.
    #[track_caller]
    pub fn add_assign_scaled(&mut self, other: &Matrix, s: f64) {
        assert_shape(
            self.shape() == other.shape(),
            "add_assign_scaled",
            self.shape(),
            other.shape(),
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// In-place fused Hadamard accumulate `self += a ⊙ b`, without a
    /// temporary: one product and one add per cell.
    #[track_caller]
    pub fn add_assign_product(&mut self, a: &Matrix, b: &Matrix) {
        assert_shape(
            a.shape() == b.shape(),
            "add_assign_product",
            a.shape(),
            b.shape(),
        );
        assert_shape(
            self.shape() == a.shape(),
            "add_assign_product",
            self.shape(),
            a.shape(),
        );
        for ((o, &av), &bv) in self.data.iter_mut().zip(&a.data).zip(&b.data) {
            *o += av * bv;
        }
    }

    /// Fused gradient accumulate `self += aᵀ · b` without a temporary.
    ///
    /// Each output cell is summed into a local accumulator in the same
    /// order as [`Self::transpose_matmul_into`], then added to `self` with
    /// a single `+=`, so the result is bitwise identical to the
    /// temp-then-`add_assign` sequence it replaces.
    #[track_caller]
    pub fn add_transpose_matmul(&mut self, a: &Matrix, b: &Matrix) {
        assert_shape(
            a.rows == b.rows,
            "add_transpose_matmul",
            a.shape(),
            b.shape(),
        );
        assert_shape(
            self.shape() == (a.cols, b.cols),
            "add_transpose_matmul",
            self.shape(),
            (a.cols, b.cols),
        );
        if a.rows == 1 {
            // Outer product: self[i, :] += a[0, i] * b[0, :].
            for (i, &av) in a.data.iter().enumerate() {
                if is_exact_zero(av) {
                    continue;
                }
                let out_row = &mut self.data[i * b.cols..(i + 1) * b.cols];
                for (o, &bv) in out_row.iter_mut().zip(&b.data) {
                    *o += av * bv;
                }
            }
        } else {
            for i in 0..a.cols {
                axpy_row(a.column(i), b, self.row_mut(i), add);
            }
        }
    }

    /// Fused accumulate `self += a · bᵀ` without a temporary.
    ///
    /// Each output cell is a dot product accumulated in the same order as
    /// [`Self::matmul_transpose_into`], then added to `self` with a single
    /// `+=` — bitwise identical to the temp-then-`add_assign` sequence it
    /// replaces.
    #[track_caller]
    pub fn add_matmul_transpose(&mut self, a: &Matrix, b: &Matrix) {
        assert_shape(
            a.cols == b.cols,
            "add_matmul_transpose",
            a.shape(),
            b.shape(),
        );
        assert_shape(
            self.shape() == (a.rows, b.rows),
            "add_matmul_transpose",
            self.shape(),
            (a.rows, b.rows),
        );
        dot_all(a, b, &mut self.data, add);
    }

    /// Fused bias-gradient accumulate: `self += column sums of src`.
    ///
    /// Each column sum accumulates from zero in row order, then lands in
    /// `self` with a single `+=`.
    #[track_caller]
    pub fn add_sum_rows(&mut self, src: &Matrix) {
        assert_shape(
            self.rows == 1 && self.cols == src.cols,
            "add_sum_rows",
            self.shape(),
            src.shape(),
        );
        for (j, o) in self.data.iter_mut().enumerate() {
            let mut acc = 0.0;
            for r in 0..src.rows {
                acc += src.data[r * src.cols + j];
            }
            *o += acc;
        }
    }

    /// In-place broadcast bias add: `self[r] += bias` for every row.
    #[track_caller]
    pub fn add_row_assign(&mut self, bias: &Matrix) {
        assert_shape(
            bias.rows == 1 && bias.cols == self.cols,
            "add_row_assign",
            self.shape(),
            bias.shape(),
        );
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &b) in row.iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
    }

    /// Scalar multiple.
    #[must_use]
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Element-wise map.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut out = Matrix::default();
        self.map_into(f, &mut out);
        out
    }

    /// Element-wise map written into `out` (resized as needed).
    pub fn map_into(&self, f: impl Fn(f64) -> f64, out: &mut Matrix) {
        out.resize(self.rows, self.cols);
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// In-place element-wise map.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Fill with zeros (reuse allocation between training steps).
    pub fn zero_out(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Clip every element into `[-c, c]` (gradient clipping).
    pub fn clip_in_place(&mut self, c: f64) {
        for x in &mut self.data {
            *x = x.clamp(-c, c);
        }
    }

    /// Softmax over each row.
    #[must_use]
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_in_place();
        out
    }

    /// Numerically stable in-place softmax over each row.
    pub fn softmax_rows_in_place(&mut self) {
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_small_known_answer() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let mut i3 = Matrix::zeros(3, 3);
        for k in 0..3 {
            i3[(k, k)] = 1.0;
        }
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Matrix::xavier(4, 5, &mut rng);
        let b = Matrix::xavier(3, 5, &mut rng);
        let fast = a.matmul_transpose(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_matmul_agrees_with_explicit() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(6, 4, &mut rng);
        let b = Matrix::xavier(6, 3, &mut rng);
        let fast = a.transpose_matmul(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::xavier(3, 7, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn broadcast_bias_and_sum_rows_are_adjoint() {
        // add_sum_rows accumulates the gradient of add_row_assign wrt the
        // bias.
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut y = x.clone();
        y.add_row_assign(&Matrix::from_rows(&[vec![10.0, 20.0]]));
        assert_eq!(y, Matrix::from_rows(&[vec![11.0, 22.0], vec![13.0, 24.0]]));
        let mut grad = Matrix::zeros(1, 2);
        grad.add_sum_rows(&x);
        assert_eq!(grad, Matrix::from_rows(&[vec![4.0, 6.0]]));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let s = x.softmax_rows();
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(s[(r, 0)] < s[(r, 1)] && s[(r, 1)] < s[(r, 2)]);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let x = Matrix::from_rows(&[vec![1000.0, 1001.0]]);
        let s = x.softmax_rows();
        assert!(s.data().iter().all(|v| v.is_finite()));
        let y = Matrix::from_rows(&[vec![0.0, 1.0]]).softmax_rows();
        for (a, b) in s.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn xavier_within_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::xavier(10, 20, &mut rng);
        let a = (6.0 / 30.0f64).sqrt();
        assert!(m.data().iter().all(|&x| x.abs() <= a));
        // Not all zeros.
        assert!(m.norm() > 0.0);
    }

    #[test]
    fn clip_in_place_clamps() {
        let mut m = Matrix::from_rows(&[vec![-5.0, 0.5, 7.0]]);
        m.clip_in_place(1.0);
        assert_eq!(m, Matrix::from_rows(&[vec![-1.0, 0.5, 1.0]]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_kernels_match_allocating_ops() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::xavier(4, 5, &mut rng);
        let b = Matrix::xavier(5, 3, &mut rng);
        let c = Matrix::xavier(6, 5, &mut rng);
        let d = Matrix::xavier(4, 2, &mut rng);

        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        a.matmul_transpose_into(&c, &mut out);
        assert_eq!(out, a.matmul_transpose(&c));

        a.transpose_matmul_into(&d, &mut out);
        assert_eq!(out, a.transpose_matmul(&d));

        a.map_into(|x| x * 2.0 + 1.0, &mut out);
        assert_eq!(out, a.map(|x| x * 2.0 + 1.0));
    }

    #[test]
    fn into_kernels_reuse_stale_buffers_bitwise() {
        // An `_into` call must give the same answer whether `out` is fresh
        // or holds stale data of another shape.
        let mut rng = StdRng::seed_from_u64(8);
        let a = Matrix::xavier(3, 4, &mut rng);
        let b = Matrix::xavier(4, 6, &mut rng);
        let mut stale = Matrix::full(9, 2, 42.0);
        a.matmul_into(&b, &mut stale);
        assert_eq!(stale, a.matmul(&b));
    }

    #[test]
    fn resize_and_copy_semantics() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        // Same-shape resize keeps contents.
        m.resize(2, 2);
        assert_eq!(m, Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        // Shape change zeroes.
        m.resize(1, 3);
        assert_eq!(m, Matrix::zeros(1, 3));

        let src = Matrix::from_rows(&[vec![5.0, 6.0]]);
        m.copy_from(&src);
        assert_eq!(m, src);
        m.copy_row_from(0, &[7.0, 8.0]);
        assert_eq!(m, Matrix::from_rows(&[vec![7.0, 8.0]]));
    }

    #[test]
    fn add_assign_scaled_and_row_assign() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let g = Matrix::from_rows(&[vec![10.0, 10.0], vec![10.0, 10.0]]);
        m.add_assign_scaled(&g, 0.5);
        assert_eq!(m, Matrix::from_rows(&[vec![6.0, 7.0], vec![8.0, 9.0]]));
        let bias = Matrix::from_rows(&[vec![1.0, -1.0]]);
        m.add_row_assign(&bias);
        assert_eq!(m, Matrix::from_rows(&[vec![7.0, 6.0], vec![9.0, 8.0]]));
    }

    #[test]
    fn softmax_in_place_matches_allocating() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let mut y = x.clone();
        y.softmax_rows_in_place();
        assert_eq!(y, x.softmax_rows());
    }

    /// The fused gradient-accumulate kernels must be *bitwise* identical to
    /// the temp-then-`add_assign` sequences they replaced — that is the
    /// whole determinism argument for using them in the backward passes.
    #[test]
    fn fused_accumulates_match_temp_then_add_bitwise() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(m, k, n) in &[(1usize, 3usize, 4usize), (5, 3, 4), (2, 7, 1)] {
            let a = Matrix::xavier(k, m, &mut rng);
            let b = Matrix::xavier(k, n, &mut rng);
            let acc0 = Matrix::xavier(m, n, &mut rng);

            // self += aᵀ·b
            let mut tmp = Matrix::default();
            a.transpose_matmul_into(&b, &mut tmp);
            let mut want = acc0.clone();
            want.add_assign(&tmp);
            let mut got = acc0.clone();
            got.add_transpose_matmul(&a, &b);
            assert_eq!(got, want, "add_transpose_matmul {m}x{k}x{n}");

            // self += a·bᵀ  (operands reshaped: a is m×k, b is n×k)
            let a2 = Matrix::xavier(m, k, &mut rng);
            let b2 = Matrix::xavier(n, k, &mut rng);
            a2.matmul_transpose_into(&b2, &mut tmp);
            let mut want = acc0.clone();
            want.add_assign(&tmp);
            let mut got = acc0.clone();
            got.add_matmul_transpose(&a2, &b2);
            assert_eq!(got, want, "add_matmul_transpose {m}x{k}x{n}");
        }
    }

    #[test]
    fn fused_sum_rows_and_product_match_temp_then_add_bitwise() {
        let mut rng = StdRng::seed_from_u64(43);
        let src = Matrix::xavier(6, 4, &mut rng);
        let acc0 = Matrix::xavier(1, 4, &mut rng);
        // 1·x is exact, so a row of ones times `src` sums each column from
        // zero in row order.
        let mut tmp = Matrix::full(1, 6, 1.0).matmul(&src);
        let mut want = acc0.clone();
        want.add_assign(&tmp);
        let mut got = acc0.clone();
        got.add_sum_rows(&src);
        assert_eq!(got, want);

        let a = Matrix::xavier(3, 4, &mut rng);
        let b = Matrix::xavier(3, 4, &mut rng);
        let acc0 = Matrix::xavier(3, 4, &mut rng);
        a.zip_with_into(&b, |x, y| x * y, &mut tmp);
        let mut want = acc0.clone();
        want.add_assign(&tmp);
        let mut got = acc0.clone();
        got.add_assign_product(&a, &b);
        assert_eq!(got, want);
    }

    #[test]
    fn fused_accumulate_with_exact_zero_rows_matches() {
        // a containing exact zeros exercises the skip path of
        // add_transpose_matmul in both the outer-product and generic
        // branches.
        let mut rng = StdRng::seed_from_u64(44);
        for rows in [1usize, 3] {
            let mut a = Matrix::xavier(rows, 3, &mut rng);
            a.data_mut()[0] = 0.0;
            a.data_mut()[2] = 0.0;
            let b = Matrix::xavier(rows, 2, &mut rng);
            let acc0 = Matrix::xavier(3, 2, &mut rng);
            let mut tmp = Matrix::default();
            a.transpose_matmul_into(&b, &mut tmp);
            let mut want = acc0.clone();
            want.add_assign(&tmp);
            let mut got = acc0.clone();
            got.add_transpose_matmul(&a, &b);
            assert_eq!(got, want, "rows={rows}");
        }
    }

    #[test]
    #[should_panic(expected = "add_transpose_matmul")]
    fn fused_accumulate_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let mut out = Matrix::zeros(3, 5); // should be 3x4
        out.add_transpose_matmul(&a, &b);
    }

    /// `rows × cols` Xavier entries with an exact `±0.0` at every fifth.
    fn with_zeros(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::xavier(rows, cols, rng);
        for (i, x) in m.data.iter_mut().enumerate().step_by(5) {
            *x = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        m
    }

    /// `rows × cols` matrix holding `cell(i, j)` at `(i, j)`.
    fn build(rows: usize, cols: usize, cell: impl Fn(usize, usize) -> f64) -> Matrix {
        let data = (0..rows * cols).map(|c| cell(c / cols, c % cols));
        Matrix::from_vec(rows, cols, data.collect())
    }

    /// The one-accumulator reference for one output cell: start at `+0.0`
    /// and add `a·b` for each term in order, skipping the term when `a` is
    /// exactly `±0.0` and `skip_zero` is set.
    fn one_accumulator(terms: impl Iterator<Item = (f64, f64)>, skip_zero: bool) -> f64 {
        let mut acc = 0.0;
        for (a, b) in terms {
            if !(skip_zero && is_exact_zero(a)) {
                acc += a * b;
            }
        }
        acc
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data.iter().map(|x| x.to_bits()).collect()
    }

    /// Every blocked product kernel against the one-accumulator reference,
    /// bit for bit: output widths on and around the block sizes, `A` at
    /// one, three and six rows (the `A·Bᵀ` kernels pair rows of `A`), k = 0,
    /// exact `±0.0` entries in `A`, and the
    /// accumulate kernels onto a non-zero destination. The skipping kernels
    /// also meet an infinite row of `B` behind an all-zero slice of `A`,
    /// which gives NaN unless the zero terms are skipped.
    #[test]
    fn blocked_kernels_match_one_accumulator_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(45);
        for n in [1usize, 7, 8, 9, 15, 16, 17, 64, 65, 128] {
            for m in [1usize, 3, 6] {
                for k in [0usize, 1, 6, 33] {
                    let tag = format!("m={m} k={k} n={n}");
                    let dst = Matrix::xavier(m, n, &mut rng);
                    let mut b = Matrix::xavier(k, n, &mut rng);
                    if k > 0 {
                        b.row_mut(0).fill(f64::INFINITY);
                    }

                    // A·B: A is m×k with its column 0 zero.
                    let mut a = with_zeros(m, k, &mut rng);
                    if k > 0 {
                        (0..m).for_each(|i| a[(i, 0)] = -0.0);
                    }
                    let want = build(m, n, |i, j| {
                        one_accumulator((0..k).map(|kk| (a[(i, kk)], b[(kk, j)])), true)
                    });
                    let mut out = Matrix::full(m, n, 42.0);
                    a.matmul_into(&b, &mut out);
                    assert_eq!(bits(&out), bits(&want), "matmul {tag}");

                    // Aᵀ·B and its fused accumulate: A is k×m with row 0
                    // zero; k = 1 takes the outer-product path.
                    let mut at = with_zeros(k, m, &mut rng);
                    if k > 0 {
                        at.row_mut(0).fill(0.0);
                    }
                    let want = build(m, n, |i, j| {
                        one_accumulator((0..k).map(|kk| (at[(kk, i)], b[(kk, j)])), true)
                    });
                    let mut out = Matrix::full(m, n, 42.0);
                    at.transpose_matmul_into(&b, &mut out);
                    assert_eq!(bits(&out), bits(&want), "transpose_matmul {tag}");
                    let mut got = dst.clone();
                    got.add_transpose_matmul(&at, &b);
                    let want = build(m, n, |i, j| dst[(i, j)] + want[(i, j)]);
                    assert_eq!(bits(&got), bits(&want), "add_transpose_matmul {tag}");

                    // A·Bᵀ and its fused accumulate: B is n×k, no skip.
                    let bt = Matrix::xavier(n, k, &mut rng);
                    let want = build(m, n, |i, j| {
                        one_accumulator((0..k).map(|kk| (a[(i, kk)], bt[(j, kk)])), false)
                    });
                    let mut out = Matrix::full(m, n, 42.0);
                    a.matmul_transpose_into(&bt, &mut out);
                    assert_eq!(bits(&out), bits(&want), "matmul_transpose {tag}");
                    let mut got = dst.clone();
                    got.add_matmul_transpose(&a, &bt);
                    let want = build(m, n, |i, j| dst[(i, j)] + want[(i, j)]);
                    assert_eq!(bits(&got), bits(&want), "add_matmul_transpose {tag}");
                }
            }
        }
    }
}
