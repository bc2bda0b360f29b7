//! Dense row-major `f32` matrix with the raw numeric kernels used by the
//! autograd tape.
//!
//! Everything in the IntelliTag reproduction is 2-dimensional: a vector is a
//! `1 x n` (row) or `n x 1` (column) matrix, and a batch of `n` embeddings of
//! width `d` is an `n x d` matrix. Keeping a single concrete shape keeps the
//! backward rules simple and auditable.

use rand::Rng;

/// A dense row-major matrix of `f32` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a `1 x n` row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let cols = data.len();
        Matrix::from_vec(1, cols, data)
    }

    /// Creates an identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Samples each entry uniformly from `[-limit, limit]`.
    pub fn uniform<R: Rng>(rows: usize, cols: usize, limit: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-limit..=limit)).collect();
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot uniform initialization for a `fan_in x fan_out` weight.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::uniform(rows, cols, limit, rng)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major backing storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sets all entries to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `self += other`, in place.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// `self += scale * other`, in place (axpy).
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * *b;
        }
    }

    /// Elementwise sum, returning a new matrix.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise difference, returning a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise (Hadamard) product, returning a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Multiplies every entry by a scalar, returning a new matrix.
    pub fn scaled(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|v| v * s).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Matrix product `self * other`.
    ///
    /// Delegates to the packed microkernel engine ([`crate::kernel::gemm`],
    /// NN variant): both operands are repacked into cache-resident panels
    /// and multiplied in 8x8 register tiles. Every output element is one
    /// continuous ascending-k accumulation. Mostly-zero `self` operands
    /// (stacked masked attention probabilities) route to a zero-skipping
    /// kernel with the same accumulation order.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = vec![0.0f32; self.rows * other.cols];
        crate::kernel::gemm(
            crate::kernel::Variant::NN,
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out,
        );
        Matrix { rows: self.rows, cols: other.cols, data: out }
    }

    /// Matrix product `self^T * other` without materializing the transpose.
    ///
    /// Same packed engine as [`Matrix::matmul`] (TN variant): the transpose
    /// is absorbed into the A-panel packing order, after which the identical
    /// micro-kernel runs.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let mut out = vec![0.0f32; self.cols * other.cols];
        crate::kernel::gemm(
            crate::kernel::Variant::TN,
            self.cols,
            self.rows,
            other.cols,
            &self.data,
            &other.data,
            &mut out,
        );
        Matrix { rows: self.cols, cols: other.cols, data: out }
    }

    /// Matrix product `self * other^T` without materializing the transpose
    /// (the attention `Q·Kᵀ` shape).
    ///
    /// Same packed engine as [`Matrix::matmul`] (NT variant): the transpose
    /// is absorbed into the B-panel packing order — rows of `other` pack as
    /// logical columns — and the identical micro-kernel runs.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let mut out = vec![0.0f32; self.rows * other.rows];
        crate::kernel::gemm(
            crate::kernel::Variant::NT,
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &other.data,
            &mut out,
        );
        Matrix { rows: self.rows, cols: other.rows, data: out }
    }

    /// Transposed copy.
    ///
    /// Works in 32x32 blocks so both the read and the write side stay within
    /// a few cache lines per tile; the naive row-major read / column-stride
    /// write walk touches `rows` distinct cache lines per input row and
    /// thrashes on large matrices. A parity test pins this against the naive
    /// walk (pure element moves — no arithmetic, so identity is exact).
    pub fn transpose(&self) -> Matrix {
        const B: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(B) {
            let r_end = (rb + B).min(self.rows);
            for cb in (0..self.cols).step_by(B) {
                let c_end = (cb + B).min(self.cols);
                for r in rb..r_end {
                    for c in cb..c_end {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries; 0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum entry; `f32::NEG_INFINITY` for an empty matrix.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum entry within row `r` (ties resolve to the first).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row_slice(r);
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Row-wise softmax, numerically stabilized by subtracting the row max:
    /// one [`softmax_in_place`] per row.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        if self.cols == 0 {
            return out;
        }
        for row in out.data.chunks_exact_mut(self.cols) {
            softmax_in_place(row);
        }
        out
    }

    /// True when any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Concatenates matrices vertically (stacking rows).
    ///
    /// # Panics
    /// Panics if the column counts differ or `parts` is empty.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows: column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Concatenates matrices horizontally (side by side).
    ///
    /// # Panics
    /// Panics if the row counts differ or `parts` is empty.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut offset = 0;
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols: row mismatch");
            for r in 0..rows {
                out.data[r * cols + offset..r * cols + offset + p.cols]
                    .copy_from_slice(p.row_slice(r));
            }
            offset += p.cols;
        }
        out
    }

    /// Copy of arbitrary rows, in the given order (batched embedding
    /// lookup: one gather turns a batch of indices into one matrix).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &r in indices {
            assert!(r < self.rows, "gather_rows: row {r} out of range ({} rows)", self.rows);
            data.extend_from_slice(self.row_slice(r));
        }
        Matrix { rows: indices.len(), cols: self.cols, data }
    }

    /// Additive block-diagonal attention mask for a row-stacked batch of
    /// sequences: `0.0` inside each `block_lens[i] x block_lens[i]` diagonal
    /// block, `-inf` everywhere else. Added to pre-softmax attention scores,
    /// it confines attention to each sequence's own rows, which is what
    /// makes one stacked forward bit-exact with per-sequence forwards
    /// (masked entries contribute exactly-zero probability mass).
    pub fn block_diag_mask(block_lens: &[usize]) -> Matrix {
        let total: usize = block_lens.iter().sum();
        let mut m = Matrix::full(total, total, f32::NEG_INFINITY);
        let mut start = 0;
        for &len in block_lens {
            for r in start..start + len {
                m.row_slice_mut(r)[start..start + len].fill(0.0);
            }
            start += len;
        }
        m
    }

    /// Copy of rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "slice_rows out of range");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let cols = end - start;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row_slice(r)[start..end]);
        }
        Matrix { rows: self.rows, cols, data }
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The logistic sigmoid `1/(1+e^-x)`. The autograd op and the graph
/// refresh both evaluate it here, so their bits cannot drift apart.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Leaky ReLU with negative slope `slope`; shared like [`sigmoid`].
#[inline]
pub fn leaky_relu(x: f32, slope: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        slope * x
    }
}

/// In-place numerically-stable softmax over a slice.
pub fn softmax_in_place(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Mean and `1/√(var + eps)` of one row: layer norm's statistics, reduced
/// serially in index order. The autograd op and the serving forward both
/// call this, so their normalised rows agree bit for bit.
#[inline]
pub fn row_mean_inv_std(row: &[f32], eps: f32) -> (f32, f32) {
    let cols = row.len() as f32;
    let mean = row.iter().sum::<f32>() / cols;
    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols;
    (mean, 1.0 / (var + eps).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::uniform(4, 4, 1.0, &mut rng);
        let c = a.matmul(&Matrix::eye(4));
        for (x, y) in a.data().iter().zip(c.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::uniform(3, 5, 1.0, &mut rng);
        let b = Matrix::uniform(3, 4, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::uniform(3, 5, 1.0, &mut rng);
        let b = Matrix::uniform(4, 5, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::uniform(3, 7, 1.0, &mut rng);
        assert_eq!(a, a.transpose().transpose());
    }

    #[test]
    fn blocked_transpose_matches_naive_walk() {
        let mut rng = StdRng::seed_from_u64(17);
        // Shapes straddling the 32-wide block boundary, plus degenerate ones.
        for (rows, cols) in [(1, 1), (3, 7), (31, 33), (32, 32), (65, 40), (1, 100), (100, 1)] {
            let a = Matrix::uniform(rows, cols, 1.0, &mut rng);
            let mut naive = Matrix::zeros(cols, rows);
            for r in 0..rows {
                for c in 0..cols {
                    naive.set(c, r, a.get(r, c));
                }
            }
            assert_eq!(a.transpose(), naive, "{rows}x{cols}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // larger logits get larger probabilities
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!(s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_handles_large_values() {
        let m = Matrix::from_vec(1, 3, vec![1000.0, 1000.0, 1000.0]);
        let s = m.softmax_rows();
        for &v in s.data() {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn concat_rows_and_slice_rows_roundtrip() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.slice_rows(0, 1), a);
        assert_eq!(c.slice_rows(1, 3), b);
    }

    #[test]
    fn concat_cols_and_slice_cols_roundtrip() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.slice_cols(0, 1), a);
        assert_eq!(c.slice_cols(1, 3), b);
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        assert_eq!(m.gather_rows(&[]).shape(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rows_rejects_bad_index() {
        let _ = Matrix::zeros(2, 2).gather_rows(&[2]);
    }

    #[test]
    fn block_diag_mask_zeros_blocks_only() {
        let m = Matrix::block_diag_mask(&[2, 1]);
        assert_eq!(m.shape(), (3, 3));
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)] {
            assert_eq!(m.get(r, c), 0.0, "in-block ({r},{c})");
        }
        for (r, c) in [(0, 2), (1, 2), (2, 0), (2, 1)] {
            assert_eq!(m.get(r, c), f32::NEG_INFINITY, "cross-block ({r},{c})");
        }
    }

    #[test]
    fn argmax_row_picks_first_max() {
        let m = Matrix::from_vec(1, 4, vec![0.0, 5.0, 5.0, 1.0]);
        assert_eq!(m.argmax_row(0), 1);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = Matrix::xavier(10, 20, &mut rng);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= limit + 1e-6));
    }
}
