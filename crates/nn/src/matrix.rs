//! Dense row-major `f32` matrix used throughout the training stack.
//!
//! The paper's networks are small fully-connected models (§VI-F of the paper
//! notes h/i-MADRL "only contains fully connected layers"), so a simple
//! cache-friendly row-major matrix with a blocked mat-mul is all the linear
//! algebra the reproduction needs. The three matrix products dispatch into
//! [`crate::gemm`], which provides a naive reference kernel and a blocked,
//! register-tiled fast kernel that are bit-identical by construction
//! (`AGSC_GEMM=ref|fast` selects the process default).

use crate::gemm::{self, GemmKernel};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A dense row-major matrix of `f32`; the default is `0 × 0`.
#[derive(Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// `clone_from` reuses the destination's buffer, so a copy refilled every
/// iteration (the trainer's NaN-guard snapshot) allocates nothing.
impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    fn clone_from(&mut self, src: &Self) {
        (self.rows, self.cols) = (src.rows, src.cols);
        self.data.clone_from(&src.data);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build a single-row matrix from a slice.
    pub fn row_vector(data: &[f32]) -> Self {
        Self::from_vec(1, data.len(), data.to_vec())
    }

    /// Build from a nested slice of rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major data slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major data slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Matrix product `self × rhs`, on the kernel `AGSC_GEMM` (or an
    /// in-process override) selects — see [`crate::gemm`] for the dual-path
    /// design and the bit-identity contract between the two kernels.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.matmul_with(rhs, gemm::active_kernel())
    }

    /// [`matmul`](Self::matmul) pinned to one kernel path. Charges the same
    /// `2·m·n·k` FLOPs either way (accounting happens here, before dispatch,
    /// so tiling remainders can never double-charge).
    pub fn matmul_with(&self, rhs: &Matrix, kernel: GemmKernel) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        crate::flops::add(crate::flops::matmul_flops(self.rows, rhs.cols, self.cols));
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let timer = crate::flops::GemmTimer::start();
        gemm::matmul(kernel, self.rows, rhs.cols, self.cols, &self.data, &rhs.data, &mut out.data);
        timer.stop();
        out
    }

    /// `selfᵀ × rhs` without materialising the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        self.t_matmul_with(rhs, gemm::active_kernel())
    }

    /// [`t_matmul`](Self::t_matmul) pinned to one kernel path.
    pub fn t_matmul_with(&self, rhs: &Matrix, kernel: GemmKernel) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}x{})ᵀ × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        crate::flops::add(crate::flops::matmul_flops(self.cols, rhs.cols, self.rows));
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let timer = crate::flops::GemmTimer::start();
        gemm::t_matmul(
            kernel,
            self.cols,
            rhs.cols,
            self.rows,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        timer.stop();
        out
    }

    /// `self × rhsᵀ` without materialising the transpose.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        self.matmul_t_with(rhs, gemm::active_kernel())
    }

    /// [`matmul_t`](Self::matmul_t) pinned to one kernel path.
    pub fn matmul_t_with(&self, rhs: &Matrix, kernel: GemmKernel) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} × ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        crate::flops::add(crate::flops::matmul_flops(self.rows, rhs.rows, self.cols));
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let timer = crate::flops::GemmTimer::start();
        gemm::matmul_t(
            kernel,
            self.rows,
            rhs.rows,
            self.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        timer.stop();
        out
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Apply `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Add a row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics if `bias.len() != self.cols`.
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (x, &b) in out.row_mut(r).iter_mut().zip(bias.iter()) {
                *x += b;
            }
        }
        out
    }

    /// Column-wise sum, producing a vector of length `cols`.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for row in self.iter_rows() {
            for (o, &x) in out.iter_mut().zip(row.iter()) {
                *o += x;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty matrices).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Fill with zeros, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Accumulate `rhs * scale` into `self`.
    pub fn add_scaled(&mut self, rhs: &Matrix, scale: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b * scale;
        }
    }

    /// Stack matrices vertically.
    ///
    /// # Panics
    /// Panics if column counts differ or `mats` is empty.
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vstack of nothing");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Append `rows` rows, given row-major in `data`, below the last row.
    /// A matrix with no rows takes its width from `data`.
    ///
    /// # Panics
    /// Panics if `data` is not `rows` rows of the matrix's width.
    pub fn push_rows(&mut self, rows: usize, data: &[f32]) {
        if self.rows == 0 && rows > 0 {
            self.cols = data.len() / rows;
        }
        assert_eq!(data.len(), rows * self.cols, "push_rows: ragged rows");
        self.data.extend_from_slice(data);
        self.rows += rows;
    }

    /// Gather selected rows into a new matrix.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &i in idx {
            data.extend_from_slice(self.row(i));
        }
        Matrix { rows: idx.len(), cols: self.cols, data }
    }

    /// Clamp every element to `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Matrix {
        self.map(|x| x.clamp(lo, hi))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f32) -> Matrix {
        self.scale(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_round_trip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.0, 1.0, 3.0]);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, vec![1.0; 12]);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn broadcast_bias() {
        let a = Matrix::zeros(2, 3);
        let out = a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_column_totals() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
    }

    #[test]
    fn stats() {
        let a = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.norm_sq(), 30.0);
    }

    #[test]
    fn gather_rows_follows_index_order() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let s = Matrix::vstack(&[&a, &b]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn push_rows_grows_in_place_and_an_empty_matrix_adopts_the_width() {
        let mut m = Matrix::default();
        m.push_rows(1, &[1.0, 2.0]);
        m.push_rows(2, &[3.0, 4.0, 5.0, 6.0]);
        m.push_rows(0, &[]);
        assert_eq!(m, Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        // Zero-width rows still count.
        let mut z = Matrix::default();
        z.push_rows(2, &[]);
        assert_eq!(z.shape(), (2, 0));
    }

    #[test]
    #[should_panic(expected = "push_rows")]
    fn push_rows_rejects_a_ragged_row() {
        let mut m = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        m.push_rows(1, &[3.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(1, 2);
        let b = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[0.5, -1.0]);
    }

    #[test]
    fn kernel_paths_agree_bitwise_at_matrix_level() {
        // Deterministic data with zeros in it (what the removed sparsity
        // shortcut used to key on) across all three products.
        let a = Matrix::from_vec(
            9,
            7,
            (0..63).map(|i| if i % 6 == 0 { 0.0 } else { (i as f32).sin() }).collect(),
        );
        let b = Matrix::from_vec(7, 5, (0..35).map(|i| (i as f32 * 0.37).cos()).collect());
        let c = Matrix::from_vec(9, 5, (0..45).map(|i| (i as f32).cos() * 0.5).collect());
        let pairs = [
            (a.matmul_with(&b, GemmKernel::Reference), a.matmul_with(&b, GemmKernel::Fast)),
            (a.t_matmul_with(&c, GemmKernel::Reference), a.t_matmul_with(&c, GemmKernel::Fast)),
            (a.matmul_t_with(&a, GemmKernel::Reference), a.matmul_t_with(&a, GemmKernel::Fast)),
        ];
        for (r, f) in &pairs {
            assert_eq!(r.shape(), f.shape());
            for (x, y) in r.as_slice().iter().zip(f.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "kernel paths diverged: {x} vs {y}");
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
