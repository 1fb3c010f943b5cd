//! Dense row-major `f32` matrix used throughout the training stack.
//!
//! The paper's networks are small fully-connected models (§VI-F of the paper
//! notes h/i-MADRL "only contains fully connected layers"), so a simple
//! cache-friendly row-major matrix with a blocked mat-mul is all the linear
//! algebra the reproduction needs. The three matrix products dispatch into
//! [`crate::gemm`], which provides a naive reference kernel and a blocked,
//! register-tiled fast kernel that are bit-identical by construction
//! (`AGSC_GEMM=ref|fast` selects the process default).

use crate::gemm::{self, GemmKernel, Route, Skip, ZeroLists};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};
use std::sync::OnceLock;

/// A dense row-major matrix of `f32`; the default is `0 × 0`.
///
/// A matrix also remembers what the fast GEMM path learned about its
/// contents: its zero index and whether it is all finite. Every
/// mutation drops that memo, a clone starts without it, and equality and
/// serde ignore it.
#[derive(Default, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
    #[serde(skip)]
    memo: Memo,
}

/// Facts about one matrix content that the fast kernels reuse across
/// products, each computed the first time a product asks for it (from any
/// thread: a second first user waits for the first). Every `&mut` path to
/// the data goes through `Matrix::data_mut`, which drops them, so they
/// always describe the current contents.
#[derive(Default)]
struct Memo {
    /// Row lists, for `matmul` (`None`: too dense to list).
    rows: OnceLock<Option<Box<ZeroLists>>>,
    /// Column lists, for `t_matmul`: the transpose of the row lists.
    cols: OnceLock<Option<Box<ZeroLists>>>,
    /// No ±∞ and no NaN, so a zero operand against it is `±0`.
    finite: OnceLock<bool>,
}

/// The memo is derived from the data, so a clone computes its own.
/// `clone_from` reuses the destination's buffer, so a copy refilled every
/// iteration (the trainer's NaN-guard snapshot) allocates nothing.
impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self::raw(self.rows, self.cols, self.data.clone())
    }

    fn clone_from(&mut self, src: &Self) {
        (self.rows, self.cols) = (src.rows, src.cols);
        self.data_mut().clone_from(&src.data);
    }
}

/// Matrices are equal when their shapes and entries are.
impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols, &self.data) == (other.rows, other.cols, &other.data)
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
    /// A matrix of the given shape and row-major data, with no memo yet.
    fn raw(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Self { rows, cols, data, memo: Memo::default() }
    }

    /// The data, for writing: drops the memo first. Every mutation of a
    /// matrix goes through here.
    fn data_mut(&mut self) -> &mut Vec<f32> {
        self.memo = Memo::default();
        &mut self.data
    }

    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::raw(rows, cols, vec![0.0; rows * cols])
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self::raw(rows, cols, vec![value; rows * cols])
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
        Self::raw(rows, cols, data)
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
        Self::raw(rows.len(), cols, data)
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
        self.data_mut()
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let cols = self.cols;
        &mut self.data_mut()[r * cols..(r + 1) * cols]
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Build this matrix's zero index now (its row lists, when it is
    /// sparse enough to have them), so that the products that read it
    /// later, on this thread or another, and the stacks and gathers that
    /// derive theirs from it, find it built. Products build it themselves
    /// on first use; this only chooses where that cost lands. The column
    /// lists a `t_matmul` reads are transposed from it on first use.
    pub fn index_zeros(&self) {
        self.row_lists();
    }

    /// The row lists `matmul` runs when `self` is its left operand.
    fn row_lists(&self) -> Option<&ZeroLists> {
        let build = || ZeroLists::of_rows(self.rows, self.cols, &self.data).map(Box::new);
        self.memo.rows.get_or_init(build).as_deref()
    }

    /// The column lists `t_matmul` runs when `self` is its left operand:
    /// the row lists, transposed.
    fn col_lists(&self) -> Option<&ZeroLists> {
        let build = || self.row_lists().and_then(|r| r.transpose(self.cols)).map(Box::new);
        self.memo.cols.get_or_init(build).as_deref()
    }

    /// Whether every entry is finite (no ±∞, no NaN).
    fn is_finite(&self) -> bool {
        *self.memo.finite.get_or_init(|| gemm::all_finite(&self.data))
    }

    /// What the fast kernels may leave out of `self` as the left operand
    /// of a product into an `m×n` output with right operand `rhs`: zero
    /// entries in a strip, or everything off the lists that `lists` picks
    /// from `self`; either only once `rhs` is known finite.
    fn skip<'s>(
        &'s self,
        rhs: &Matrix,
        (m, n): (usize, usize),
        lists: fn(&Matrix) -> Option<&ZeroLists>,
    ) -> Skip<'s> {
        match gemm::route(m, n) {
            Route::Narrow => Skip::Dense,
            Route::Strips if rhs.is_finite() => Skip::Zeros,
            Route::Strips => Skip::Dense,
            Route::Tiles => match lists(self) {
                Some(l) if rhs.is_finite() => Skip::Lists(l),
                _ => Skip::Dense,
            },
        }
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
        let (m, n, k) = (self.rows, rhs.cols, self.cols);
        crate::flops::add(crate::flops::matmul_flops(m, n, k));
        let mut out = vec![0.0; m * n];
        let timer = crate::flops::GemmTimer::start();
        let skip = match kernel {
            GemmKernel::Reference => Skip::Dense,
            GemmKernel::Fast => self.skip(rhs, (m, n), Self::row_lists),
        };
        gemm::matmul(kernel, m, n, k, &self.data, &rhs.data, skip, &mut out);
        timer.stop();
        Self::raw(m, n, out)
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
        let (m, n, k) = (self.cols, rhs.cols, self.rows);
        crate::flops::add(crate::flops::matmul_flops(m, n, k));
        let mut out = vec![0.0; m * n];
        let timer = crate::flops::GemmTimer::start();
        let skip = match kernel {
            GemmKernel::Reference => Skip::Dense,
            GemmKernel::Fast => self.skip(rhs, (m, n), Self::col_lists),
        };
        gemm::t_matmul(kernel, m, n, k, &self.data, &rhs.data, skip, &mut out);
        timer.stop();
        Self::raw(m, n, out)
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
        let (m, n, k) = (self.rows, rhs.rows, self.cols);
        crate::flops::add(crate::flops::matmul_flops(m, n, k));
        let mut out = vec![0.0; m * n];
        let timer = crate::flops::GemmTimer::start();
        gemm::matmul_t(kernel, m, n, k, &self.data, &rhs.data, &mut out);
        timer.stop();
        Self::raw(m, n, out)
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
        Self::raw(self.rows, self.cols, data)
    }

    /// Apply `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Self::raw(self.rows, self.cols, data)
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
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
        self.data_mut().fill(0.0);
    }

    /// Accumulate `rhs * scale` into `self`.
    pub fn add_scaled(&mut self, rhs: &Matrix, scale: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(rhs.data.iter()) {
            *a += b * scale;
        }
    }

    /// Stack matrices vertically. The stack's row lists are its sources'
    /// lists end to end, so a stack of indexed matrices is indexed without
    /// a scan (the sources build theirs if they have none yet).
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
        let out = Self::raw(rows, cols, data);
        let sources = mats.iter().flat_map(|m| (0..m.rows).map(move |r| (*m, r)));
        out.derive_row_lists(sources);
        out
    }

    /// Set the row lists of `self`, whose row `i` is the `i`-th of
    /// `sources` (a matrix and a row), from the sources' lists: `None` when
    /// a source has none.
    fn derive_row_lists<'a>(&self, sources: impl Iterator<Item = (&'a Matrix, usize)>) {
        let rows: Option<Vec<_>> = sources.map(|(m, r)| Some((m.row_lists()?, r))).collect();
        let lists = rows.map(|rows| Box::new(ZeroLists::concat(rows.into_iter())));
        let fresh = self.memo.rows.set(lists);
        debug_assert!(fresh.is_ok(), "a derived matrix has no lists of its own yet");
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
        self.data_mut().extend_from_slice(data);
        self.rows += rows;
    }

    /// Gather selected rows into a new matrix, whose row lists are the
    /// selected rows' lists (built for `self` first if it has none).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &i in idx {
            data.extend_from_slice(self.row(i));
        }
        let out = Self::raw(idx.len(), self.cols, data);
        out.derive_row_lists(idx.iter().map(|&i| (self, i)));
        out
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
        let cols = self.cols;
        &mut self.data_mut()[r * cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a + b).collect();
        Matrix::raw(self.rows, self.cols, data)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a - b).collect();
        Matrix::raw(self.rows, self.cols, data)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(rhs.data.iter()) {
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
