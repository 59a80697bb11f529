//! Column-major matrix storage and views, generic over the scalar type
//! (`f64` by default — the paper's DGEMM; `f32` for the SGEMM variant
//! derived by the same analytic method).
//!
//! BLAS convention throughout: element `(i, j)` of a matrix with leading
//! dimension `ld` lives at linear index `i + j·ld`, and `ld ≥ rows` allows
//! views into sub-blocks of larger matrices.

#![forbid(unsafe_code)]

use crate::scalar::Scalar;
use crate::util::SplitMix64;

/// An owned column-major matrix (leading dimension = rows).
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// All-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Build element-wise from `f(i, j)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Deterministic pseudo-random matrix in `[-1, 1)` (SplitMix64-seeded;
    /// reproducible across platforms, no external RNG dependency).
    #[must_use]
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Self::from_fn(rows, cols, |_, _| T::from_f64(rng.next_f64() * 2.0 - 1.0))
    }

    /// Column-major identity-like matrix (1 on the main diagonal).
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { T::ONE } else { T::ZERO })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(i, j)`.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i + j * self.rows]
    }

    /// Set element `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i + j * self.rows] = v;
    }

    /// Immutable view of the whole matrix.
    #[must_use]
    pub fn view(&self) -> MatrixView<'_, T> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            ld: self.rows,
            data: &self.data,
        }
    }

    /// Mutable view of the whole matrix.
    #[must_use]
    pub fn view_mut(&mut self) -> MatrixViewMut<'_, T> {
        MatrixViewMut {
            rows: self.rows,
            cols: self.cols,
            ld: self.rows,
            data: &mut self.data,
        }
    }

    /// Underlying column-major storage.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable underlying column-major storage.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Transposed copy.
    #[must_use]
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Max absolute element-wise difference to `other` (∞-norm of the
    /// difference), widened to `f64`; panics on shape mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs().to_f64())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm, in `f64`.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.to_f64() * x.to_f64())
            .sum::<f64>()
            .sqrt()
    }
}

/// Whether `ld ≥ rows` and a slice of `len` elements reaches the last
/// element of a `rows×cols` column-major region with leading dimension
/// `ld` — the invariant every view and tile constructor establishes, and
/// the one the kernels' pointer reads rest on. The extent
/// `(cols − 1)·ld + rows` is computed with checked arithmetic: in a
/// release build the wrapping product of a hostile `ld` near
/// `usize::MAX / cols` would pass any length test.
pub(crate) fn region_fits(rows: usize, cols: usize, ld: usize, len: usize) -> bool {
    ld >= rows.max(1)
        && (rows == 0
            || cols == 0
            || (cols - 1)
                .checked_mul(ld)
                .and_then(|before_last| before_last.checked_add(rows))
                .is_some_and(|extent| len >= extent))
}

/// Panics unless the region [fits](region_fits) a slice of `len`.
pub(crate) fn assert_region_fits(rows: usize, cols: usize, ld: usize, len: usize) {
    assert!(
        region_fits(rows, cols, ld, len),
        "slice too short for {rows}x{cols} ld {ld}, or leading dimension below the row count"
    );
}

/// Immutable borrowed view of a column-major matrix region.
#[derive(Clone, Copy, Debug)]
pub struct MatrixView<'a, T: Scalar = f64> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: &'a [T],
}

impl<'a, T: Scalar> MatrixView<'a, T> {
    /// View over raw column-major storage with explicit leading dimension.
    ///
    /// Panics unless `ld ≥ rows` and `data` covers the last element.
    #[must_use]
    pub fn from_slice(rows: usize, cols: usize, ld: usize, data: &'a [T]) -> Self {
        assert_region_fits(rows, cols, ld, data.len());
        MatrixView {
            rows,
            cols,
            ld,
            data,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension.
    #[must_use]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element `(i, j)`.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i + j * self.ld]
    }

    /// One column as a slice.
    #[must_use]
    pub fn col(&self, j: usize) -> &[T] {
        assert!(j < self.cols);
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Sub-view of `nrows × ncols` starting at `(i, j)`.
    #[must_use]
    pub fn sub(&self, i: usize, j: usize, nrows: usize, ncols: usize) -> MatrixView<'a, T> {
        assert!(
            i + nrows <= self.rows && j + ncols <= self.cols,
            "sub-view out of bounds"
        );
        let start = i + j * self.ld;
        let end = if nrows > 0 && ncols > 0 {
            start + (ncols - 1) * self.ld + nrows
        } else {
            start
        };
        MatrixView {
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            data: &self.data[start..end.min(self.data.len())],
        }
    }

    /// Underlying storage (column-major with this view's `ld`).
    #[must_use]
    pub fn data(&self) -> &'a [T] {
        self.data
    }
}

/// Mutable borrowed view of a column-major matrix region.
#[derive(Debug)]
pub struct MatrixViewMut<'a, T: Scalar = f64> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: &'a mut [T],
}

impl<'a, T: Scalar> MatrixViewMut<'a, T> {
    /// Mutable view over raw column-major storage.
    #[must_use]
    pub fn from_slice(rows: usize, cols: usize, ld: usize, data: &'a mut [T]) -> Self {
        assert_region_fits(rows, cols, ld, data.len());
        MatrixViewMut {
            rows,
            cols,
            ld,
            data,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension.
    #[must_use]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element `(i, j)`.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i + j * self.ld]
    }

    /// Set element `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i + j * self.ld] = v;
    }

    /// Scale every element by `beta` (`beta = 0` writes exact zeros, so
    /// NaN/Inf garbage in C does not propagate — BLAS semantics).
    pub fn scale(&mut self, beta: T) {
        for j in 0..self.cols {
            let col = &mut self.data[j * self.ld..j * self.ld + self.rows];
            if beta == T::ZERO {
                col.fill(T::ZERO);
            } else if beta != T::ONE {
                for x in col {
                    *x *= beta;
                }
            }
        }
    }

    /// Immutable snapshot of this view.
    #[must_use]
    pub fn as_view(&self) -> MatrixView<'_, T> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            data: self.data,
        }
    }

    /// Mutable sub-view of `nrows × ncols` starting at `(i, j)`.
    #[must_use]
    pub fn sub_mut(
        &mut self,
        i: usize,
        j: usize,
        nrows: usize,
        ncols: usize,
    ) -> MatrixViewMut<'_, T> {
        assert!(
            i + nrows <= self.rows && j + ncols <= self.cols,
            "sub-view out of bounds"
        );
        let start = i + j * self.ld;
        let len = self.data.len();
        let end = if nrows > 0 && ncols > 0 {
            (start + (ncols - 1) * self.ld + nrows).min(len)
        } else {
            start
        };
        MatrixViewMut {
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            data: &mut self.data[start..end],
        }
    }

    /// Split into the first `j` columns and the rest: two views that
    /// share nothing, so each can go to its own thread.
    #[must_use]
    pub fn split_cols(self, j: usize) -> (MatrixViewMut<'a, T>, MatrixViewMut<'a, T>) {
        assert!(j <= self.cols, "split past the last column");
        // (the view of the last columns may end before `j·ld`)
        let at = j.saturating_mul(self.ld).min(self.data.len());
        let (head, tail) = self.data.split_at_mut(at);
        let view = |cols, data| MatrixViewMut {
            rows: self.rows,
            cols,
            ld: self.ld,
            data,
        };
        (view(j, head), view(self.cols - j, tail))
    }

    /// One mutable column.
    #[must_use]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        assert!(j < self.cols);
        &mut self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Underlying storage.
    #[must_use]
    pub fn data_mut(&mut self) -> &mut [T] {
        self.data
    }
}

/// `&a * &b` — convenience double-precision multiply through the default
/// (paper serial 8×6) configuration. For control over kernel, blocking,
/// α/β, transposes or threads use [`crate::blas::dgemm`].
impl core::ops::Mul for &Matrix<f64> {
    type Output = Matrix<f64>;

    fn mul(self, rhs: &Matrix<f64>) -> Matrix<f64> {
        assert_eq!(self.cols(), rhs.rows(), "matrix product dimension mismatch");
        let mut c = Matrix::zeros(self.rows(), rhs.cols());
        crate::gemm::gemm(
            crate::Transpose::No,
            crate::Transpose::No,
            1.0,
            &self.view(),
            &rhs.view(),
            0.0,
            &mut c.view_mut(),
            &crate::gemm::GemmConfig::default(),
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_major_layout() {
        let m = Matrix::from_fn(3, 2, |i, j| (10 * i + j) as f64);
        // column 0 then column 1
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
        assert_eq!(m.get(2, 1), 21.0);
    }

    #[test]
    fn identity_and_transpose() {
        let i3: Matrix = Matrix::identity(3);
        assert_eq!(i3.get(1, 1), 1.0);
        assert_eq!(i3.get(0, 2), 0.0);
        let m = Matrix::from_fn(2, 4, |i, j| (i + 10 * j) as f64);
        let t = m.transposed();
        assert_eq!((t.rows(), t.cols()), (4, 2));
        for i in 0..2 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a: Matrix = Matrix::random(16, 16, 42);
        let b: Matrix = Matrix::random(16, 16, 42);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
        let c: Matrix = Matrix::random(16, 16, 43);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn subview_indexing_respects_ld() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 10 + j) as f64);
        let v = m.view();
        let s = v.sub(2, 3, 3, 2);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 2);
        assert_eq!(s.ld(), 6);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(s.get(i, j), m.get(i + 2, j + 3));
            }
        }
    }

    #[test]
    fn mutable_subview_writes_through() {
        let mut m: Matrix = Matrix::zeros(5, 5);
        {
            let mut v = m.view_mut();
            let mut s = v.sub_mut(1, 1, 2, 2);
            s.set(0, 0, 7.0);
            s.set(1, 1, 9.0);
        }
        assert_eq!(m.get(1, 1), 7.0);
        assert_eq!(m.get(2, 2), 9.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn split_cols_gives_disjoint_views_of_a_window() {
        // a window whose slice ends at its last element (ld > rows)
        let mut m = Matrix::from_fn(6, 5, |i, j| (i * 10 + j) as f64);
        let mut v = m.view_mut();
        let window = v.sub_mut(1, 1, 4, 4);
        let (mut head, rest) = window.split_cols(1);
        let (mut mid, mut tail) = rest.split_cols(3);
        assert_eq!((head.cols(), mid.cols(), tail.cols()), (1, 3, 0));
        assert_eq!((head.rows(), mid.rows(), mid.ld()), (4, 4, 6));
        assert_eq!(tail.data_mut().len(), 0);
        assert_eq!(head.get(3, 0), 41.0);
        assert_eq!(mid.get(0, 2), 14.0);
        head.col_mut(0)[0] = -1.0;
        mid.col_mut(2)[3] = -2.0;
        assert_eq!(m.get(1, 1), -1.0);
        assert_eq!(m.get(4, 4), -2.0);
    }

    #[test]
    fn scale_semantics() {
        let mut m = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        m.view_mut().scale(2.0);
        assert_eq!(m.get(1, 2), 6.0);
        // beta = 0 must clobber NaN
        let mut n: Matrix = Matrix::zeros(2, 2);
        n.set(0, 0, f64::NAN);
        n.view_mut().scale(0.0);
        assert_eq!(n.get(0, 0), 0.0);
    }

    #[test]
    fn view_from_slice_with_padding_ld() {
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        // 2x3 with ld 4: columns start at 0, 4, 8
        let v = MatrixView::from_slice(2, 3, 4, &data);
        assert_eq!(v.get(1, 2), 9.0);
        assert_eq!(v.col(1), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn bad_ld_rejected() {
        let data = [0.0f64; 4];
        let _ = MatrixView::from_slice(3, 1, 2, &data);
    }

    #[test]
    fn an_extent_that_overflows_is_rejected_not_wrapped() {
        // (cols - 1)·ld + rows wraps to a small number for each of these
        // in release arithmetic, which a 16-element slice would satisfy.
        let hostile = [
            (2, 3, usize::MAX / 2 + 1), // 2·ld wraps to 0
            (4, 5, usize::MAX / 4 + 1), // 4·ld wraps to 0
            (8, 2, usize::MAX - 3),     // ld + rows wraps to 4
            (1, usize::MAX, 2),         // (cols - 1)·2 wraps
        ];
        for (rows, cols, ld) in hostile {
            let mut data = [0.0f64; 16];
            let view = std::panic::catch_unwind(|| {
                let _ = MatrixView::from_slice(rows, cols, ld, &[0.0f64; 16]);
            });
            assert!(view.is_err(), "MatrixView accepted {rows}x{cols} ld {ld}");
            let view_mut = std::panic::catch_unwind(move || {
                let _ = MatrixViewMut::from_slice(rows, cols, ld, &mut data);
            });
            assert!(
                view_mut.is_err(),
                "MatrixViewMut accepted {rows}x{cols} ld {ld}"
            );
        }
        // the largest extents that do not overflow are still measured
        let data = [0.0f64; 16];
        let refused = std::panic::catch_unwind(|| {
            let _ = MatrixView::from_slice(1, 2, usize::MAX - 1, &data);
        });
        assert!(refused.is_err());
        // and a legal view with the slice ending at its last element is not
        let v = MatrixView::from_slice(4, 3, 6, &data);
        assert_eq!((v.rows(), v.cols(), v.ld()), (4, 3, 6));
        // zero-sized views never compute an extent
        let _ = MatrixView::from_slice(0, usize::MAX, usize::MAX, &data);
        let _ = MatrixView::from_slice(3, 0, usize::MAX, &data);
    }

    #[test]
    #[should_panic(expected = "slice too short for 2x3")]
    fn overflowing_extent_keeps_the_short_slice_message() {
        let data = [0.0f64; 16];
        let _ = MatrixView::from_slice(2, 3, usize::MAX / 2 + 1, &data);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_rejected() {
        let m: Matrix = Matrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn empty_matrices_work() {
        let m: Matrix = Matrix::zeros(0, 5);
        assert_eq!(m.view().rows(), 0);
        let n: Matrix = Matrix::zeros(5, 0);
        assert_eq!(n.view().cols(), 0);
    }

    #[test]
    fn mul_operator_matches_reference() {
        let a: Matrix = Matrix::random(20, 15, 1);
        let b: Matrix = Matrix::random(15, 10, 2);
        let c = &a * &b;
        let mut want: Matrix = Matrix::zeros(20, 10);
        crate::reference::naive_gemm(
            crate::Transpose::No,
            crate::Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut want.view_mut(),
        );
        assert!(c.max_abs_diff(&want) < 1e-10);
        // identity round trip
        let i: Matrix = Matrix::identity(15);
        assert!((&a * &i).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn frobenius_norm_simple() {
        let m = Matrix::from_fn(2, 2, |i, j| if i == j { 3.0 } else { 4.0 });
        assert!((m.frobenius_norm() - 50.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_precision_matrices_work() {
        let a: Matrix<f32> = Matrix::random(8, 8, 7);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
        let i: Matrix<f32> = Matrix::identity(4);
        assert_eq!(i.get(2, 2), 1.0f32);
        let mut b: Matrix<f32> = Matrix::zeros(3, 3);
        b.set(1, 1, 2.5);
        b.view_mut().scale(2.0);
        assert_eq!(b.get(1, 1), 5.0f32);
        assert_eq!(b.transposed().get(1, 1), 5.0f32);
    }
}
