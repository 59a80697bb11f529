//! Blocked LU factorization with partial pivoting — the LINPACK/HPL
//! workload the paper names as DGEMM's raison d'être ("as the core part
//! of the LINPACK benchmark, DGEMM has been an important kernel for
//! measuring the potential performance of a HPC platform").
//!
//! Right-looking algorithm: for each `nb`-wide panel,
//!
//! 1. factor the panel with unblocked, partially pivoted LU;
//! 2. apply the panel's row swaps to the rest of the matrix;
//! 3. `U₁₂ ← L₁₁⁻¹·A₁₂` via [`crate::level3::dtrsm`] (unit lower);
//! 4. `A₂₂ ← A₂₂ − L₂₁·U₁₂` via [`crate::gemm::gemm`] — where ~all the
//!    `2n³/3` flops go, through the paper's GEBP engine.

#![forbid(unsafe_code)]

use crate::gemm::{try_gemm, GemmConfig};
use crate::level3::{dtrsm, Diag, UpLo};
use crate::matrix::Matrix;
use crate::{GemmError, Transpose};

/// The factorization result: `P·A = L·U` stored compactly in `lu`
/// (unit-lower L below the diagonal, U on and above), with the pivot row
/// chosen at each step in `pivots`.
#[derive(Clone, Debug)]
pub struct LuFactors {
    /// Packed L\U matrix.
    pub lu: Matrix,
    /// `pivots[k] = r` means rows `k` and `r` were swapped at step `k`.
    pub pivots: Vec<usize>,
}

/// Numerical failure of the factorization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Singular {
    /// Column at which no usable pivot was found.
    pub column: usize,
}

impl core::fmt::Display for Singular {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for Singular {}

/// Any failure of the blocked factorization: numerical (no usable
/// pivot) or a GEMM runtime fault propagated from the update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LuError {
    /// No usable pivot at some column.
    Singular(Singular),
    /// The trailing GEMM/TRSM update reported a runtime fault.
    Gemm(GemmError),
}

impl core::fmt::Display for LuError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LuError::Singular(s) => s.fmt(f),
            LuError::Gemm(e) => write!(f, "LU update failed: {e}"),
        }
    }
}

impl std::error::Error for LuError {}

impl From<Singular> for LuError {
    fn from(s: Singular) -> Self {
        LuError::Singular(s)
    }
}

impl From<GemmError> for LuError {
    fn from(e: GemmError) -> Self {
        LuError::Gemm(e)
    }
}

impl LuError {
    /// The column of a singular failure, if that is what this is.
    #[must_use]
    pub fn singular_column(&self) -> Option<usize> {
        match self {
            LuError::Singular(s) => Some(s.column),
            LuError::Gemm(_) => None,
        }
    }
}

/// Panel width for the blocked factorization: the paper's `nr`-aligned
/// choice keeps the GEMM update's K dimension a multiple of the register
/// block.
const DEFAULT_NB: usize = 48;

/// Factor a square matrix: `P·A = L·U` with partial pivoting.
pub fn lu_factor(a: &Matrix, cfg: &GemmConfig) -> Result<LuFactors, LuError> {
    assert_eq!(a.rows(), a.cols(), "LU needs a square matrix");
    let n = a.rows();
    let mut lu = a.clone();
    let mut pivots = vec![0usize; n];
    let nb = DEFAULT_NB;

    let mut j0 = 0usize;
    while j0 < n {
        let w = nb.min(n - j0);
        // 1) unblocked factorization of the panel rows j0..n, cols j0..j0+w
        #[allow(clippy::needless_range_loop)] // k walks rows, cols and pivots together
        for k in j0..j0 + w {
            // pivot search in column k, rows k..n
            let mut piv = k;
            let mut best = lu.get(k, k).abs();
            for r in k + 1..n {
                let v = lu.get(r, k).abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best == 0.0 {
                return Err(Singular { column: k }.into());
            }
            pivots[k] = piv;
            if piv != k {
                swap_rows(&mut lu, k, piv);
            }
            // eliminate below the pivot within the panel
            let pivval = lu.get(k, k);
            for r in k + 1..n {
                let l = lu.get(r, k) / pivval;
                lu.set(r, k, l);
                for c in k + 1..j0 + w {
                    let v = lu.get(r, c) - l * lu.get(k, c);
                    lu.set(r, c, v);
                }
            }
        }

        let rest = n - (j0 + w);
        if rest > 0 {
            // 2) the panel's swaps were already applied to the whole row
            //    by swap_rows above.
            // The factored columns are read, the ones right of the panel
            // updated in place: two disjoint windows of the factor.
            let (left, mut right) = lu.view_mut().split_cols(j0 + w);
            let left = left.as_view();
            // 3) U12 = L11^{-1} A12 (unit lower triangular solve)
            let mut a12 = right.sub_mut(j0, 0, w, rest);
            let l11 = left.sub(j0, j0, w, w);
            dtrsm(
                UpLo::Lower,
                Transpose::No,
                Diag::Unit,
                1.0,
                &l11,
                &mut a12,
                cfg,
            )?;
            // U12 and A22 share their columns, so the GEMM reads a copy.
            let u12 = Matrix::from_fn(w, rest, |i, j| a12.get(i, j));

            // 4) A22 -= L21 * U12 — the GEMM that dominates LINPACK
            let l21 = left.sub(j0 + w, j0, rest, w);
            let mut a22 = right.sub_mut(j0 + w, 0, rest, rest);
            try_gemm(
                Transpose::No,
                Transpose::No,
                -1.0,
                &l21,
                &u12.view(),
                1.0,
                &mut a22,
                cfg,
            )?;
        }
        j0 += w;
    }
    Ok(LuFactors { lu, pivots })
}

fn swap_rows(m: &mut Matrix, r1: usize, r2: usize) {
    if r1 == r2 {
        return;
    }
    for c in 0..m.cols() {
        let a = m.get(r1, c);
        let b = m.get(r2, c);
        m.set(r1, c, b);
        m.set(r2, c, a);
    }
}

impl LuFactors {
    /// Matrix order.
    #[must_use]
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// Apply the pivot permutation to a right-hand-side matrix in place
    /// (forward order, as in LAPACK `laswp`).
    pub fn apply_pivots(&self, b: &mut Matrix) {
        for (k, &p) in self.pivots.iter().enumerate() {
            if p != k {
                swap_rows(b, k, p);
            }
        }
    }

    /// Solve `A·X = B` using the factorization (B has one column per
    /// right-hand side). `Err` propagates a GEMM runtime fault from the
    /// triangular solves.
    pub fn solve(&self, b: &Matrix, cfg: &GemmConfig) -> Result<Matrix, GemmError> {
        assert_eq!(b.rows(), self.n(), "rhs rows must match");
        let mut x = b.clone();
        self.apply_pivots(&mut x);
        // L y = Pb (unit lower), then U x = y
        dtrsm(
            UpLo::Lower,
            Transpose::No,
            Diag::Unit,
            1.0,
            &self.lu.view(),
            &mut x.view_mut(),
            cfg,
        )?;
        dtrsm(
            UpLo::Upper,
            Transpose::No,
            Diag::NonUnit,
            1.0,
            &self.lu.view(),
            &mut x.view_mut(),
            cfg,
        )?;
        Ok(x)
    }

    /// Reconstruct `P⁻¹·L·U` (which must equal the original A).
    #[must_use]
    pub fn reconstruct(&self) -> Matrix {
        let n = self.n();
        let l = Matrix::from_fn(n, n, |i, j| {
            use core::cmp::Ordering;
            match i.cmp(&j) {
                Ordering::Greater => self.lu.get(i, j),
                Ordering::Equal => 1.0,
                Ordering::Less => 0.0,
            }
        });
        let u = Matrix::from_fn(n, n, |i, j| if i <= j { self.lu.get(i, j) } else { 0.0 });
        let mut pa = Matrix::zeros(n, n);
        crate::reference::naive_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &l.view(),
            &u.view(),
            0.0,
            &mut pa.view_mut(),
        );
        // undo the pivoting: apply swaps in reverse
        for k in (0..n).rev() {
            let p = self.pivots[k];
            if p != k {
                swap_rows(&mut pa, k, p);
            }
        }
        pa
    }
}

/// Flops of an LU factorization (`2n³/3`, the LINPACK convention).
#[must_use]
pub fn lu_flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3) / 3.0
}

/// The HPL-style scaled residual `‖Ax − b‖∞ / (ε·‖A‖∞·n)`; a solve is
/// conventionally accepted when this is O(10) or less.
#[must_use]
pub fn hpl_residual(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
    let n = a.rows();
    let mut ax = Matrix::zeros(n, x.cols());
    crate::reference::naive_gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &x.view(),
        0.0,
        &mut ax.view_mut(),
    );
    let resid = ax.max_abs_diff(b);
    let norm_a = (0..n)
        .map(|i| (0..n).map(|j| a.get(i, j).abs()).sum::<f64>())
        .fold(0.0f64, f64::max);
    resid / (f64::EPSILON * norm_a * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_conditioned(n: usize, seed: u64) -> Matrix {
        let r = Matrix::random(n, n, seed);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + r.get(i, j)
            } else {
                r.get(i, j)
            }
        })
    }

    #[test]
    fn reconstruct_small() {
        let a = well_conditioned(17, 1);
        let f = lu_factor(&a, &GemmConfig::default()).unwrap();
        let pa = f.reconstruct();
        assert!(pa.max_abs_diff(&a) < 1e-10, "{}", pa.max_abs_diff(&a));
    }

    #[test]
    fn reconstruct_crosses_panels() {
        // n > DEFAULT_NB exercises trsm + gemm updates
        for n in [49, 96, 130] {
            let a = well_conditioned(n, n as u64);
            let f = lu_factor(&a, &GemmConfig::default()).unwrap();
            assert!(f.reconstruct().max_abs_diff(&a) < 1e-9);
        }
    }

    #[test]
    fn pivoting_actually_pivots() {
        // a matrix needing row exchanges (zero leading pivot)
        let mut a = well_conditioned(8, 3);
        a.set(0, 0, 0.0);
        let f = lu_factor(&a, &GemmConfig::default()).unwrap();
        assert!(f.pivots[0] != 0, "must pivot away from the zero");
        assert!(f.reconstruct().max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::zeros(5, 5);
        let err = lu_factor(&a, &GemmConfig::default()).unwrap_err();
        assert_eq!(err.singular_column(), Some(0));
        // rank-1 matrix fails at the second column
        let r1 = Matrix::from_fn(6, 6, |i, j| ((i + 1) * (j + 1)) as f64);
        let err = lu_factor(&r1, &GemmConfig::default()).unwrap_err();
        assert!(err.singular_column().expect("numerical failure") >= 1);
    }

    #[test]
    fn solve_recovers_solution() {
        let n = 120;
        let a = well_conditioned(n, 7);
        let x_true = Matrix::random(n, 3, 8);
        let mut b = Matrix::zeros(n, 3);
        crate::reference::naive_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &x_true.view(),
            0.0,
            &mut b.view_mut(),
        );
        let f = lu_factor(&a, &GemmConfig::default()).unwrap();
        let x = f.solve(&b, &GemmConfig::default()).unwrap();
        assert!(
            x.max_abs_diff(&x_true) < 1e-8,
            "{}",
            x.max_abs_diff(&x_true)
        );
        assert!(hpl_residual(&a, &x, &b) < 10.0);
    }

    /// LU's factors and solution, and the Cholesky factor of the
    /// symmetric part, are bit-identical on every runtime: the pool
    /// keeps each element's k-order.
    #[test]
    fn solve_with_threads_matches() {
        use crate::pool::Parallelism;
        let n = 150; // three full panels and a tail
        let a = well_conditioned(n, 9);
        let spd = Matrix::from_fn(n, n, |i, j| a.get(i, j) + a.get(j, i));
        let b = Matrix::random(n, 2, 10);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let run = |par| {
            let cfg = GemmConfig::default().with_parallelism(par);
            let f = lu_factor(&a, &cfg).unwrap();
            let x = f.solve(&b, &cfg).unwrap();
            let l = crate::cholesky::cholesky(&spd, &cfg).unwrap();
            (bits(&f.lu), f.pivots, bits(&x), bits(&l))
        };
        let serial = run(Parallelism::Serial);
        for par in [Parallelism::Pool(2), Parallelism::Pool(3)] {
            assert!(run(par) == serial, "{par:?} differs from Serial");
        }
    }

    #[test]
    fn flops_convention() {
        assert!((lu_flops(1000) - 2.0e9 / 3.0).abs() < 1.0);
    }
}
