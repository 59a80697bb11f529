//! Blocked Cholesky factorization (`dpotrf`-style): `A = L·Lᵀ` for a
//! symmetric positive-definite matrix — the second classic LINPACK-class
//! consumer of the paper's Level-3 stack. The trailing update runs
//! through [`crate::level3::dsyrk`], the panel
//! scaling through [`crate::level3::dtrsm`]: every flop beyond the tiny
//! diagonal factorizations goes through the GEBP engine.

#![forbid(unsafe_code)]

use crate::gemm::GemmConfig;
use crate::level3::{dsyrk, dtrsm, Diag, UpLo};
use crate::matrix::Matrix;
use crate::{GemmError, Transpose};

/// Failure: the matrix is not positive definite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Column at which the pivot turned non-positive.
    pub column: usize,
}

impl core::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "matrix not positive definite at column {}", self.column)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Any failure of the blocked factorization: numerical (matrix not
/// positive definite) or a GEMM runtime fault from the trailing update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CholeskyError {
    /// A diagonal pivot turned non-positive.
    NotPositiveDefinite(NotPositiveDefinite),
    /// The panel solve or trailing update reported a runtime fault.
    Gemm(GemmError),
}

impl core::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CholeskyError::NotPositiveDefinite(e) => e.fmt(f),
            CholeskyError::Gemm(e) => write!(f, "Cholesky update failed: {e}"),
        }
    }
}

impl std::error::Error for CholeskyError {}

impl From<NotPositiveDefinite> for CholeskyError {
    fn from(e: NotPositiveDefinite) -> Self {
        CholeskyError::NotPositiveDefinite(e)
    }
}

impl From<GemmError> for CholeskyError {
    fn from(e: GemmError) -> Self {
        CholeskyError::Gemm(e)
    }
}

impl CholeskyError {
    /// The column of a numerical failure, if that is what this is.
    #[must_use]
    pub fn indefinite_column(&self) -> Option<usize> {
        match self {
            CholeskyError::NotPositiveDefinite(e) => Some(e.column),
            CholeskyError::Gemm(_) => None,
        }
    }
}

const NB: usize = 48;

/// Factor a symmetric positive-definite matrix (lower triangle read):
/// returns `L` (lower triangular) with `A = L·Lᵀ`.
pub fn cholesky(a: &Matrix, cfg: &GemmConfig) -> Result<Matrix, CholeskyError> {
    assert_eq!(a.rows(), a.cols(), "Cholesky needs a square matrix");
    let n = a.rows();
    // work on a full copy; the strict upper triangle is zeroed at the end
    let mut l = a.clone();

    let mut j0 = 0usize;
    while j0 < n {
        let w = NB.min(n - j0);
        // 1) unblocked Cholesky of the diagonal block
        for k in j0..j0 + w {
            let mut d = l.get(k, k);
            for c in j0..k {
                d -= l.get(k, c) * l.get(k, c);
            }
            if d <= 0.0 {
                return Err(NotPositiveDefinite { column: k }.into());
            }
            let d = d.sqrt();
            l.set(k, k, d);
            for r in k + 1..j0 + w {
                let mut v = l.get(r, k);
                for c in j0..k {
                    v -= l.get(r, c) * l.get(k, c);
                }
                l.set(r, k, v / d);
            }
        }

        let rest = n - (j0 + w);
        if rest > 0 {
            // 2) panel below the diagonal: L21 = A21 * L11^{-T}
            //    i.e. solve X * L11^T = A21  <=>  L11 * X^T = A21^T.
            //    Using the left-solver: transpose in, transpose out.
            let mut xt = Matrix::from_fn(w, rest, |i, j| l.get(j0 + w + j, j0 + i));
            let l11 = l.view().sub(j0, j0, w, w);
            dtrsm(
                UpLo::Lower,
                Transpose::No,
                Diag::NonUnit,
                1.0,
                &l11,
                &mut xt.view_mut(),
                cfg,
            )?;
            for j in 0..rest {
                for i in 0..w {
                    l.set(j0 + w + j, j0 + i, xt.get(i, j));
                }
            }

            // 3) trailing update: A22 -= L21 * L21^T (lower triangle),
            //    in place: L21 is read from the factored columns, A22
            //    written in the disjoint ones right of them.
            let (left, mut right) = l.view_mut().split_cols(j0 + w);
            let l21 = left.as_view().sub(j0 + w, j0, rest, w);
            let mut a22 = right.sub_mut(j0 + w, 0, rest, rest);
            dsyrk(UpLo::Lower, Transpose::No, -1.0, &l21, 1.0, &mut a22, cfg)?;
        }
        j0 += w;
    }
    // zero the strict upper triangle
    for j in 1..n {
        for i in 0..j {
            l.set(i, j, 0.0);
        }
    }
    Ok(l)
}

/// Solve `A·X = B` given the Cholesky factor `L` (`A = L·Lᵀ`).
pub fn cholesky_solve(l: &Matrix, b: &Matrix, cfg: &GemmConfig) -> Result<Matrix, GemmError> {
    let mut x = b.clone();
    dtrsm(
        UpLo::Lower,
        Transpose::No,
        Diag::NonUnit,
        1.0,
        &l.view(),
        &mut x.view_mut(),
        cfg,
    )?;
    dtrsm(
        UpLo::Lower,
        Transpose::Yes,
        Diag::NonUnit,
        1.0,
        &l.view(),
        &mut x.view_mut(),
        cfg,
    )?;
    Ok(x)
}

/// Flops of a Cholesky factorization (`n³/3`).
#[must_use]
pub fn cholesky_flops(n: usize) -> f64 {
    (n as f64).powi(3) / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_gemm;

    /// A random SPD matrix: G·Gᵀ + n·I.
    fn spd(n: usize, seed: u64) -> Matrix {
        let g = Matrix::random(n, n, seed);
        let mut ggt = Matrix::zeros(n, n);
        naive_gemm(
            Transpose::No,
            Transpose::Yes,
            1.0,
            &g.view(),
            &g.view(),
            0.0,
            &mut ggt.view_mut(),
        );
        Matrix::from_fn(n, n, |i, j| {
            ggt.get(i, j) + if i == j { n as f64 } else { 0.0 }
        })
    }

    fn check_factor(n: usize, seed: u64) {
        let a = spd(n, seed);
        let l = cholesky(&a, &GemmConfig::default()).unwrap();
        // strict upper triangle is zero
        for j in 1..n {
            for i in 0..j {
                assert_eq!(l.get(i, j), 0.0);
            }
        }
        // L * L^T == A
        let mut llt = Matrix::zeros(n, n);
        naive_gemm(
            Transpose::No,
            Transpose::Yes,
            1.0,
            &l.view(),
            &l.view(),
            0.0,
            &mut llt.view_mut(),
        );
        let err = llt.max_abs_diff(&a);
        let scale = a.frobenius_norm();
        assert!(err < 1e-10 * scale.max(1.0), "n={n}: err {err}");
    }

    #[test]
    fn factor_small() {
        check_factor(5, 1);
        check_factor(17, 2);
    }

    #[test]
    fn factor_crosses_panels() {
        check_factor(49, 3);
        check_factor(96, 4);
        check_factor(131, 5);
    }

    #[test]
    fn not_spd_detected() {
        let mut a = spd(6, 6);
        a.set(3, 3, -5.0); // break positive definiteness
        let err = cholesky(&a, &GemmConfig::default()).unwrap_err();
        assert!(err.indefinite_column().expect("numerical failure") <= 3);
    }

    #[test]
    fn solve_recovers() {
        let n = 80;
        let a = spd(n, 7);
        let x_true = Matrix::random(n, 3, 8);
        let mut b = Matrix::zeros(n, 3);
        naive_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &x_true.view(),
            0.0,
            &mut b.view_mut(),
        );
        let l = cholesky(&a, &GemmConfig::default()).unwrap();
        let x = cholesky_solve(&l, &b, &GemmConfig::default()).unwrap();
        assert!(
            x.max_abs_diff(&x_true) < 1e-8,
            "{}",
            x.max_abs_diff(&x_true)
        );
    }

    #[test]
    fn flops_convention() {
        assert!((cholesky_flops(300) - 9.0e6).abs() < 1.0);
    }
}
