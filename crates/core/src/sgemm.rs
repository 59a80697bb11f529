//! Single-precision GEMM — the design the paper's analytic method
//! produces when re-run with `element = 4` bytes (four f32 lanes per
//! 128-bit register):
//!
//! - register block **12×8** with γ = 9.6 (vs 8×6 / 6.857 for f64),
//!   the optimum of equations (8)–(11) with the lane constraint
//!   generalized to multiples of 4;
//! - cache blocking `kc×mc×nc = 768×48×2560` serial on the paper's
//!   machine (equations (15), (17), (18) in bytes, so halving the
//!   element size roughly doubles `kc`).
//!
//! See the `ext_sgemm_design` study for the full derivation. Nothing here
//! is a second implementation: the configuration is [`Config`] and the
//! checked entry [`crate::blas::checked_gemm`], both at the f32
//! [`KernelFamily`] this module defines — the kernel table, the `"f32"`
//! tune-DB key and the machine description's element size are all that
//! differ from DGEMM.

#![forbid(unsafe_code)]

use crate::blas::{checked_gemm, checked_gemm_slice};
use crate::gemm::{Config, KernelFamily};
use crate::matrix::{MatrixView, MatrixViewMut};
use crate::microkernel::SgemmKernelKind;
use crate::{GemmError, Transpose};
use perfmodel::MachineDesc;

/// The paper's machine re-described for f32 elements.
#[must_use]
pub fn machine_f32() -> MachineDesc {
    let mut m = MachineDesc::xgene();
    m.element_bytes = 4;
    // one 128-bit FMA = 8 f32 flops every 2 cycles
    m.flops_per_cycle = 4.0;
    m
}

impl KernelFamily for SgemmKernelKind {
    type Elem = f32;
    const ALL: &'static [Self] = &SgemmKernelKind::ALL;
    const DEFAULT: Self = SgemmKernelKind::Sk12x8;
    const DTYPE: &'static str = "f32";

    fn machine() -> MachineDesc {
        machine_f32()
    }
}

/// Configuration of one SGEMM invocation: the single-precision kernels,
/// blocked with `element = 4`.
pub type SgemmConfig = Config<SgemmKernelKind>;

/// [`checked_gemm`] in single precision — the f32 sibling of
/// [`crate::blas::dgemm`].
#[allow(clippy::too_many_arguments)] // canonical BLAS signature
pub fn sgemm(
    transa: Transpose,
    transb: Transpose,
    alpha: f32,
    a: &MatrixView<'_, f32>,
    b: &MatrixView<'_, f32>,
    beta: f32,
    c: &mut MatrixViewMut<'_, f32>,
    cfg: &SgemmConfig,
) -> Result<(), GemmError> {
    checked_gemm(transa, transb, alpha, a, b, beta, c, cfg)
}

/// [`checked_gemm_slice`] in single precision — the f32 sibling of
/// [`crate::blas::dgemm_slice`].
#[allow(clippy::too_many_arguments)]
pub fn sgemm_slice(
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    cfg: &SgemmConfig,
) -> Result<(), GemmError> {
    checked_gemm_slice(
        transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference::naive_gemm;

    /// f32 tolerance for a rank-k accumulation.
    fn tol32(k: usize) -> f64 {
        32.0 * k.max(1) as f64 * f64::from(f32::EPSILON)
    }

    #[allow(clippy::too_many_arguments)]
    fn check(
        kind: SgemmKernelKind,
        m: usize,
        n: usize,
        k: usize,
        ta: Transpose,
        tb: Transpose,
        alpha: f32,
        beta: f32,
        threads: usize,
    ) {
        let (ar, ac) = match ta {
            Transpose::No => (m, k),
            Transpose::Yes => (k, m),
        };
        let (br, bc) = match tb {
            Transpose::No => (k, n),
            Transpose::Yes => (n, k),
        };
        let a: Matrix<f32> = Matrix::random(ar, ac, 91);
        let b: Matrix<f32> = Matrix::random(br, bc, 92);
        let c0: Matrix<f32> = Matrix::random(m, n, 93);

        let mut want = c0.clone();
        naive_gemm(
            ta,
            tb,
            alpha,
            &a.view(),
            &b.view(),
            beta,
            &mut want.view_mut(),
        );

        let mut got = c0.clone();
        let cfg =
            SgemmConfig::for_kernel(kind, threads).with_blocks(24, kind.mr() * 2, kind.nr() * 3);
        sgemm(
            ta,
            tb,
            alpha,
            &a.view(),
            &b.view(),
            beta,
            &mut got.view_mut(),
            &cfg,
        )
        .unwrap();

        let err = got.max_abs_diff(&want);
        assert!(
            err < tol32(k),
            "{} m={m} n={n} k={k}: err {err}",
            kind.label()
        );
    }

    #[test]
    fn analytic_blocking_for_f32() {
        // the ext_sgemm_design numbers: 12x8 kernel, 768x48x2560 serial
        let cfg = SgemmConfig::default();
        assert_eq!(cfg.kernel, SgemmKernelKind::Sk12x8);
        assert_eq!(cfg.blocks.label(), "12x8x768x48x2560");
    }

    #[test]
    fn all_f32_kernels_match_oracle() {
        for kind in SgemmKernelKind::ALL {
            check(kind, 50, 40, 30, Transpose::No, Transpose::No, 1.0, 0.0, 1);
            check(kind, 37, 29, 41, Transpose::No, Transpose::No, 1.5, 1.0, 1);
        }
    }

    #[test]
    fn f32_transposes_and_threads() {
        check(
            SgemmKernelKind::Sk12x8,
            45,
            33,
            27,
            Transpose::Yes,
            Transpose::No,
            1.0,
            -0.5,
            1,
        );
        check(
            SgemmKernelKind::Sk12x8,
            80,
            40,
            32,
            Transpose::No,
            Transpose::Yes,
            2.0,
            0.0,
            4,
        );
    }

    #[test]
    fn f32_full_analytic_blocking() {
        let m = 100;
        let n = 64;
        let k = 900; // crosses kc = 768
        let a: Matrix<f32> = Matrix::random(m, k, 5);
        let b: Matrix<f32> = Matrix::random(k, n, 6);
        let mut want: Matrix<f32> = Matrix::zeros(m, n);
        naive_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut want.view_mut(),
        );
        let mut got: Matrix<f32> = Matrix::zeros(m, n);
        sgemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut got.view_mut(),
            &SgemmConfig::default(),
        )
        .unwrap();
        assert!(got.max_abs_diff(&want) < tol32(k));
    }

    #[test]
    fn slice_api_with_padded_ld() {
        // 3x2 matrices embedded in buffers with ld 5, mirroring the
        // dgemm_slice test so both precisions guard the same contract.
        let mut a = vec![0.0f32; 5 * 2];
        let mut b = vec![0.0f32; 5 * 2];
        a[0] = 1.0;
        a[1] = 3.0;
        a[2] = 5.0;
        a[5] = 2.0;
        a[6] = 4.0;
        a[7] = 6.0;
        b[0] = 1.0;
        b[6] = 1.0;
        let mut c = vec![0.0f32; 5 * 2];
        sgemm_slice(
            Transpose::No,
            Transpose::No,
            3,
            2,
            2,
            1.0,
            &a,
            5,
            &b,
            5,
            0.0,
            &mut c,
            5,
            &SgemmConfig::default(),
        )
        .unwrap();
        assert_eq!(&c[0..3], &[1.0, 3.0, 5.0]);
        assert_eq!(&c[5..8], &[2.0, 4.0, 6.0]);
        assert_eq!(c[3], 0.0);
        assert_eq!(c[4], 0.0);
    }
}
