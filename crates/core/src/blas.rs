//! BLAS-style checked entry points.
//!
//! [`checked_gemm`] is the one checked entry of the library, generic over
//! the kernel family: it returns structured errors instead of `XERBLA`
//! aborts. [`dgemm`] is it at the paper's kernels, mirroring cblas
//! `cblas_dgemm` for column-major `f64` operands ([`crate::sgemm::sgemm`]
//! is the `f32` one); the `_slice` variants accept raw column-major slices
//! with explicit leading dimensions for drop-in use from FFI-shaped code.

#![forbid(unsafe_code)]

use crate::gemm::{try_gemm, Config, GemmConfig, KernelFamily};
use crate::matrix::{region_fits, MatrixView, MatrixViewMut};
use crate::{GemmError, Transpose};

/// `C := α·op(A)·op(B) + β·C` with full dimension checking, in the
/// precision of `cfg`'s kernel family.
#[allow(clippy::too_many_arguments)] // canonical BLAS gemm signature
pub fn checked_gemm<K: KernelFamily>(
    transa: Transpose,
    transb: Transpose,
    alpha: K::Elem,
    a: &MatrixView<'_, K::Elem>,
    b: &MatrixView<'_, K::Elem>,
    beta: K::Elem,
    c: &mut MatrixViewMut<'_, K::Elem>,
    cfg: &Config<K>,
) -> Result<(), GemmError> {
    let (m, ka) = transa.apply_dims(a.rows(), a.cols());
    let (kb, n) = transb.apply_dims(b.rows(), b.cols());
    if ka != kb {
        return Err(GemmError::InnerDimMismatch {
            a_cols: ka,
            b_rows: kb,
        });
    }
    if (c.rows(), c.cols()) != (m, n) {
        return Err(GemmError::OutputDimMismatch {
            expected: (m, n),
            actual: (c.rows(), c.cols()),
        });
    }
    if cfg.blocks.kc == 0 || cfg.blocks.mc == 0 || cfg.blocks.nc == 0 {
        return Err(GemmError::BadConfig("block sizes must be positive"));
    }
    if cfg.blocks.mr != cfg.kernel.mr() || cfg.blocks.nr != cfg.kernel.nr() {
        return Err(GemmError::BadConfig(
            "blocking register shape != kernel shape",
        ));
    }
    cfg.parallelism.validate()?;
    try_gemm(transa, transb, alpha, a, b, beta, c, cfg)
}

/// Raw-slice variant of [`checked_gemm`]: column-major `a`
/// (`lda ≥ rows(A)`), `b`, `c` analogous; `m, n, k` are the dimensions of
/// `op(A)·op(B)`. An operand whose leading dimension is below its rows,
/// or whose slice ends before its last element (or whose extent
/// `(cols − 1)·ld + rows` overflows), is a [`GemmError::BadConfig`]
/// naming it.
#[allow(clippy::too_many_arguments)]
pub fn checked_gemm_slice<K: KernelFamily>(
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: K::Elem,
    a: &[K::Elem],
    lda: usize,
    b: &[K::Elem],
    ldb: usize,
    beta: K::Elem,
    c: &mut [K::Elem],
    ldc: usize,
    cfg: &Config<K>,
) -> Result<(), GemmError> {
    let (ar, ac) = match transa {
        Transpose::No => (m, k),
        Transpose::Yes => (k, m),
    };
    let (br, bc) = match transb {
        Transpose::No => (k, n),
        Transpose::Yes => (n, k),
    };
    let operands = [
        (
            ar,
            ac,
            lda,
            a.len(),
            "lda is below the rows of A, or a is too short",
        ),
        (
            br,
            bc,
            ldb,
            b.len(),
            "ldb is below the rows of B, or b is too short",
        ),
        (
            m,
            n,
            ldc,
            c.len(),
            "ldc is below the rows of C, or c is too short",
        ),
    ];
    for (rows, cols, ld, len, misfit) in operands {
        if !region_fits(rows, cols, ld, len) {
            return Err(GemmError::BadConfig(misfit));
        }
    }
    let av = MatrixView::from_slice(ar, ac, lda, a);
    let bv = MatrixView::from_slice(br, bc, ldb, b);
    let mut cv = MatrixViewMut::from_slice(m, n, ldc, c);
    checked_gemm(transa, transb, alpha, &av, &bv, beta, &mut cv, cfg)
}

/// [`checked_gemm`] in double precision.
#[allow(clippy::too_many_arguments)] // canonical BLAS dgemm signature
pub fn dgemm(
    transa: Transpose,
    transb: Transpose,
    alpha: f64,
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    cfg: &GemmConfig,
) -> Result<(), GemmError> {
    checked_gemm(transa, transb, alpha, a, b, beta, c, cfg)
}

/// [`checked_gemm_slice`] in double precision.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_slice(
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    cfg: &GemmConfig,
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
    use crate::scalar::Scalar;
    use crate::util::gemm_tolerance;

    #[test]
    fn checked_path_computes() {
        let a = Matrix::random(20, 30, 1);
        let b = Matrix::random(30, 10, 2);
        let mut c = Matrix::zeros(20, 10);
        dgemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &GemmConfig::default(),
        )
        .unwrap();
        let mut expected = Matrix::zeros(20, 10);
        naive_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut expected.view_mut(),
        );
        assert!(c.max_abs_diff(&expected) < gemm_tolerance(30, 1.0));
    }

    #[test]
    fn transpose_changes_required_shapes() {
        let a = Matrix::zeros(5, 4); // op(A) = A^T is 4x5
        let b = Matrix::zeros(5, 3);
        let mut c = Matrix::zeros(4, 3);
        dgemm(
            Transpose::Yes,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &GemmConfig::default(),
        )
        .unwrap();
    }

    /// A checked entry at one kernel family, as `dgemm` and `sgemm` are.
    type Entry<K> = fn(
        Transpose,
        Transpose,
        <K as KernelFamily>::Elem,
        &MatrixView<'_, <K as KernelFamily>::Elem>,
        &MatrixView<'_, <K as KernelFamily>::Elem>,
        <K as KernelFamily>::Elem,
        &mut MatrixViewMut<'_, <K as KernelFamily>::Elem>,
        &Config<K>,
    ) -> Result<(), GemmError>;

    /// What `entry` answers to each kind of bad input, in a fixed order.
    /// `other` is a kernel of the family that is not its default.
    fn bad_input_errors<K: KernelFamily>(other: K, entry: Entry<K>) -> Vec<GemmError> {
        let zeros = Matrix::<K::Elem>::zeros;
        let run = |(ar, ac), (br, bc), (cr, cc), cfg: Config<K>| {
            let (a, b, mut c) = (zeros(ar, ac), zeros(br, bc), zeros(cr, cc));
            let (one, zero) = (K::Elem::ONE, K::Elem::ZERO);
            let (no, mut cv) = (Transpose::No, c.view_mut());
            entry(no, no, one, &a.view(), &b.view(), zero, &mut cv, &cfg).unwrap_err()
        };
        let good = Config::<K>::default();
        let mut wrong_shape = good;
        wrong_shape.kernel = other; // the blocking still says the default's
        vec![
            run((4, 5), (6, 3), (4, 3), good),
            run((4, 5), (5, 3), (4, 4), good),
            run((2, 2), (2, 2), (2, 2), good.with_blocks(0, 8, 8)),
            run((2, 2), (2, 2), (2, 2), wrong_shape),
            run(
                (2, 2),
                (2, 2),
                (2, 2),
                good.with_parallelism(crate::pool::Parallelism::Pool(0)),
            ),
        ]
    }

    #[test]
    fn dgemm_and_sgemm_answer_bad_input_with_the_same_error() {
        use crate::microkernel::{MicroKernelKind, SgemmKernelKind};
        let double = bad_input_errors(MicroKernelKind::Mk4x4, dgemm);
        let single = bad_input_errors(SgemmKernelKind::Sk4x4, crate::sgemm::sgemm);
        assert_eq!(double, single);
        assert_eq!(
            double,
            [
                GemmError::InnerDimMismatch {
                    a_cols: 5,
                    b_rows: 6
                },
                GemmError::OutputDimMismatch {
                    expected: (4, 3),
                    actual: (4, 4)
                },
                GemmError::BadConfig("block sizes must be positive"),
                GemmError::BadConfig("blocking register shape != kernel shape"),
                GemmError::BadConfig("thread count must be positive"),
            ]
        );
        assert!(double[1].to_string().contains("4x4"));
    }

    /// What the slice entry of `K`'s precision (`dgemm_slice`,
    /// `sgemm_slice`) answers to a 3×2×2 call (A 3×2, B 2×2, C 3×2) when
    /// one operand does not fit its slice: for A, B and C in turn, a
    /// leading dimension below the rows, a slice one element short, and
    /// an extent `(cols − 1)·ld + rows` past `usize::MAX`.
    fn misfit_errors<K: KernelFamily>() -> Vec<GemmError> {
        let rows = [3, 2, 3];
        let mut errors = Vec::new();
        for (operand, r) in rows.into_iter().enumerate() {
            for (bad_ld, bad_len) in [(r - 1, 2 * r), (r, 2 * r - 1), (usize::MAX, 2 * r)] {
                let (mut ld, mut len) = (rows, rows.map(|r| 2 * r));
                (ld[operand], len[operand]) = (bad_ld, bad_len);
                let zeros = |len| vec![K::Elem::ZERO; len];
                let (a, b, mut c) = (zeros(len[0]), zeros(len[1]), zeros(len[2]));
                let (no, one, zero) = (Transpose::No, K::Elem::ONE, K::Elem::ZERO);
                let cfg = Config::<K>::default();
                let result = checked_gemm_slice(
                    no, no, 3, 2, 2, one, &a, ld[0], &b, ld[1], zero, &mut c, ld[2], &cfg,
                );
                errors.push(result.unwrap_err());
            }
        }
        errors
    }

    #[test]
    fn slice_entries_answer_an_operand_that_does_not_fit_with_an_error() {
        use crate::microkernel::{MicroKernelKind, SgemmKernelKind};
        let double = misfit_errors::<MicroKernelKind>();
        assert_eq!(double, misfit_errors::<SgemmKernelKind>());
        let named = [
            "lda is below the rows of A, or a is too short",
            "ldb is below the rows of B, or b is too short",
            "ldc is below the rows of C, or c is too short",
        ];
        let expected = named.map(|msg| std::iter::repeat_n(GemmError::BadConfig(msg), 3));
        assert_eq!(double, expected.into_iter().flatten().collect::<Vec<_>>());
    }

    #[test]
    fn slice_api_with_padded_ld() {
        // 3x2 matrices embedded in buffers with ld 5
        let mut a = vec![0.0; 5 * 2];
        let mut b = vec![0.0; 5 * 2];
        // A = [[1,2],[3,4],[5,6]] col-major with ld 5
        a[0] = 1.0;
        a[1] = 3.0;
        a[2] = 5.0;
        a[5] = 2.0;
        a[6] = 4.0;
        a[7] = 6.0;
        // B = [[1,0],[0,1]] (2x2, ld 5)
        b[0] = 1.0;
        b[6] = 1.0;
        let mut c = vec![0.0; 5 * 2];
        dgemm_slice(
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
            &GemmConfig::default(),
        )
        .unwrap();
        assert_eq!(&c[0..3], &[1.0, 3.0, 5.0]);
        assert_eq!(&c[5..8], &[2.0, 4.0, 6.0]);
        // padding untouched
        assert_eq!(c[3], 0.0);
        assert_eq!(c[4], 0.0);
    }
}
