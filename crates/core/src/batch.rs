//! Batched GEMM with shared-operand packing amortization.
//!
//! Packing is pure overhead the paper's blocking amortizes over one
//! multiplication; when *many* small multiplications share an operand
//! (one weight matrix against many inputs, one basis against many
//! right-hand sides), the packed form can be reused across the whole
//! batch — the packing cost is paid once instead of `batch` times. This
//! module exposes that reuse: it checks the batch and hands it to the
//! driver every GEMM goes through (`gemm::gemm_driver`). The one walk
//! stacks the entries' rows and cuts them into full `mc` blocks, which
//! may straddle entries: sixteen-row requests fill the kernel's row
//! groups and share one pass over each B sliver per block, not one per
//! entry. A caller that multiplies against the same weight call after
//! call holds its panels instead ([`gemm_batch_prepacked`]): then no
//! call packs B at all.

#![forbid(unsafe_code)]

use crate::gemm::GemmConfig;
use crate::matrix::{MatrixView, MatrixViewMut};
use crate::pool::BOperand;
use crate::prepack::PrepackedB;
use crate::{GemmError, Transpose};

/// `C_i := α·A_i·op(B) + β·C_i` for every `(A_i, C_i)` pair, against
/// one shared `op(B)`. The entries' rows are stacked into `mc` blocks,
/// so B is read by `⌈m·batch/mc⌉` GEBPs per `(jj, kk)` macro-iteration,
/// and where it comes from is the rule a plain `gemm` call of that many
/// rows follows (DESIGN.md, "When B is packed"): read in place by a SIMD
/// kernel, or by any kernel while the rows fit one block (two 16-row
/// entries, say), and otherwise packed once per macro-iteration — by
/// each cell of the grid for its own columns — and reused across the
/// batch. Each `C_i` is bit-identical to its own `gemm` call.
///
/// All `A_i` must share dimensions `m×k` (stored, non-transposed), all
/// `C_i` must be `m×n`.
pub fn gemm_batch_shared_b(
    alpha: f64,
    a_batch: &[MatrixView<'_>],
    transb: Transpose,
    b: &MatrixView<'_>,
    beta: f64,
    c_batch: &mut [MatrixViewMut<'_>],
    cfg: &GemmConfig,
) -> Result<(), GemmError> {
    check(a_batch, transb.apply_dims(b.rows(), b.cols()), c_batch, cfg)?;
    crate::gemm::gemm_stored_b(Transpose::No, transb, alpha, a_batch, b, beta, c_batch, cfg)
}

/// [`gemm_batch_shared_b`] against `op(B)` packed before the call — `k`,
/// `n` and the selector are the panels' — so no call packs B: the
/// entry for a caller that holds its weights' panels, built once
/// ([`PrepackedB::from_matrix_op`]) or loaded from the weight store
/// ([`crate::store::load`]). Each `C_i` is bit-identical to its own
/// `gemm` call on the B the panels were packed from. Panels packed with
/// another sliver width, `kc` or `nc` than `cfg`'s are a
/// [`GemmError::BadConfig`]; panels for another `k` or `n` are the shape
/// errors a stored B of that shape would give.
pub fn gemm_batch_prepacked(
    alpha: f64,
    a_batch: &[MatrixView<'_>],
    b: &PrepackedB,
    beta: f64,
    c_batch: &mut [MatrixViewMut<'_>],
    cfg: &GemmConfig,
) -> Result<(), GemmError> {
    check(a_batch, (b.k(), b.n()), c_batch, cfg)?;
    if (b.nr(), b.kc(), b.nc()) != (cfg.kernel.nr(), cfg.blocks.kc, cfg.blocks.nc) {
        return Err(GemmError::BadConfig(
            "prepacked panels' blocking is not the config's",
        ));
    }
    let b = BOperand::Prepacked(b);
    crate::gemm::gemm_driver(Transpose::No, alpha, a_batch, b, beta, c_batch, cfg)
}

/// The shapes both entries require, against `op(B)`'s `(k, n)`: as many
/// C as A, every `A_i` alike and `k` deep, every `C_i` `m×n`, and a
/// blocking whose register shape is the kernel's.
fn check(
    a_batch: &[MatrixView<'_>],
    (kb, n): (usize, usize),
    c_batch: &[MatrixViewMut<'_>],
    cfg: &GemmConfig,
) -> Result<(), GemmError> {
    if a_batch.len() != c_batch.len() {
        return Err(GemmError::BadConfig("batch lengths differ"));
    }
    let Some(first_a) = a_batch.first() else {
        return Ok(());
    };
    let (m, k) = (first_a.rows(), first_a.cols());
    if k != kb {
        return Err(GemmError::InnerDimMismatch {
            a_cols: k,
            b_rows: kb,
        });
    }
    for (a, c) in a_batch.iter().zip(c_batch.iter()) {
        if (a.rows(), a.cols()) != (m, k) {
            return Err(GemmError::BadConfig("batch A shapes differ"));
        }
        if (c.rows(), c.cols()) != (m, n) {
            return Err(GemmError::OutputDimMismatch {
                expected: (m, n),
                actual: (c.rows(), c.cols()),
            });
        }
    }
    if cfg.blocks.mr != cfg.kernel.mr() || cfg.blocks.nr != cfg.kernel.nr() {
        return Err(GemmError::BadConfig(
            "blocking register shape != kernel shape",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::microkernel::MicroKernelKind;
    use crate::reference::naive_gemm;
    use crate::util::gemm_tolerance;

    fn check_batch(batch: usize, m: usize, n: usize, k: usize, transb: Transpose, beta: f64) {
        let a_mats: Vec<Matrix> = (0..batch)
            .map(|i| Matrix::random(m, k, 50 + i as u64))
            .collect();
        let (br, bc) = match transb {
            Transpose::No => (k, n),
            Transpose::Yes => (n, k),
        };
        let b = Matrix::random(br, bc, 99);
        let c0: Vec<Matrix> = (0..batch)
            .map(|i| Matrix::random(m, n, 70 + i as u64))
            .collect();

        let mut want = c0.clone();
        for (a, c) in a_mats.iter().zip(want.iter_mut()) {
            naive_gemm(
                Transpose::No,
                transb,
                1.5,
                &a.view(),
                &b.view(),
                beta,
                &mut c.view_mut(),
            );
        }

        let mut got = c0.clone();
        let a_views: Vec<MatrixView<'_>> = a_mats.iter().map(Matrix::view).collect();
        let mut c_views: Vec<MatrixViewMut<'_>> = got.iter_mut().map(Matrix::view_mut).collect();
        let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1).with_blocks(24, 16, 18);
        gemm_batch_shared_b(1.5, &a_views, transb, &b.view(), beta, &mut c_views, &cfg).unwrap();
        drop(c_views);

        for (g, w) in got.iter().zip(&want) {
            assert!(
                g.max_abs_diff(w) < gemm_tolerance(k, 2.0),
                "batch element diverges: {}",
                g.max_abs_diff(w)
            );
        }
    }

    #[test]
    fn batch_matches_individual_gemms() {
        check_batch(4, 30, 25, 20, Transpose::No, 0.0);
        check_batch(3, 41, 17, 29, Transpose::No, 1.0);
    }

    #[test]
    fn batch_with_transposed_shared_operand() {
        check_batch(3, 24, 30, 16, Transpose::Yes, -0.5);
    }

    #[test]
    fn empty_batch_is_noop() {
        let b = Matrix::zeros(4, 4);
        let mut cs: Vec<MatrixViewMut<'_>> = Vec::new();
        gemm_batch_shared_b(
            1.0,
            &[],
            Transpose::No,
            &b.view(),
            0.0,
            &mut cs,
            &GemmConfig::default(),
        )
        .unwrap();
    }

    #[test]
    fn shape_errors_detected() {
        let a1 = Matrix::zeros(4, 3);
        let a2 = Matrix::zeros(5, 3); // wrong shape
        let b = Matrix::zeros(3, 2);
        let mut c1 = Matrix::zeros(4, 2);
        let mut c2 = Matrix::zeros(4, 2);
        let a_views = [a1.view(), a2.view()];
        let mut c_views = vec![c1.view_mut(), c2.view_mut()];
        assert!(matches!(
            gemm_batch_shared_b(
                1.0,
                &a_views,
                Transpose::No,
                &b.view(),
                0.0,
                &mut c_views,
                &GemmConfig::default()
            ),
            Err(GemmError::BadConfig(_))
        ));
    }

    #[test]
    fn mismatched_batch_lengths_detected() {
        let a = Matrix::zeros(4, 3);
        let b = Matrix::zeros(3, 2);
        let a_views = [a.view()];
        let mut c_views: Vec<MatrixViewMut<'_>> = Vec::new();
        assert!(matches!(
            gemm_batch_shared_b(
                1.0,
                &a_views,
                Transpose::No,
                &b.view(),
                0.0,
                &mut c_views,
                &GemmConfig::default()
            ),
            Err(GemmError::BadConfig(_))
        ));
    }
}
