//! Seeded inputs and their verification. Everything a workload feeds the
//! library derives from `--seed`; the library sees only the matrices.

use dgemm_core::matrix::{Matrix, MatrixView};
use dgemm_core::util::{gemm_tolerance, SplitMix64};

/// Independent sub-seed for input stream `stream` of a run seeded with
/// `seed` (one SplitMix64 step over the pair, so nearby seeds and
/// streams do not alias).
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// FNV-1a over the element bits: the input checksum stamped on outputs
/// and compared by the same-seed self-test.
pub fn checksum(m: &Matrix) -> u64 {
    combine(m.as_slice().iter().map(|x| x.to_bits()))
}

/// FNV-1a over 64-bit words; also folds several checksums into one.
pub fn combine(sums: impl IntoIterator<Item = u64>) -> u64 {
    sums.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, s| {
        (h ^ s).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A seeded visiting order of `0..n` (Fisher-Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i + 1));
    }
    order
}

/// Freivalds check vector: entries in `[0.5, 1)`, so every element of C
/// carries weight and no single corruption can hide behind a tiny `x_j`.
pub fn check_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| 0.5 + 0.5 * rng.next_f64()).collect()
}

/// `M · x` for a column-major view (one axpy per column).
pub fn mat_vec(m: &MatrixView<'_>, x: &[f64]) -> Vec<f64> {
    assert_eq!(m.cols(), x.len());
    let mut y = vec![0.0; m.rows()];
    for (j, &xj) in x.iter().enumerate() {
        for (yi, &mij) in y.iter_mut().zip(m.col(j)) {
            *yi += mij * xj;
        }
    }
    y
}

/// Freivalds' check of `C = A·B` in O(n²): `‖C·x − A·(B·x)‖∞` against
/// the library's own GEMM tolerance. `bx` is `B·x`, precomputed once
/// per B. Inputs lie in `[-1, 1)` and `x` in `[0.5, 1)`, so each entry
/// of `C·x` sums `n` elements of C, each carrying at most
/// `gemm_tolerance(k, 1)` of error: the bound is `gemm_tolerance(k, n)`.
/// Returns the observed error when it exceeds the bound.
pub fn freivalds(a: &MatrixView<'_>, bx: &[f64], c: &MatrixView<'_>, x: &[f64]) -> Result<(), f64> {
    let cx = mat_vec(c, x);
    let abx = mat_vec(a, bx);
    let err = cx
        .iter()
        .zip(&abx)
        .map(|(p, q)| (p - q).abs())
        // `f64::max` drops NaN; a NaN anywhere in C must fail the check.
        .fold(0.0f64, |m, e| {
            if m.is_nan() || e.is_nan() {
                f64::NAN
            } else {
                m.max(e)
            }
        });
    if err <= gemm_tolerance(a.cols(), c.cols() as f64) {
        Ok(())
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgemm_core::reference::naive_gemm;
    use dgemm_core::Transpose;

    fn product(m: usize, n: usize, k: usize) -> (Matrix, Matrix, Matrix) {
        let a = Matrix::random(m, k, derive(5, 1));
        let b = Matrix::random(k, n, derive(5, 2));
        let mut c = Matrix::zeros(m, n);
        naive_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
        );
        (a, b, c)
    }

    /// Freivalds accepts a correct product and rejects one corrupted
    /// element, wherever it sits.
    #[test]
    fn freivalds_rejects_a_single_corrupted_element() {
        let (m, n, k) = (24, 40, 64);
        let (a, b, mut c) = product(m, n, k);
        let x = check_vector(n, 9);
        let bx = mat_vec(&b.view(), &x);
        assert!(freivalds(&a.view(), &bx, &c.view(), &x).is_ok());
        for (i, j) in [(0, 0), (m - 1, n - 1), (7, 13)] {
            let good = c.get(i, j);
            c.set(i, j, good + 1e-6);
            assert!(
                freivalds(&a.view(), &bx, &c.view(), &x).is_err(),
                "missed corruption at ({i},{j})"
            );
            c.set(i, j, f64::NAN);
            assert!(freivalds(&a.view(), &bx, &c.view(), &x).is_err());
            c.set(i, j, good);
        }
        assert!(freivalds(&a.view(), &bx, &c.view(), &x).is_ok());
    }

    #[test]
    fn derived_streams_differ_and_repeat() {
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
        let order = shuffled(48, derive(3, 0));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<_>>());
        assert_eq!(order, shuffled(48, derive(3, 0)));
    }
}
