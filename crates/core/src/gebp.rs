//! Layers 4–6 of Figure 2: GEBP, decomposed into GEBS (loop over B
//! slivers) and GESS (loop over A slivers, i.e. the BLIS micro-kernel
//! loop).
//!
//! One GEBP call multiplies an `mc×kc` packed block of A with a `kc×nc`
//! panel of B and accumulates `α·A·B` into an `mc×nc` tile of C. The
//! panel is a [`BPanel`]: a [`PackedB`], or — when no second GEBP would
//! reuse the packed copy (DESIGN.md, "When B is packed") — a [`BWindow`]
//! on the caller's own matrix, which the same register kernels read
//! through its strides.

#![forbid(unsafe_code)]

use crate::matrix::MatrixView;
use crate::microkernel::{BLayout, KernelSet};
use crate::pack::{PackedA, PackedB};
use crate::scalar::Scalar;
use crate::tile::TileMut;
use crate::Transpose;

/// A `kc×nc` panel of `op(B)` as GEBP consumes it: `⌈nc/nr⌉` slivers of
/// `nr` columns (the last one possibly narrower), each handed to a
/// register kernel as a slice plus the strides that address it.
pub trait BPanel<T: Scalar> {
    /// Depth of the panel.
    fn kc(&self) -> usize;
    /// Unpadded columns of the panel.
    fn nc(&self) -> usize;
    /// Sliver width.
    fn nr(&self) -> usize;
    /// How a kernel addresses one sliver.
    fn layout(&self) -> BLayout;
    /// Sliver `s`, starting at its element `(0, 0)`.
    fn sliver(&self, s: usize) -> &[T];
}

impl<T: Scalar> BPanel<T> for PackedB<T> {
    fn kc(&self) -> usize {
        PackedB::kc(self)
    }
    fn nc(&self) -> usize {
        PackedB::nc(self)
    }
    fn nr(&self) -> usize {
        PackedB::nr(self)
    }
    fn layout(&self) -> BLayout {
        BLayout::Packed
    }
    fn sliver(&self, s: usize) -> &[T] {
        PackedB::sliver(self, s)
    }
}

/// Rows `k0..k0+kc`, columns `j0..j0+nc` of `op(b)`, read where the
/// caller stored them.
#[derive(Clone, Copy, Debug)]
pub struct BWindow<'a, T: Scalar = f64> {
    /// From element `(k0, j0)` of `op(b)` to the end of the view's slice.
    data: &'a [T],
    ks: usize,
    cs: usize,
    kc: usize,
    nc: usize,
    nr: usize,
}

impl<'a, T: Scalar> BWindow<'a, T> {
    /// The window, cut into slivers of `nr` columns. Panics unless it
    /// lies inside `op(b)`.
    #[must_use]
    pub fn new(
        b: &MatrixView<'a, T>,
        trans: Transpose,
        k0: usize,
        j0: usize,
        kc: usize,
        nc: usize,
        nr: usize,
    ) -> Self {
        let (k, n) = trans.apply_dims(b.rows(), b.cols());
        assert!(
            k0 <= k && kc <= k - k0 && j0 <= n && nc <= n - j0,
            "B window outside op(B)"
        );
        assert!(nr > 0, "sliver width must be positive");
        // op(B)(k, j) is B(k, j) or B(j, k), at `row + col·ld`
        let (ks, cs) = match trans {
            Transpose::No => (1, b.ld()),
            Transpose::Yes => (b.ld(), 1),
        };
        // (an empty window may start past the last element: clamp)
        let start = (k0 * ks + j0 * cs).min(b.data().len());
        BWindow {
            data: &b.data()[start..],
            ks,
            cs,
            kc,
            nc,
            nr,
        }
    }
}

impl<T: Scalar> BPanel<T> for BWindow<'_, T> {
    fn kc(&self) -> usize {
        self.kc
    }
    fn nc(&self) -> usize {
        self.nc
    }
    fn nr(&self) -> usize {
        self.nr
    }
    fn layout(&self) -> BLayout {
        BLayout::Strided {
            ks: self.ks,
            cs: self.cs,
        }
    }
    fn sliver(&self, s: usize) -> &[T] {
        assert!(s * self.nr < self.nc, "sliver index out of range");
        &self.data[s * self.nr * self.cs..]
    }
}

/// GEBP (layer 4): `C_tile += α · packed_a · b` — generic over the scalar
/// type, the kernel family and where the B panel lives.
///
/// The tile must be `packed_a.mc() × b.nc()`; the operands must share the
/// same `kc`.
pub fn gebp<T: Scalar, K: KernelSet<T>>(
    kind: K,
    alpha: T,
    packed_a: &PackedA<T>,
    b: &impl BPanel<T>,
    c: &mut TileMut<'_, T>,
) {
    assert_eq!(c.cols(), b.nc(), "tile cols != nc");
    gebp_slivers(kind, alpha, packed_a, b, 0, b.nc(), c);
}

/// GEBP over a *sliver range* of the panel: accumulates
/// `α · packed_a · b[:, s0·nr .. s0·nr + cols]` into the
/// `packed_a.mc() × cols` tile `c`.
///
/// This is the compute half of a 2-D grid cell (DESIGN.md §13): several
/// cells share one packed (or cached, [`crate::prepack::PrepackedB`])
/// panel, each owning a disjoint whole-sliver column range of it. The
/// range must start on a sliver boundary — `s0` is a sliver index, and
/// per-element results are identical to a full-width [`gebp`] because
/// each C element still receives exactly one kernel call with the same
/// k-accumulation order.
pub fn gebp_slivers<T: Scalar, K: KernelSet<T>>(
    kind: K,
    alpha: T,
    packed_a: &PackedA<T>,
    b: &impl BPanel<T>,
    s0: usize,
    cols: usize,
    c: &mut TileMut<'_, T>,
) {
    gebp_slivers_with(kind, alpha, false, packed_a, b, s0, cols, c);
}

/// [`gebp_slivers`], or with `overwrite` its store: `c = α · packed_a ·
/// b[…]`, C never read — the first `kk` panel of a `β = 0` call. Each
/// element gets the bits `gebp_slivers` leaves on a C of `+0.0`
/// ([`KernelSet::run_group_with`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gebp_slivers_with<T: Scalar, K: KernelSet<T>>(
    kind: K,
    alpha: T,
    overwrite: bool,
    packed_a: &PackedA<T>,
    b: &impl BPanel<T>,
    s0: usize,
    cols: usize,
    c: &mut TileMut<'_, T>,
) {
    assert_eq!(packed_a.kc(), b.kc(), "packed depths differ");
    assert_eq!(packed_a.mr(), kind.mr(), "A packed for a different kernel");
    assert_eq!(b.nr(), kind.nr(), "B packed for a different kernel");
    assert_eq!(c.rows(), packed_a.mc(), "tile rows != mc");
    assert_eq!(c.cols(), cols, "tile cols != sliver-range width");

    let kc = packed_a.kc();
    let (mr, nr) = (kind.mr(), kind.nr());
    let mc = packed_a.mc();
    assert!(
        s0 * nr.max(1) + cols <= b.nc(),
        "sliver range exceeds panel"
    );

    // Telemetry choke point: every runtime (serial, pool, recovery
    // replay) funnels through this call, and the unpadded
    // mc·cols·kc product counts only useful flops — totals come out
    // exact to the last operation. B elements consumed without having
    // passed through a pack are counted here too, equally unpadded.
    let _span = crate::telemetry::span(crate::telemetry::TraceKind::Compute);
    let layout = b.layout();
    let b_in_place = match layout {
        BLayout::Packed => 0,
        BLayout::Strided { .. } => (kc * cols * core::mem::size_of::<T>()) as u64,
    };
    crate::telemetry::count_block(2 * (mc as u64) * (cols as u64) * (kc as u64), b_in_place);

    let slivers = packed_a.slivers();
    let group = kind.row_group().max(1);
    // layer 5 (GEBS): over the cell's kc×nr slivers of B
    for jt in 0..cols.div_ceil(nr.max(1)) {
        let j0 = jt * nr;
        let n_eff = nr.min(cols - j0);
        let b_sliver = b.sliver(s0 + jt);
        // layer 6 (GESS): over mr×kc slivers of A, a row group at a time
        // (the tail of the block gets the slivers that are left)
        for it in (0..slivers).step_by(group) {
            let i0 = it * mr;
            let in_group = group.min(slivers - it);
            let m_eff = (in_group * mr).min(mc - i0);
            let a_group = packed_a.sliver_group(it, in_group);
            let mut tile = c.sub_tile(i0, j0, m_eff, n_eff);
            // layer 7: the register kernel
            kind.run_group_with(
                kc, a_group, b_sliver, layout, alpha, overwrite, &mut tile, m_eff, n_eff,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::microkernel::MicroKernelKind;
    use crate::reference::naive_gemm;
    use crate::Transpose;

    fn check_gebp(kind: MicroKernelKind, mc: usize, nc: usize, kc: usize, alpha: f64) {
        let a = Matrix::random(mc, kc, 101);
        let b = Matrix::random(kc, nc, 202);
        let mut pa = PackedA::new(kind.mr());
        pa.pack(&a.view(), Transpose::No, 0, 0, mc, kc);
        let mut pb = PackedB::new(kind.nr());
        pb.pack(&b.view(), Transpose::No, 0, 0, kc, nc);

        let mut c = Matrix::random(mc, nc, 303);
        let mut expected = c.clone();
        naive_gemm(
            Transpose::No,
            Transpose::No,
            alpha,
            &a.view(),
            &b.view(),
            1.0,
            &mut expected.view_mut(),
        );

        {
            let mut tile = TileMut::from_slice(mc, nc, mc, c.as_mut_slice());
            gebp(kind, alpha, &pa, &pb, &mut tile);
        }
        let tol = crate::util::gemm_tolerance(kc, 1.0);
        assert!(
            c.max_abs_diff(&expected) < tol,
            "{} mc={mc} nc={nc} kc={kc}: {}",
            kind.label(),
            c.max_abs_diff(&expected)
        );
    }

    #[test]
    fn exact_multiples() {
        check_gebp(MicroKernelKind::Mk8x6, 56, 48, 64, 1.0);
        check_gebp(MicroKernelKind::Mk8x4, 32, 32, 48, 1.0);
        check_gebp(MicroKernelKind::Mk4x4, 16, 16, 32, 1.0);
        check_gebp(MicroKernelKind::Mk5x5, 25, 25, 30, 1.0);
    }

    #[test]
    fn ragged_edges() {
        // sizes that are NOT multiples of mr/nr exercise the masked
        // write-back and zero padding
        check_gebp(MicroKernelKind::Mk8x6, 53, 47, 31, 1.0);
        check_gebp(MicroKernelKind::Mk8x4, 9, 5, 7, 1.0);
        check_gebp(MicroKernelKind::Mk4x4, 3, 3, 3, 1.0);
        check_gebp(MicroKernelKind::Mk5x5, 7, 11, 13, 1.0);
    }

    #[test]
    fn tiny_blocks() {
        for kind in MicroKernelKind::ALL {
            check_gebp(kind, 1, 1, 1, 1.0);
            check_gebp(kind, 2, 1, 5, 1.0);
        }
    }

    #[test]
    fn alpha_scaling() {
        check_gebp(MicroKernelKind::Mk8x6, 24, 18, 16, -0.5);
        check_gebp(MicroKernelKind::Mk8x6, 24, 18, 16, 3.25);
        check_gebp(MicroKernelKind::Mk8x6, 24, 18, 16, 0.0);
    }

    #[test]
    fn sliver_ranges_tile_the_panel_bitwise() {
        // Computing a panel as disjoint whole-sliver column ranges (the
        // 2-D grid-cell decomposition) must reproduce the full-width
        // GEBP bit for bit, including a ragged last sliver.
        for (kind, mc, nc, kc) in [
            (MicroKernelKind::Mk8x6, 24, 47, 16), // 47 % 6 != 0
            (MicroKernelKind::Mk8x4, 13, 24, 9),
            (MicroKernelKind::Mk4x4, 7, 10, 5),
        ] {
            let nr = kind.nr();
            let a = Matrix::random(mc, kc, 11);
            let b = Matrix::random(kc, nc, 12);
            let mut pa = PackedA::new(kind.mr());
            pa.pack(&a.view(), Transpose::No, 0, 0, mc, kc);
            let mut pb = PackedB::new(nr);
            pb.pack(&b.view(), Transpose::No, 0, 0, kc, nc);

            let c0 = Matrix::random(mc, nc, 13);
            let mut full = c0.clone();
            {
                let mut tile = TileMut::from_slice(mc, nc, mc, full.as_mut_slice());
                gebp(kind, 1.5, &pa, &pb, &mut tile);
            }

            let mut split = c0.clone();
            let slivers = nc.div_ceil(nr);
            // Uneven 2-way split on a sliver boundary.
            for (s0, s1) in [(0, slivers.div_ceil(2)), (slivers.div_ceil(2), slivers)] {
                let col0 = s0 * nr;
                let cols = (s1 * nr).min(nc) - col0;
                if cols == 0 {
                    continue;
                }
                let mut view = split.view_mut();
                let mut sub = view.sub_mut(0, col0, mc, cols);
                let ld = sub.ld();
                let mut tile = TileMut::from_slice(mc, cols, ld, sub.data_mut());
                gebp_slivers(kind, 1.5, &pa, &pb, s0, cols, &mut tile);
            }
            assert_eq!(
                split.max_abs_diff(&full),
                0.0,
                "{} mc={mc} nc={nc}: sliver ranges diverge from full GEBP",
                kind.label()
            );
        }
    }

    #[test]
    fn row_groups_match_single_sliver_kernel_calls_bitwise() {
        // GESS hands the kernel up to row_group() slivers at a time; the
        // result must be the bits of one `run` per (A sliver, B sliver)
        // pair. 56 = a full group + a tail group (4 + 3 on AVX-512), 53
        // adds a ragged last sliver, 9 is a group of 2 with one row in
        // its second sliver, 33 a full group + one single-row sliver.
        for kind in MicroKernelKind::ALL {
            let (mr, nr) = (kind.mr(), kind.nr());
            let (kc, nc) = (37, 3 * nr - 1);
            for mc in [56, 53, 9, 33] {
                let a = Matrix::random(mc, kc, 21);
                let b = Matrix::random(kc, nc, 22);
                let mut pa = PackedA::new(mr);
                pa.pack(&a.view(), Transpose::No, 0, 0, mc, kc);
                let mut pb = PackedB::new(nr);
                pb.pack(&b.view(), Transpose::No, 0, 0, kc, nc);

                let c0 = Matrix::random(mc, nc, 23);
                let mut grouped = c0.clone();
                let mut single = c0.clone();
                {
                    let mut tile = TileMut::from_slice(mc, nc, mc, grouped.as_mut_slice());
                    gebp(kind, -1.5, &pa, &pb, &mut tile);
                }
                let mut tile = TileMut::from_slice(mc, nc, mc, single.as_mut_slice());
                for jt in 0..pb.slivers() {
                    let n_eff = nr.min(nc - jt * nr);
                    for it in 0..pa.slivers() {
                        let m_eff = mr.min(mc - it * mr);
                        let mut sub = tile.sub_tile(it * mr, jt * nr, m_eff, n_eff);
                        let (a, b) = (pa.sliver(it), pb.sliver(jt));
                        kind.run(kc, a, b, -1.5, &mut sub, m_eff, n_eff);
                    }
                }
                assert_eq!(
                    grouped.max_abs_diff(&single),
                    0.0,
                    "{} mc={mc}: row group of {} diverges from single slivers",
                    kind.label(),
                    kind.row_group()
                );
            }
        }
    }

    /// GEBP over `op(b)[k0.., j0..]` read in place and over its packed
    /// copy, from the same C: the two results.
    fn in_place_and_packed<T: Scalar, K: KernelSet<T>>(
        kind: K,
        a: &Matrix<T>,
        b: &MatrixView<'_, T>,
        trans: Transpose,
        (k0, j0, kc, nc): (usize, usize, usize, usize),
        c0: &Matrix<T>,
    ) -> (Matrix<T>, Matrix<T>) {
        let mc = a.rows();
        let mut pa = PackedA::new(kind.mr());
        pa.pack(&a.view(), Transpose::No, 0, 0, mc, kc);
        let mut pb = PackedB::new(kind.nr());
        pb.pack(b, trans, k0, j0, kc, nc);
        let window = BWindow::new(b, trans, k0, j0, kc, nc, kind.nr());
        let (mut in_place, mut packed) = (c0.clone(), c0.clone());
        let alpha = T::from_f64(-1.5);
        let mut tile = TileMut::from_slice(mc, nc, mc, in_place.as_mut_slice());
        gebp(kind, alpha, &pa, &window, &mut tile);
        let mut tile = TileMut::from_slice(mc, nc, mc, packed.as_mut_slice());
        gebp(kind, alpha, &pa, &pb, &mut tile);
        (in_place, packed)
    }

    #[test]
    fn b_read_in_place_matches_the_packed_panel_bitwise() {
        // The window is a sub-view with ld > rows whose last column ends
        // the allocation, surrounded by NaN: a kernel that read one
        // element outside it would poison C or index past the slice. mc
        // 56 and 53 are two row groups on AVX-512 (the second ragged), 9
        // a group of two, 1 a single row; nc is ragged in its last sliver.
        let (kc, k0, j0) = (37, 2, 3);
        for kind in MicroKernelKind::ALL {
            let nc = 3 * kind.nr() - 1;
            for trans in [Transpose::No, Transpose::Yes] {
                // op(B) is (k0 + kc) x (j0 + nc), stored with ld = rows + 3
                let (rows, cols) = trans.apply_dims(k0 + kc, j0 + nc);
                let ld = rows + 3;
                let mut store = vec![f64::NAN; (cols - 1) * ld + rows];
                let values = Matrix::random(rows, cols, 31);
                for j in 0..cols {
                    store[j * ld..j * ld + rows].copy_from_slice(values.view().col(j));
                }
                let b = MatrixView::from_slice(rows, cols, ld, &store);
                for mc in [56, 53, 9, 1] {
                    let a = Matrix::random(mc, kc, 32);
                    let c0 = Matrix::random(mc, nc, 33);
                    let window = (k0, j0, kc, nc);
                    let (in_place, packed) = in_place_and_packed(kind, &a, &b, trans, window, &c0);
                    assert_eq!(
                        in_place.as_slice(),
                        packed.as_slice(),
                        "{} {trans:?} mc={mc}",
                        kind.label()
                    );
                    assert!(in_place.as_slice().iter().all(|x| x.is_finite()));
                }
            }
        }
        // the single-precision kernels read in place through the same
        // portable body
        for kind in crate::microkernel::SgemmKernelKind::ALL {
            let nc = 2 * kind.nr() + 3;
            let b: Matrix<f32> = Matrix::random(kc + k0, nc + j0, 34);
            let a: Matrix<f32> = Matrix::random(13, kc, 35);
            let c0: Matrix<f32> = Matrix::random(13, nc, 36);
            let window = (k0, j0, kc, nc);
            let (in_place, packed) =
                in_place_and_packed(kind, &a, &b.view(), Transpose::No, window, &c0);
            assert_eq!(in_place.as_slice(), packed.as_slice(), "{}", kind.label());
        }
    }

    #[test]
    #[should_panic(expected = "B window outside op(B)")]
    fn a_window_past_the_view_is_rejected() {
        let b = Matrix::<f64>::zeros(8, 6);
        let _ = BWindow::new(&b.view(), Transpose::No, 1, 0, 8, 6, 6);
    }

    #[test]
    #[should_panic(expected = "packed depths differ")]
    fn depth_mismatch_rejected() {
        let a = Matrix::zeros(8, 4);
        let b = Matrix::zeros(8, 6);
        let mut pa = PackedA::new(8);
        pa.pack(&a.view(), Transpose::No, 0, 0, 8, 4);
        let mut pb = PackedB::new(6);
        pb.pack(&b.view(), Transpose::No, 0, 0, 8, 6);
        let mut cbuf = vec![0.0; 48];
        let mut tile = TileMut::from_slice(8, 6, 8, &mut cbuf);
        gebp(MicroKernelKind::Mk8x6, 1.0, &pa, &pb, &mut tile);
    }
}
