//! Layer 7: the `mr×nr` register kernels (micro-kernels).
//!
//! Each kernel performs `kc` rank-1 updates of an `mr×nr` C tile using one
//! packed `mr×kc` A sliver and one packed `kc×nr` B sliver, keeping the
//! whole accumulator in registers (Figure 3) and writing
//! `C ← C + α·(A·B)` once at the end.
//!
//! Four shapes are provided, matching the paper's evaluation:
//!
//! | kernel | γ = 2/(1/mr+1/nr) | role |
//! |--------|-------------------|------|
//! | 8×6    | 6.857             | the paper's contribution (OpenBLAS-8×6) |
//! | 8×4    | 5.333             | comparison kernel (OpenBLAS-8×4) |
//! | 4×4    | 4.0               | comparison kernel (OpenBLAS-4×4) |
//! | 5×5    | 5.0               | the ATLAS baseline's register block |
//!
//! A [`MicroKernelKind`] names a tile *shape*, not an instruction set.
//! On an x86-64 host with AVX-512F or AVX2+FMA, [`run_microkernel`] runs
//! the 8×6, 8×4 and 4×4 shapes as `std::arch` SIMD+FMA code
//! ([`crate::simd`], detected at run time); everywhere else, and always
//! for 5×5, it runs the portable kernel in this file — fully unrolled
//! const-generic Rust that leaves instruction selection to LLVM. Both
//! consume the same packed slivers, so nothing above layer 7 can tell
//! them apart except by speed and by rounding (FMA rounds once).
//!
//! Where the B sliver lives is a parameter of the kernel, not a second
//! kernel: a [`BLayout`] says how far apart consecutive `k` and
//! consecutive columns are in the slice the kernel is handed. The packed
//! layout is `(nr, 1)`; a window on the caller's own matrix is `(1, ldb)`
//! or `(ldb, 1)` ([`KernelSet::run_group_with`], DESIGN.md "When B is
//! packed"). The arithmetic per element is the same either way.
//!
//! The *exact* A64 instruction streams (register rotation, load
//! scheduling, prefetch placement) are generated by the `kernels` crate
//! and executed on the `armsim` machine model, which is where the
//! paper's microarchitectural claims are reproduced.

#![forbid(unsafe_code)]

use crate::scalar::Scalar;
pub use crate::simd::BLayout;
use crate::tile::TileMut;

/// A family of register kernels for one scalar type, as consumed by the
/// generic GEBP/GEMM layers. `MicroKernelKind` implements it for `f64`
/// (the paper's kernels); [`SgemmKernelKind`] for `f32` (the design the
/// same analysis yields at four lanes per register).
pub trait KernelSet<T: Scalar>: Copy + Send + Sync + 'static {
    /// Register-block rows.
    fn mr(&self) -> usize;
    /// Register-block columns.
    fn nr(&self) -> usize;
    /// Human-readable label.
    fn label(&self) -> &'static str;
    /// Peak flops per cycle per core of the instruction-set level this
    /// kernel runs at on this host — the reciprocal of the dispatcher's
    /// compute cost `μ`. The portable kernels' figure is the default.
    fn flops_per_cycle(&self) -> f64 {
        crate::simd::Isa::Portable.flops_per_cycle()
    }
    /// One micro-kernel invocation (see [`run_microkernel`] for the
    /// argument contract).
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        kc: usize,
        a: &[T],
        b: &[T],
        alpha: T,
        c: &mut TileMut<'_, T>,
        m_eff: usize,
        n_eff: usize,
    );
    /// How many adjacent packed-A slivers one [`KernelSet::run_group`]
    /// call takes against one B sliver. One unless the kernel holds a
    /// `(g·mr)×nr` accumulator in registers, which only the AVX-512
    /// `f64` kernels do ([`crate::simd::row_group`]).
    fn row_group(&self) -> usize {
        1
    }
    /// [`KernelSet::run`] over a row group: `a` holds `⌈m_eff/mr⌉ ≤
    /// row_group()` adjacent slivers (as [`crate::pack::PackedA`] stores
    /// them, `mr·kc` apart) and `c` the `m_eff × n_eff` tile under them.
    /// Per-element arithmetic is that of one `run` per sliver.
    #[allow(clippy::too_many_arguments)]
    fn run_group(
        &self,
        kc: usize,
        a: &[T],
        b: &[T],
        alpha: T,
        c: &mut TileMut<'_, T>,
        m_eff: usize,
        n_eff: usize,
    ) {
        debug_assert!(m_eff <= self.mr(), "a group of one is one sliver");
        self.run(kc, a, b, alpha, c, m_eff, n_eff);
    }
    /// [`KernelSet::run_group`] with the B sliver laid out as `layout`
    /// says: `b` starts at the sliver's element `(0, 0)` and must reach
    /// the last one the layout stores ([`BLayout::last_offset`]).
    /// Per-element arithmetic is that of `run_group` on the packed copy.
    /// With `overwrite` the tile is stored, never read: each element gets
    /// what `run_group` leaves on a C of `+0.0`, bit for bit (`α·acc + 0`,
    /// so an exact `−0.0` product stores `+0.0`).
    #[allow(clippy::too_many_arguments)]
    fn run_group_with(
        &self,
        kc: usize,
        a: &[T],
        b: &[T],
        layout: BLayout,
        alpha: T,
        overwrite: bool,
        c: &mut TileMut<'_, T>,
        m_eff: usize,
        n_eff: usize,
    );
}

/// The available register-kernel shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MicroKernelKind {
    /// The paper's 8×6 kernel.
    Mk8x6,
    /// The 8×4 comparison kernel.
    Mk8x4,
    /// The 4×4 comparison kernel.
    Mk4x4,
    /// The 5×5 ATLAS-like baseline kernel.
    Mk5x5,
}

impl MicroKernelKind {
    /// All kernels, in the order the paper's figures list them.
    pub const ALL: [MicroKernelKind; 4] = [
        MicroKernelKind::Mk8x6,
        MicroKernelKind::Mk8x4,
        MicroKernelKind::Mk4x4,
        MicroKernelKind::Mk5x5,
    ];

    /// Register-block rows `mr`.
    #[must_use]
    pub fn mr(&self) -> usize {
        match self {
            MicroKernelKind::Mk8x6 | MicroKernelKind::Mk8x4 => 8,
            MicroKernelKind::Mk4x4 => 4,
            MicroKernelKind::Mk5x5 => 5,
        }
    }

    /// Register-block columns `nr`.
    #[must_use]
    pub fn nr(&self) -> usize {
        match self {
            MicroKernelKind::Mk8x6 => 6,
            MicroKernelKind::Mk8x4 | MicroKernelKind::Mk4x4 => 4,
            MicroKernelKind::Mk5x5 => 5,
        }
    }

    /// Display label in the paper's style (`OpenBLAS-8x6`, `ATLAS-5x5`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MicroKernelKind::Mk8x6 => "OpenBLAS-8x6",
            MicroKernelKind::Mk8x4 => "OpenBLAS-8x4",
            MicroKernelKind::Mk4x4 => "OpenBLAS-4x4",
            MicroKernelKind::Mk5x5 => "ATLAS-5x5",
        }
    }

    /// The register-kernel compute-to-memory access ratio (equation (8)).
    #[must_use]
    pub fn gamma(&self) -> f64 {
        2.0 / (1.0 / self.mr() as f64 + 1.0 / self.nr() as f64)
    }
}

/// Run one micro-kernel invocation.
///
/// * `a` — packed `mr×kc` sliver (`kc` column-chunks of `mr` values).
/// * `b` — packed `kc×nr` sliver (`kc` row-chunks of `nr` values).
/// * `c` — the C tile; rows `0..m_eff`, cols `0..n_eff` are updated with
///   `α·(A·B)` (the packed slivers are zero-padded, so the accumulator is
///   always full `mr×nr`; the *write-back* is masked for edge tiles).
#[allow(clippy::too_many_arguments)]
pub fn run_microkernel(
    kind: MicroKernelKind,
    kc: usize,
    a: &[f64],
    b: &[f64],
    alpha: f64,
    c: &mut TileMut<'_>,
    m_eff: usize,
    n_eff: usize,
) {
    debug_assert!(m_eff <= kind.mr() && n_eff <= kind.nr());
    debug_assert_eq!(a.len(), kind.mr() * kc);
    debug_assert_eq!(b.len(), kind.nr() * kc);
    kind.run_group(kc, a, b, alpha, c, m_eff, n_eff);
}

/// The portable kernel for `kind`: what [`run_microkernel`] runs on a
/// host (or for a shape) with no ISA path, and the comparison kernel of
/// the SIMD conformance tests.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_portable(
    kind: MicroKernelKind,
    kc: usize,
    a: &[f64],
    b: &[f64],
    layout: BLayout,
    alpha: f64,
    overwrite: bool,
    c: &mut TileMut<'_>,
    m_eff: usize,
    n_eff: usize,
) {
    match kind {
        MicroKernelKind::Mk8x6 => {
            fixed::<f64, 8, 6>(kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff)
        }
        MicroKernelKind::Mk8x4 => {
            fixed::<f64, 8, 4>(kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff)
        }
        MicroKernelKind::Mk4x4 => {
            fixed::<f64, 4, 4>(kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff)
        }
        MicroKernelKind::Mk5x5 => {
            fixed::<f64, 5, 5>(kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff)
        }
    }
}

impl KernelSet<f64> for MicroKernelKind {
    fn mr(&self) -> usize {
        MicroKernelKind::mr(self)
    }

    fn nr(&self) -> usize {
        MicroKernelKind::nr(self)
    }

    fn label(&self) -> &'static str {
        MicroKernelKind::label(self)
    }

    fn flops_per_cycle(&self) -> f64 {
        crate::simd::isa_for(crate::simd::Isa::detect(), self.mr(), self.nr()).flops_per_cycle()
    }

    fn run(
        &self,
        kc: usize,
        a: &[f64],
        b: &[f64],
        alpha: f64,
        c: &mut TileMut<'_>,
        m_eff: usize,
        n_eff: usize,
    ) {
        run_microkernel(*self, kc, a, b, alpha, c, m_eff, n_eff);
    }

    fn row_group(&self) -> usize {
        crate::simd::row_group(crate::simd::Isa::detect(), self.mr(), self.nr())
    }

    fn run_group(
        &self,
        kc: usize,
        a: &[f64],
        b: &[f64],
        alpha: f64,
        c: &mut TileMut<'_>,
        m_eff: usize,
        n_eff: usize,
    ) {
        self.run_group_with(kc, a, b, BLayout::Packed, alpha, false, c, m_eff, n_eff);
    }

    fn run_group_with(
        &self,
        kc: usize,
        a: &[f64],
        b: &[f64],
        layout: BLayout,
        alpha: f64,
        overwrite: bool,
        c: &mut TileMut<'_>,
        m_eff: usize,
        n_eff: usize,
    ) {
        let (mr, nr) = (self.mr(), self.nr());
        let isa = crate::simd::Isa::detect();
        if !crate::simd::run_at_with(
            isa, mr, nr, kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff,
        ) {
            // no ISA path means a row group of one: `a` is one sliver
            run_portable(*self, kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff);
        }
    }
}

/// Single-precision register kernels. At four f32 lanes per 128-bit
/// register, equations (8)-(11) admit larger blocks: the optimum is
/// 12×8 with γ = 9.6 (see the `ext_sgemm_design` study); 8×8 and 4×4
/// are included as comparison points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SgemmKernelKind {
    /// The analytic optimum for f32: 12×8, γ = 9.6.
    Sk12x8,
    /// 8×8 comparison kernel (γ = 8).
    Sk8x8,
    /// 4×4 comparison kernel (γ = 4).
    Sk4x4,
}

impl SgemmKernelKind {
    /// All single-precision kernels.
    pub const ALL: [SgemmKernelKind; 3] = [
        SgemmKernelKind::Sk12x8,
        SgemmKernelKind::Sk8x8,
        SgemmKernelKind::Sk4x4,
    ];

    /// Register-block rows.
    #[must_use]
    pub fn mr(&self) -> usize {
        match self {
            SgemmKernelKind::Sk12x8 => 12,
            SgemmKernelKind::Sk8x8 => 8,
            SgemmKernelKind::Sk4x4 => 4,
        }
    }

    /// Register-block columns.
    #[must_use]
    pub fn nr(&self) -> usize {
        match self {
            SgemmKernelKind::Sk12x8 | SgemmKernelKind::Sk8x8 => 8,
            SgemmKernelKind::Sk4x4 => 4,
        }
    }

    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SgemmKernelKind::Sk12x8 => "SGEMM-12x8",
            SgemmKernelKind::Sk8x8 => "SGEMM-8x8",
            SgemmKernelKind::Sk4x4 => "SGEMM-4x4",
        }
    }
}

impl KernelSet<f32> for SgemmKernelKind {
    fn mr(&self) -> usize {
        SgemmKernelKind::mr(self)
    }

    fn nr(&self) -> usize {
        SgemmKernelKind::nr(self)
    }

    fn label(&self) -> &'static str {
        SgemmKernelKind::label(self)
    }

    fn run(
        &self,
        kc: usize,
        a: &[f32],
        b: &[f32],
        alpha: f32,
        c: &mut TileMut<'_, f32>,
        m_eff: usize,
        n_eff: usize,
    ) {
        self.run_group_with(kc, a, b, BLayout::Packed, alpha, false, c, m_eff, n_eff);
    }

    fn run_group_with(
        &self,
        kc: usize,
        a: &[f32],
        b: &[f32],
        layout: BLayout,
        alpha: f32,
        overwrite: bool,
        c: &mut TileMut<'_, f32>,
        m_eff: usize,
        n_eff: usize,
    ) {
        match self {
            SgemmKernelKind::Sk12x8 => {
                fixed::<f32, 12, 8>(kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff);
            }
            SgemmKernelKind::Sk8x8 => {
                fixed::<f32, 8, 8>(kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff);
            }
            SgemmKernelKind::Sk4x4 => {
                fixed::<f32, 4, 4>(kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff);
            }
        }
    }
}

/// [`kernel_fixed`] for `layout`: the packed one gets the instantiation
/// whose B offsets are compile-time constants.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fixed<T: Scalar, const MR: usize, const NR: usize>(
    kc: usize,
    a: &[T],
    b: &[T],
    layout: BLayout,
    alpha: T,
    overwrite: bool,
    c: &mut TileMut<'_, T>,
    m_eff: usize,
    n_eff: usize,
) {
    match layout {
        BLayout::Packed => {
            kernel_fixed::<T, MR, NR, true>(kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff);
        }
        BLayout::Strided { .. } => {
            kernel_fixed::<T, MR, NR, false>(kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff);
        }
    }
}

/// The const-generic register kernel: `MR×NR` accumulators live in
/// registers across the `kc` loop; rank-1 updates stream one `MR`-chunk of
/// A and the `NR` elements of one `k` of B per iteration, exactly layer 7
/// of Figure 2. `PACKED` says `layout` is [`BLayout::Packed`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn kernel_fixed<T: Scalar, const MR: usize, const NR: usize, const PACKED: bool>(
    kc: usize,
    a: &[T],
    b: &[T],
    layout: BLayout,
    alpha: T,
    overwrite: bool,
    c: &mut TileMut<'_, T>,
    m_eff: usize,
    n_eff: usize,
) {
    let layout = if PACKED { BLayout::Packed } else { layout };
    let Some((ks, off)) = layout.offsets::<NR>(kc, n_eff, b.len()) else {
        return; // no column to update
    };
    let span = off[NR - 1] + 1;
    let mut acc = [[T::ZERO; NR]; MR];
    for (k, ac) in a.chunks_exact(MR).take(kc).enumerate() {
        let row = &b[k * ks..k * ks + span];
        // rank-1 update: fully unrolled MR*NR FMAs
        for i in 0..MR {
            let av = ac[i];
            for j in 0..NR {
                acc[i][j] += av * row[off[j]];
            }
        }
    }
    // masked write-back with alpha applied once
    #[allow(clippy::needless_range_loop)] // j indexes both the tile and acc
    for j in 0..n_eff {
        let col = c.col_seg_mut(j, 0, m_eff);
        for (i, dst) in col.iter_mut().enumerate() {
            let c0 = if overwrite { T::ZERO } else { *dst };
            *dst = c0 + alpha * acc[i][j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::pack::{PackedA, PackedB};
    use crate::Transpose;

    /// Drive one microkernel call on an exact-size tile and compare with
    /// the naive product.
    fn check_kernel(kind: MicroKernelKind, kc: usize, alpha: f64, m_eff: usize, n_eff: usize) {
        let (mr, nr) = (kind.mr(), kind.nr());
        let a = Matrix::random(mr, kc, 11);
        let b = Matrix::random(kc, nr, 22);
        let mut pa = PackedA::new(mr);
        pa.pack(&a.view(), Transpose::No, 0, 0, mr, kc);
        let mut pb = PackedB::new(nr);
        pb.pack(&b.view(), Transpose::No, 0, 0, kc, nr);

        let mut c = Matrix::random(mr, nr, 33);
        let expected = Matrix::from_fn(mr, nr, |i, j| {
            let dot: f64 = (0..kc).map(|k| a.get(i, k) * b.get(k, j)).sum();
            if i < m_eff && j < n_eff {
                c.get(i, j) + alpha * dot
            } else {
                c.get(i, j)
            }
        });

        {
            let mut tile = TileMut::from_slice(mr, nr, mr, c.as_mut_slice());
            run_microkernel(
                kind,
                kc,
                pa.sliver(0),
                pb.sliver(0),
                alpha,
                &mut tile,
                m_eff,
                n_eff,
            );
        }
        assert!(
            c.max_abs_diff(&expected) < 1e-10,
            "{} kc={kc} alpha={alpha} m_eff={m_eff} n_eff={n_eff}",
            kind.label()
        );
    }

    #[test]
    fn all_kernels_full_tile() {
        for kind in MicroKernelKind::ALL {
            check_kernel(kind, 37, 1.0, kind.mr(), kind.nr());
        }
    }

    #[test]
    fn all_kernels_with_alpha() {
        for kind in MicroKernelKind::ALL {
            check_kernel(kind, 16, -2.5, kind.mr(), kind.nr());
        }
    }

    #[test]
    fn edge_tiles_masked() {
        for kind in MicroKernelKind::ALL {
            for m_eff in 1..=kind.mr() {
                for n_eff in 1..=kind.nr() {
                    check_kernel(kind, 9, 1.0, m_eff, n_eff);
                }
            }
        }
    }

    #[test]
    fn kc_one_and_zero() {
        for kind in MicroKernelKind::ALL {
            check_kernel(kind, 1, 1.0, kind.mr(), kind.nr());
            check_kernel(kind, 0, 1.0, kind.mr(), kind.nr());
        }
    }

    #[test]
    fn gamma_values_match_paper() {
        assert!((MicroKernelKind::Mk8x6.gamma() - 6.857).abs() < 1e-3);
        assert!((MicroKernelKind::Mk8x4.gamma() - 5.333).abs() < 1e-3);
        assert!((MicroKernelKind::Mk4x4.gamma() - 4.0).abs() < 1e-12);
        assert!((MicroKernelKind::Mk5x5.gamma() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn shapes_and_labels() {
        assert_eq!(MicroKernelKind::Mk8x6.mr(), 8);
        assert_eq!(MicroKernelKind::Mk8x6.nr(), 6);
        assert_eq!(MicroKernelKind::Mk5x5.label(), "ATLAS-5x5");
        assert_eq!(MicroKernelKind::ALL.len(), 4);
    }

    #[test]
    fn kernels_agree_with_each_other() {
        // All kernels computing the same (padded) problem must agree
        // bit-for-bit is too strong across different blockings, but on a
        // single tile with identical k-order they agree to roundoff.
        let kc = 64;
        let m = 4; // fits every kernel
        let n = 4;
        let a = Matrix::random(m, kc, 5);
        let b = Matrix::random(kc, n, 6);
        let mut results = Vec::new();
        for kind in MicroKernelKind::ALL {
            let mut pa = PackedA::new(kind.mr());
            pa.pack(&a.view(), Transpose::No, 0, 0, m, kc);
            let mut pb = PackedB::new(kind.nr());
            pb.pack(&b.view(), Transpose::No, 0, 0, kc, n);
            let mut c = Matrix::zeros(m, n);
            {
                let mut tile = TileMut::from_slice(m, n, m, c.as_mut_slice());
                run_microkernel(kind, kc, pa.sliver(0), pb.sliver(0), 1.0, &mut tile, m, n);
            }
            results.push(c);
        }
        for r in &results[1..] {
            assert!(results[0].max_abs_diff(r) < 1e-12);
        }
    }
}
