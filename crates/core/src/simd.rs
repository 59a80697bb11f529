//! Layer 7 as real SIMD+FMA code: the `f64` register kernels written with
//! `std::arch::x86_64` intrinsics, selected by the host's ISA at run time.
//!
//! The portable [`crate::microkernel`] loop leaves instruction selection to
//! LLVM, which for the baseline x86-64 target means SSE2 without FMA and,
//! for the 8×6 tile, sixteen spilled accumulators. The kernels here hold
//! the accumulator as C *columns* instead: the `mr`-long A sub-sliver is
//! loaded as `mr/lanes` vectors, each B element is broadcast, and one FMA
//! per (A vector, B element) pair updates the column. The register budget
//! of that scheme is `(mr/lanes)·nr + mr/lanes + 1 ≤ nf`
//! ([`perfmodel::regblock::broadcast_b_constraints_ok`]), whose argmax for
//! AVX2 (16 registers × 4 lanes) is the paper's own 8×6 — so the tile
//! shapes, the packed layouts and everything above layer 6 are untouched.
//!
//! On AVX-512 one 8-row sliver is a single `zmm` and an 8×6 tile leaves
//! 24 of the 32 registers idle, with 7 loads per 6 FMAs. `PackedA` stores
//! its slivers back to back, so the `zmm` kernel takes a **row group** of
//! `g` adjacent slivers against one B sliver and holds a `(g·8)×nr`
//! accumulator: `g·nr + g + 1` registers, `g + nr` loads per `g·nr` FMAs.
//! [`row_group`] is the largest `g` the budget admits
//! ([`perfmodel::regblock::max_row_group`]); GESS ([`crate::gebp`]) steps
//! its A loop by it and hands the tail of an `mc` block a smaller group.
//!
//! | shape | AVX-512F | AVX2+FMA |
//! |-------|----------|----------|
//! | 8×6   | up to 4 slivers: 32×6 in 24 zmm (29 of 32 live) | 2 ymm × 6 (15 of 16) |
//! | 8×4   | up to 6 slivers: 48×4 in 24 zmm (31 of 32 live) | 2 ymm × 4 |
//! | 4×4   | — (runs the ymm kernel) | 1 ymm × 4 |
//! | 5×5   | portable | portable |
//!
//! # Safety
//!
//! This is one of the crate's three homes for `unsafe`, with
//! [`crate::tile`] and the pool's borrow gate (`lease.rs`). The argument
//! is three lines:
//!
//! 1. a `#[target_feature]` kernel is only ever called from [`run_at`],
//!    after `is_x86_feature_detected!` confirmed the feature on this host;
//! 2. B is read by pointer at `k·ks + j·cs` for `k < kc` and `j` below the
//!    number of columns the sliver stores (`nr` packed, `n_eff` in place;
//!    accumulator columns past them re-read the last stored one), behind a
//!    real, overflow-checked `assert!` at the kernel's top that the last
//!    such offset, `(kc−1)·ks + (cols−1)·cs` ([`BLayout::last_offset`]),
//!    is inside the caller's slice.
//!    A is read through `chunks_exact(mr)` in the `ymm` kernel, so every
//!    vector load covers exactly one chunk; the `zmm` kernel reads its `G`
//!    slivers by pointer at `g·8·kc + 8·k` for `k < kc`, behind a real
//!    `assert!(a.len() >= G·8·kc)` next to B's;
//! 3. C is reached only through [`TileMut::col_seg_mut`], and the masked
//!    load/store touches exactly the `m_eff` lanes of the segment it
//!    returned — never a full vector on a ragged tile, because the pool's
//!    threads own disjoint row bands of one C and a stray lane would be a
//!    data race, not just a wrong answer.
//!
//! Every element sees the same arithmetic on full and edge tiles, in
//! every group size and wherever B is read from ([`BLayout`]: each body
//! is compiled once with the packed strides as constants and once with
//! them as arguments): one FMA chain over ascending `k`, then one fused
//! `c + α·acc` — `c` a `+0.0` register, C unread, where the first panel
//! of a `β = 0` call stores. Results are therefore bit-identical per
//! kernel across every runtime, and differ from the portable kernel
//! (separate multiply and add) only by rounding.

use crate::tile::TileMut;
use perfmodel::MachineDesc;

/// Where a register kernel finds its `kc×nr` sliver of `op(B)` in the
/// slice it is handed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BLayout {
    /// As [`crate::pack::PackedB`] writes it: element `(k, j)` at
    /// `k·nr + j`, all `nr` columns stored (zero-padded on a ragged
    /// sliver) and all of them read.
    Packed,
    /// Where the caller stored it: element `(k, j)` at `k·ks + j·cs`.
    /// Only the tile's `n_eff` columns have storage; the kernel reads
    /// nothing outside them.
    Strided {
        /// Distance between consecutive `k` (rows of the sliver).
        ks: usize,
        /// Distance between consecutive columns of the sliver.
        cs: usize,
    },
}

impl BLayout {
    /// `(ks, cs, cols)`: the strides, and how many columns of an
    /// `nr`-wide sliver a kernel updating `n_eff` of them reads.
    #[must_use]
    pub fn addressing(self, nr: usize, n_eff: usize) -> (usize, usize, usize) {
        match self {
            BLayout::Packed => (nr, 1, nr),
            BLayout::Strided { ks, cs } => (ks, cs, n_eff.min(nr)),
        }
    }

    /// Offset of the last element a kernel reads of a sliver `kc` deep
    /// (that of row 0's last column when `kc == 0`, which reads nothing):
    /// `(kc−1)·ks + (cols−1)·cs`. `None` when the sliver has no column or
    /// the offset overflows.
    #[must_use]
    pub fn last_offset(self, nr: usize, kc: usize, n_eff: usize) -> Option<usize> {
        let (ks, cs, cols) = self.addressing(nr, n_eff);
        let col = cols.checked_sub(1)?.checked_mul(cs)?;
        kc.saturating_sub(1).checked_mul(ks)?.checked_add(col)
    }

    /// What a kernel body with `NR` accumulator columns opens with: the
    /// `k` stride and each column's offset within one `k`, after
    /// asserting that every `k·ks + off[j]` for `k < kc` is inside a
    /// slice of `len` elements. `None` when the sliver has no column,
    /// hence nothing to update. The accumulator columns past the ones a
    /// strided sliver stores re-read the last stored one; they are never
    /// written back.
    #[inline(always)]
    pub(crate) fn offsets<const NR: usize>(
        self,
        kc: usize,
        n_eff: usize,
        len: usize,
    ) -> Option<(usize, [usize; NR])> {
        let (ks, cs, cols) = self.addressing(NR, n_eff);
        let last_col = cols.checked_sub(1)?;
        let last = self.last_offset(NR, kc, n_eff);
        assert!(
            last.is_some_and(|last| kc == 0 || last < len),
            "B sliver ends outside its slice"
        );
        Some((ks, core::array::from_fn(|j| j.min(last_col) * cs)))
    }
}

/// The instruction-set level a register kernel runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// The const-generic loop in [`crate::microkernel`], compiled for the
    /// build target's baseline.
    Portable,
    /// 256-bit vectors with fused multiply-add (`avx2` + `fma`).
    Avx2,
    /// 512-bit vectors (`avx512f`).
    Avx512,
}

impl Isa {
    /// Every level, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

    /// The widest level this host supports. `is_x86_feature_detected!`
    /// caches its answer, so this is a load and a bit test.
    #[must_use]
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
            if avx2 && is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if avx2 {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    }

    /// Peak `f64` flops per cycle per core at this level
    /// (`2 · lanes · fma_pipes`: 32, 16, and the paper machine's 2 for
    /// the portable build, which is also about what its non-FMA SSE2 code
    /// sustains here). The dispatcher's `μ` is the reciprocal.
    #[must_use]
    pub fn flops_per_cycle(self) -> f64 {
        match self {
            Isa::Portable => MachineDesc::xgene(),
            Isa::Avx2 => MachineDesc::x86_avx2(),
            Isa::Avx512 => MachineDesc::x86_avx512(),
        }
        .flops_per_cycle
    }
}

/// The level the `f64` `mr×nr` kernel actually runs at when the host
/// offers `isa`: the widest level not above `isa` that has a kernel for
/// the shape, [`Isa::Portable`] when none does.
#[must_use]
pub fn isa_for(isa: Isa, mr: usize, nr: usize) -> Isa {
    match (mr, nr) {
        (8, 6 | 4) => isa,
        (4, 4) => isa.min(Isa::Avx2),
        _ => Isa::Portable,
    }
}

/// How many adjacent packed-A slivers one call of the `f64` `mr×nr`
/// kernel takes when the host offers `isa`: the tallest `(g·mr)×nr` tile
/// the broadcast-B register budget of the level it runs at admits. Only
/// the `zmm` kernel is written over a group, so every other level — and
/// every shape without an ISA path — has a group of one.
#[must_use]
pub fn row_group(isa: Isa, mr: usize, nr: usize) -> usize {
    match isa_for(isa, mr, nr) {
        Isa::Avx512 => perfmodel::regblock::max_row_group(mr, nr, &MachineDesc::x86_avx512())
            .map_or(1, |(g, _)| g),
        Isa::Avx2 | Isa::Portable => 1,
    }
}

/// Run the `f64` `mr×nr` register kernel at the host's widest level.
/// Returns `false` — having touched nothing — when no ISA path applies,
/// so the caller falls through to the portable kernel. Argument contract
/// as [`crate::microkernel::run_microkernel`], except that `m_eff` may
/// span a row group: `a` then holds `⌈m_eff/mr⌉ ≤ row_group` adjacent
/// slivers and the tile up to `row_group·mr` rows.
#[allow(clippy::too_many_arguments)]
pub fn run(
    mr: usize,
    nr: usize,
    kc: usize,
    a: &[f64],
    b: &[f64],
    alpha: f64,
    c: &mut TileMut<'_>,
    m_eff: usize,
    n_eff: usize,
) -> bool {
    run_at(Isa::detect(), mr, nr, kc, a, b, alpha, c, m_eff, n_eff)
}

/// [`run`] at a chosen level (the AVX2 kernels are directly callable on
/// an AVX-512 host, which is how the conformance tests reach them).
/// A level above what the host supports is treated as having no path.
#[allow(clippy::too_many_arguments)]
pub fn run_at(
    isa: Isa,
    mr: usize,
    nr: usize,
    kc: usize,
    a: &[f64],
    b: &[f64],
    alpha: f64,
    c: &mut TileMut<'_>,
    m_eff: usize,
    n_eff: usize,
) -> bool {
    run_at_with(
        isa,
        mr,
        nr,
        kc,
        a,
        b,
        BLayout::Packed,
        alpha,
        false,
        c,
        m_eff,
        n_eff,
    )
}

/// [`run_at`] with the B sliver laid out as `layout` says: `b` starts at
/// the sliver's element `(0, 0)` and must reach the last one the layout
/// stores ([`BLayout::last_offset`]). The kernel asserts it. With
/// `overwrite` the tile is stored, not updated: `c = α·acc + 0`, C never
/// read — what `c + α·acc` gives on a C of `+0.0`, bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn run_at_with(
    isa: Isa,
    mr: usize,
    nr: usize,
    kc: usize,
    a: &[f64],
    b: &[f64],
    layout: BLayout,
    alpha: f64,
    overwrite: bool,
    c: &mut TileMut<'_>,
    m_eff: usize,
    n_eff: usize,
) -> bool {
    if isa > Isa::detect() {
        return false;
    }
    let level = isa_for(isa, mr, nr);
    if level == Isa::Portable {
        return false;
    }
    let g = m_eff.div_ceil(mr).max(1);
    // Real asserts, not debug ones: a short sliver would silently shorten
    // the k loop, and an oversized n_eff would index past the accumulator
    // (an oversized m_eff has no kernel: the match below refuses it; a
    // short B is refused by the kernel, which knows how it is addressed).
    assert!(a.len() >= g * mr * kc, "A shorter than its slivers' mr*kc");
    assert!(n_eff <= nr, "effective tile exceeds nr columns");
    let packed = layout == BLayout::Packed;
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (every arm): `level <= isa <= Isa::detect()`, so the
        // target features the callee is compiled with were detected on
        // this host.
        macro_rules! kernel {
            ($kernel:ident, $v:literal, $nr:literal) => {
                if packed {
                    unsafe {
                        x86::$kernel::<$v, $nr, true>(
                            kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff,
                        )
                    }
                } else {
                    unsafe {
                        x86::$kernel::<$v, $nr, false>(
                            kc, a, b, layout, alpha, overwrite, c, m_eff, n_eff,
                        )
                    }
                }
            };
        }
        macro_rules! zmm {
            ($g:literal, $nr:literal) => {
                kernel!(kernel_zmm, $g, $nr)
            };
        }
        macro_rules! ymm {
            ($mv:literal, $nr:literal) => {
                kernel!(kernel_ymm, $mv, $nr)
            };
        }
        match (level, mr, nr, g) {
            (Isa::Avx512, 8, 6, 1) => zmm!(1, 6),
            (Isa::Avx512, 8, 6, 2) => zmm!(2, 6),
            (Isa::Avx512, 8, 6, 3) => zmm!(3, 6),
            (Isa::Avx512, 8, 6, 4) => zmm!(4, 6),
            (Isa::Avx512, 8, 4, 1) => zmm!(1, 4),
            (Isa::Avx512, 8, 4, 2) => zmm!(2, 4),
            (Isa::Avx512, 8, 4, 3) => zmm!(3, 4),
            (Isa::Avx512, 8, 4, 4) => zmm!(4, 4),
            (Isa::Avx512, 8, 4, 5) => zmm!(5, 4),
            (Isa::Avx512, 8, 4, 6) => zmm!(6, 4),
            (Isa::Avx2, 8, 6, 1) => ymm!(2, 6),
            (Isa::Avx2, 8, 4, 1) => ymm!(2, 4),
            (Isa::Avx2, 4, 4, 1) => ymm!(1, 4),
            _ => {
                panic!("effective tile exceeds the {level:?} row group: {m_eff} rows of {mr}x{nr}")
            }
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (b, packed, alpha, overwrite, c);
        false
    }
}

#[cfg(target_arch = "x86_64")]
// The accumulator arrays must only ever be indexed by unrolled constants,
// or they live on the stack for the whole k loop: plain range loops, not
// iterator adaptors with a run-time `take`.
#[allow(clippy::needless_range_loop)]
mod x86 {
    use super::BLayout;
    use crate::tile::TileMut;
    use core::arch::x86_64::*;

    /// `(8·G) × NR` kernel on 512-bit registers over `G` adjacent `8×kc`
    /// slivers of packed A (`8·kc` elements apart) and one B sliver:
    /// `G·NR` accumulators, `G` A vectors and one broadcast B element live
    /// per rank-1 update, `G + NR` loads per `G·NR` FMAs. `G = 1` is the
    /// plain 8×NR tile.
    ///
    /// Do not split `k` into even/odd accumulator sets here: measured, it
    /// buys nothing end to end on 8×6 (EXPERIMENTS.md, "ISA-specific
    /// register kernels"), and a full group leaves no registers for it.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn kernel_zmm<const G: usize, const NR: usize, const PACKED: bool>(
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
        const LANES: usize = 8;
        let sliver = LANES * kc;
        assert!(a.len() >= G * sliver, "A shorter than G slivers");
        // a constant layout makes the strides and offsets constants
        let layout = if PACKED { BLayout::Packed } else { layout };
        let Some((ks, off)) = layout.offsets::<NR>(kc, n_eff, b.len()) else {
            return;
        };
        let mut acc = [[_mm512_setzero_pd(); G]; NR];
        for k in 0..kc {
            let mut av = [_mm512_setzero_pd(); G];
            for g in 0..G {
                // SAFETY: `k < kc` and `g < G`, so the eight lanes at
                // `g*sliver + k*LANES` end at or before `G*sliver`, which
                // the assert above holds inside `a`.
                av[g] = unsafe { _mm512_loadu_pd(a.as_ptr().add(g * sliver + k * LANES)) };
            }
            for j in 0..NR {
                debug_assert!(k * ks + off[j] < b.len());
                // SAFETY: `k < kc`, and `offsets` asserted that
                // `(kc-1)*ks` plus the largest of `off` is inside `b`.
                let bj = _mm512_set1_pd(unsafe { *b.as_ptr().add(k * ks + off[j]) });
                for g in 0..G {
                    acc[j][g] = _mm512_fmadd_pd(av[g], bj, acc[j][g]);
                }
            }
        }
        let alpha = _mm512_set1_pd(alpha);
        for j in 0..NR {
            if j >= n_eff {
                break;
            }
            let col = c.col_seg_mut(j, 0, m_eff);
            for g in 0..G {
                let lanes = col.len().saturating_sub(g * LANES).min(LANES);
                if lanes == 0 {
                    break;
                }
                let mask = 0xFFu8 >> (LANES - lanes);
                // SAFETY: `lanes >= 1`, so `g*LANES < col.len()` and the
                // offset pointer is inside `col`; the mask selects lanes
                // `0..lanes`, i.e. `col[g*LANES .. g*LANES + lanes]`, and
                // masked-off lanes are neither read nor written.
                unsafe {
                    let p = col.as_mut_ptr().add(g * LANES);
                    let cv = if overwrite {
                        _mm512_setzero_pd()
                    } else {
                        _mm512_maskz_loadu_pd(mask, p)
                    };
                    _mm512_mask_storeu_pd(p, mask, _mm512_fmadd_pd(alpha, acc[j][g], cv));
                }
            }
        }
    }

    /// `4·MV × NR` kernel on 256-bit registers; see [`kernel_zmm`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn kernel_ymm<const MV: usize, const NR: usize, const PACKED: bool>(
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
        const LANES: usize = 4;
        // a constant layout makes the strides and offsets constants
        let layout = if PACKED { BLayout::Packed } else { layout };
        let Some((ks, off)) = layout.offsets::<NR>(kc, n_eff, b.len()) else {
            return;
        };
        let mut acc = [[_mm256_setzero_pd(); MV]; NR];
        for (k, ac) in a.chunks_exact(LANES * MV).take(kc).enumerate() {
            let mut av = [_mm256_setzero_pd(); MV];
            for (v, av) in av.iter_mut().enumerate() {
                // SAFETY: `ac` is exactly LANES*MV long, so lanes
                // v*LANES .. (v+1)*LANES are inside it.
                *av = unsafe { _mm256_loadu_pd(ac.as_ptr().add(v * LANES)) };
            }
            for j in 0..NR {
                debug_assert!(k * ks + off[j] < b.len());
                // SAFETY: as in `kernel_zmm` — `k < kc`, and `offsets`
                // asserted the largest offset read is inside `b`.
                let bj = _mm256_set1_pd(unsafe { *b.as_ptr().add(k * ks + off[j]) });
                for v in 0..MV {
                    acc[j][v] = _mm256_fmadd_pd(av[v], bj, acc[j][v]);
                }
            }
        }
        let alpha = _mm256_set1_pd(alpha);
        let lane_ids = _mm256_setr_epi64x(0, 1, 2, 3);
        for j in 0..NR {
            if j >= n_eff {
                break;
            }
            let col = c.col_seg_mut(j, 0, m_eff);
            for v in 0..MV {
                let lanes = col.len().saturating_sub(v * LANES).min(LANES);
                if lanes == 0 {
                    break;
                }
                // lane i is selected iff i < lanes
                let mask = _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes as i64), lane_ids);
                // SAFETY: as in `kernel_zmm` — the pointer is inside
                // `col`, the mask selects `col[v*LANES .. v*LANES +
                // lanes]`, and `vmaskmovpd` neither reads nor writes
                // masked-off lanes.
                unsafe {
                    let p = col.as_mut_ptr().add(v * LANES);
                    let cv = if overwrite {
                        _mm256_setzero_pd()
                    } else {
                        _mm256_maskload_pd(p, mask)
                    };
                    _mm256_maskstore_pd(p, mask, _mm256_fmadd_pd(alpha, acc[j][v], cv));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::microkernel::{run_portable, MicroKernelKind};
    use crate::Transpose;

    const KCS: [usize; 6] = [0, 1, 2, 7, 256, 513];
    const ALPHAS: [f64; 3] = [1.0, -2.5, 0.0];
    /// `-0.0`: the one fill a stray read-modify-write cannot leave intact.
    /// A NaN would carry its payload through `c + alpha*acc` unchanged
    /// and a large finite value would absorb the update, but
    /// `-0.0 + x` is `x`, and `-0.0 + (+0.0)` is `+0.0`.
    const POISON: u64 = 0x8000_0000_0000_0000;

    /// Every (shape, level) pair that has its own kernel on this host.
    /// Empty on a host without AVX2+FMA, where the tests below reduce to
    /// checking the portable kernel against the same oracle.
    fn paths() -> Vec<(MicroKernelKind, Isa)> {
        let mut v = Vec::new();
        for kind in MicroKernelKind::ALL {
            for isa in Isa::ALL {
                let own = isa != Isa::Portable && isa_for(isa, kind.mr(), kind.nr()) == isa;
                if own && isa <= Isa::detect() {
                    v.push((kind, isa));
                }
            }
        }
        v
    }

    /// [`paths`] with every row-group size each path has a kernel for.
    fn grouped_paths() -> Vec<(MicroKernelKind, Isa, usize)> {
        let groups = |(kind, isa): (MicroKernelKind, Isa)| {
            (1..=row_group(isa, kind.mr(), kind.nr())).map(move |g| (kind, isa, g))
        };
        paths().into_iter().flat_map(groups).collect()
    }

    /// `len` values uniform in `[-1, 1)`.
    fn random_vec(len: usize, seed: u64) -> Vec<f64> {
        Matrix::random(len, 1, seed).as_slice().to_vec()
    }

    /// Element `(i, k)` of `g` adjacent `mr x kc` slivers.
    fn a_at(a: &[f64], mr: usize, kc: usize, i: usize, k: usize) -> f64 {
        a[(i / mr) * mr * kc + k * mr + i % mr]
    }

    /// How [`run_embedded`] reaches the kernel under test.
    #[derive(Clone, Copy, Debug)]
    enum Via {
        /// One SIMD call at this level over the whole row group.
        Group(Isa),
        /// One single-sliver SIMD call at this level per sliver.
        Slivers(Isa),
        /// One portable-kernel call per sliver.
        Portable,
    }

    /// Where [`run_embedded`] puts the B sliver it hands the kernel.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum BAt {
        /// The packed `kc x nr` sliver itself.
        Packed,
        /// In place as `trans` stores it: the sliver's `n_eff` columns
        /// (`No`) or `kc` rows (`Yes`) `pad` further apart than they are
        /// long, in a buffer that ends with the sliver's last element.
        Stored { trans: Transpose, pad: usize },
    }

    /// `op(B)` where a column-major matrix of leading dimension `ld`
    /// stores it (the mapping [`crate::gebp::BWindow`] applies).
    fn stored(trans: Transpose, ld: usize) -> BLayout {
        match trans {
            Transpose::No => BLayout::Strided { ks: 1, cs: ld },
            Transpose::Yes => BLayout::Strided { ks: ld, cs: 1 },
        }
    }

    impl BAt {
        const ALL: [BAt; 5] = [
            BAt::Packed,
            BAt::Stored {
                trans: Transpose::No,
                pad: 0,
            },
            BAt::Stored {
                trans: Transpose::No,
                pad: 3,
            },
            BAt::Stored {
                trans: Transpose::Yes,
                pad: 0,
            },
            BAt::Stored {
                trans: Transpose::Yes,
                pad: 3,
            },
        ];

        /// Columns `0..n_eff` of the packed sliver `b` laid out here.
        /// What lies between the stored elements is NaN, and nothing lies
        /// after the last one: a kernel that strays reads past the end or
        /// poisons C.
        fn lay_out(self, b: &[f64], nr: usize, kc: usize, n_eff: usize) -> (Vec<f64>, BLayout) {
            let BAt::Stored { trans, pad } = self else {
                return (b.to_vec(), BLayout::Packed);
            };
            let ld = match trans {
                Transpose::No => kc + pad,
                Transpose::Yes => n_eff + pad,
            };
            let layout = stored(trans, ld.max(1));
            let (ks, cs, _) = layout.addressing(nr, n_eff);
            let len = if kc == 0 || n_eff == 0 {
                0
            } else {
                layout.last_offset(nr, kc, n_eff).unwrap() + 1
            };
            let mut buf = vec![f64::NAN; len];
            for k in 0..kc {
                for j in 0..n_eff {
                    buf[k * ks + j * cs] = b[k * nr + j];
                }
            }
            (buf, layout)
        }
    }

    /// Run one kernel on an `m_eff x n_eff` tile under `g` adjacent A
    /// slivers and the B sliver `b` laid out at `at`, embedded at (1, 1)
    /// of a poisoned buffer with `ld > rows`, assert that nothing outside
    /// the tile changed by a single bit, and return the `g*mr x nr` result
    /// (column-major, `ld = g*mr`, poison outside `m_eff x n_eff`). The
    /// kernel stores the tile instead of updating it under `overwrite`.
    #[allow(clippy::too_many_arguments)]
    fn run_embedded(
        via: Via,
        kind: MicroKernelKind,
        g: usize,
        kc: usize,
        a: &[f64],
        b: &[f64],
        at: BAt,
        alpha: f64,
        overwrite: bool,
        c0: &[f64],
        m_eff: usize,
        n_eff: usize,
    ) -> Vec<f64> {
        let (mr, nr) = (kind.mr(), kind.nr());
        let rows = g * mr;
        let ld = rows + 3;
        let inside = |i: usize, j: usize| (1..=m_eff).contains(&i) && (1..=n_eff).contains(&j);
        let mut buf = vec![f64::from_bits(POISON); ld * (nr + 2)];
        for j in 1..=n_eff {
            for i in 1..=m_eff {
                buf[i + j * ld] = c0[(i - 1) + (j - 1) * rows];
            }
        }
        let (b, layout) = at.lay_out(b, nr, kc, n_eff);
        let b = b.as_slice();
        {
            let mut tile = TileMut::from_slice(m_eff, n_eff, ld, &mut buf[1 + ld..]);
            let what = kind.label();
            let w = overwrite;
            if let Via::Group(isa) = via {
                assert!(
                    run_at_with(isa, mr, nr, kc, a, b, layout, alpha, w, &mut tile, m_eff, n_eff),
                    "{what} has no {isa:?} path"
                );
            } else {
                for s in 0..m_eff.div_ceil(mr) {
                    let sliver = &a[s * mr * kc..(s + 1) * mr * kc];
                    let m = mr.min(m_eff - s * mr);
                    let mut sub = tile.sub_tile(s * mr, 0, m, n_eff);
                    let sub = &mut sub;
                    match via {
                        Via::Slivers(isa) => assert!(
                            run_at_with(
                                isa, mr, nr, kc, sliver, b, layout, alpha, w, sub, m, n_eff
                            ),
                            "{what} has no {isa:?} path"
                        ),
                        _ => run_portable(kind, kc, sliver, b, layout, alpha, w, sub, m, n_eff),
                    }
                }
            }
        }
        let mut out = vec![f64::from_bits(POISON); rows * nr];
        for j in 0..nr + 2 {
            for i in 0..ld {
                if inside(i, j) {
                    out[(i - 1) + (j - 1) * rows] = buf[i + j * ld];
                } else {
                    assert_eq!(
                        buf[i + j * ld].to_bits(),
                        POISON,
                        "{} {via:?} g={g} kc={kc} {at:?} {m_eff}x{n_eff}: wrote outside the tile at ({i}, {j})",
                        kind.label()
                    );
                }
            }
        }
        out
    }

    fn two_sum(a: f64, b: f64) -> (f64, f64) {
        let s = a + b;
        let bb = s - a;
        (s, (a - (s - bb)) + (b - bb))
    }

    fn two_prod(a: f64, b: f64) -> (f64, f64) {
        let p = a * b;
        (p, a.mul_add(b, -p))
    }

    /// `c0 + alpha * sum(a_k * b_k)` with the dot product and the final
    /// combination carried in double-double (error-free transformations,
    /// Ogita-Rump-Oishi Dot2), rounded to `f64` once at the end.
    fn compensated(c0: f64, alpha: f64, terms: impl Iterator<Item = (f64, f64)>) -> f64 {
        let (mut hi, mut lo) = (0.0f64, 0.0f64);
        for (x, y) in terms {
            let (p, pe) = two_prod(x, y);
            let (s, se) = two_sum(hi, p);
            hi = s;
            lo += pe + se;
        }
        let (hi, lo) = two_sum(hi, lo);
        let (p, pe) = two_prod(hi, alpha);
        let (s, se) = two_sum(p, c0);
        s + (se + (pe + lo * alpha))
    }

    /// (i) of the conformance contract, for one kernel on a full tile of
    /// `g` slivers: `|c_hat - c| <= 2·k·eps·(|alpha|·(|A||B|) + |c0|)`,
    /// exact at `k = 0`.
    fn assert_within_forward_bound(
        via: Via,
        kind: MicroKernelKind,
        g: usize,
        kc: usize,
        at: BAt,
        alpha: f64,
    ) {
        let (mr, nr) = (kind.mr(), kind.nr());
        let rows = g * mr;
        let a = random_vec(rows * kc, 1 + kc as u64);
        let b = random_vec(nr * kc, 2 + kc as u64);
        let c0 = random_vec(rows * nr, 3);
        let got = run_embedded(via, kind, g, kc, &a, &b, at, alpha, false, &c0, rows, nr);
        for j in 0..nr {
            for i in 0..rows {
                let terms = || (0..kc).map(|k| (a_at(&a, mr, kc, i, k), b[k * nr + j]));
                let exact = compensated(c0[i + j * rows], alpha, terms());
                let abs_ab: f64 = terms().map(|(x, y)| (x * y).abs()).sum();
                let bound = 2.0
                    * kc as f64
                    * f64::EPSILON
                    * (alpha.abs() * abs_ab + c0[i + j * rows].abs());
                let err = (got[i + j * rows] - exact).abs();
                assert!(
                    err <= bound,
                    "{} {via:?} g={g} kc={kc} {at:?} alpha={alpha} ({i},{j}): |{} - {exact}| = {err} > {bound}",
                    kind.label(),
                    got[i + j * rows]
                );
            }
        }
    }

    #[test]
    fn forward_error_within_bound_of_compensated_oracle() {
        for kc in KCS {
            for alpha in ALPHAS {
                for at in BAt::ALL {
                    for (kind, isa, g) in grouped_paths() {
                        assert_within_forward_bound(Via::Group(isa), kind, g, kc, at, alpha);
                    }
                    // The portable kernel is held to the same bound, on
                    // every host, for every shape.
                    for kind in MicroKernelKind::ALL {
                        assert_within_forward_bound(Via::Portable, kind, 1, kc, at, alpha);
                    }
                }
            }
        }
    }

    #[test]
    fn edge_tiles_and_in_place_b_match_the_full_packed_tile_bitwise() {
        // (ii) is asserted inside run_embedded on every call; (iii) here:
        // the elements an edge tile computes carry the same bits as the
        // same elements of the full tile — wherever the kernel reads B
        // from, so a sliver read in place (either stride order, columns
        // or rows further apart than they are long, every n_eff) gives
        // the bits of the packed call. A group of g is ragged inside its
        // last sliver (m_eff in 8(g-1)+1 ..= 8g); fewer rows than that
        // are the next smaller group's case.
        let simd = grouped_paths()
            .into_iter()
            .map(|(kind, isa, g)| (kind, Via::Group(isa), g));
        let portable = MicroKernelKind::ALL.map(|kind| (kind, Via::Portable, 1));
        for (kind, via, g) in simd.chain(portable) {
            let (mr, nr) = (kind.mr(), kind.nr());
            let rows = g * mr;
            let c0 = random_vec(rows * nr, 7);
            for kc in KCS {
                let a = random_vec(rows * kc, 11 + kc as u64);
                let b = random_vec(nr * kc, 13 + kc as u64);
                for alpha in ALPHAS {
                    let packed = BAt::Packed;
                    let full = run_embedded(
                        via, kind, g, kc, &a, &b, packed, alpha, false, &c0, rows, nr,
                    );
                    for at in BAt::ALL {
                        for m_eff in rows - mr + 1..=rows {
                            for n_eff in 1..=nr {
                                let edge = run_embedded(
                                    via, kind, g, kc, &a, &b, at, alpha, false, &c0, m_eff, n_eff,
                                );
                                for j in 0..n_eff {
                                    for i in 0..m_eff {
                                        assert_eq!(
                                            edge[i + j * rows].to_bits(),
                                            full[i + j * rows].to_bits(),
                                            "{} {via:?} g={g} kc={kc} {at:?} alpha={alpha} {m_eff}x{n_eff} at ({i},{j})",
                                            kind.label()
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_row_group_is_bit_identical_to_its_slivers_run_one_at_a_time() {
        // What keeps every runtime, the cached and the store paths equal
        // to each other and to the ungrouped kernel: grouping changes
        // which registers hold an element's chain, not the chain.
        for (kind, isa, g) in grouped_paths() {
            let (mr, nr) = (kind.mr(), kind.nr());
            let rows = g * mr;
            let c0 = random_vec(rows * nr, 29);
            for kc in KCS {
                let a = random_vec(rows * kc, 31 + kc as u64);
                let b = random_vec(nr * kc, 37 + kc as u64);
                for alpha in ALPHAS {
                    for (m_eff, n_eff) in [(rows, nr), (rows - mr + 3, nr - 1)] {
                        let run = |via| {
                            let at = BAt::Packed;
                            run_embedded(
                                via, kind, g, kc, &a, &b, at, alpha, false, &c0, m_eff, n_eff,
                            )
                        };
                        let (group, single) = (run(Via::Group(isa)), run(Via::Slivers(isa)));
                        let same = group
                            .iter()
                            .zip(&single)
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                        assert!(
                            same,
                            "{} {isa:?} g={g} kc={kc} alpha={alpha} {m_eff}x{n_eff}",
                            kind.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_overwriting_store_is_the_update_of_a_zeroed_tile_bit_for_bit() {
        // The first panel of a β = 0 call: the kernel never reads C, so
        // the NaN there cannot reach the result, and each element carries
        // the bits the update leaves on a C of +0.0 — also where α·acc is
        // an exact −0.0 (kc = 0 with α < 0), which must store +0.0.
        let simd = grouped_paths()
            .into_iter()
            .map(|(kind, isa, g)| (kind, Via::Group(isa), g));
        let portable = MicroKernelKind::ALL.map(|kind| (kind, Via::Portable, 1));
        for (kind, via, g) in simd.chain(portable) {
            let (mr, nr) = (kind.mr(), kind.nr());
            let rows = g * mr;
            let (zeros, nans) = (vec![0.0; rows * nr], vec![f64::NAN; rows * nr]);
            for kc in KCS {
                let a = random_vec(rows * kc, 41 + kc as u64);
                let b = random_vec(nr * kc, 43 + kc as u64);
                for (alpha, at) in ALPHAS.into_iter().flat_map(|x| BAt::ALL.map(|at| (x, at))) {
                    for (m_eff, n_eff) in [(rows, nr), (rows - mr + 1, nr - 1)] {
                        let run = |overwrite, c0: &[f64]| {
                            let (a, b) = (&a, &b);
                            run_embedded(
                                via, kind, g, kc, a, b, at, alpha, overwrite, c0, m_eff, n_eff,
                            )
                        };
                        let (stored, updated) = (run(true, &nans), run(false, &zeros));
                        let what = format!(
                            "{} {via:?} g={g} kc={kc} {at:?} alpha={alpha} {m_eff}x{n_eff}",
                            kind.label()
                        );
                        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&stored), bits(&updated), "{what}");
                        if kc == 0 {
                            let tile =
                                (0..n_eff).flat_map(|j| (0..m_eff).map(move |i| i + j * rows));
                            assert!(tile.clone().all(|e| stored[e].to_bits() == 0), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_row_group_each_path_runs_is_the_register_budgets() {
        use perfmodel::regblock::max_row_group;
        let derived = |isa: Isa, kind: MicroKernelKind| {
            let machine = match isa {
                Isa::Avx512 => MachineDesc::x86_avx512(),
                Isa::Avx2 => MachineDesc::x86_avx2(),
                Isa::Portable => unreachable!("paths() lists ISA kernels only"),
            };
            max_row_group(kind.mr(), kind.nr(), &machine).map_or(0, |(g, _)| g)
        };
        for (kind, isa) in paths() {
            let (mr, nr) = (kind.mr(), kind.nr());
            let group = row_group(isa, mr, nr);
            if (kind, isa) == (MicroKernelKind::Mk4x4, Isa::Avx2) {
                // The one path that leaves registers idle: 16 ymm admit
                // three one-vector slivers of the 4x4 comparison shape,
                // and only the zmm kernel is written over a group.
                assert_eq!((group, derived(isa, kind)), (1, 3));
            } else {
                assert_eq!(group, derived(isa, kind), "{} {isa:?}", kind.label());
            }
            // every size up to the group has a kernel (the tail of an mc
            // block needs them), and one more sliver is refused
            let (a, b) = (vec![0.5; (group + 1) * mr], vec![0.5; nr]);
            for g in 1..=group + 1 {
                let ran = std::panic::catch_unwind(|| {
                    let mut c = vec![1.0f64; g * mr * nr];
                    let mut tile = TileMut::from_slice(g * mr, nr, g * mr, &mut c);
                    assert!(run_at(isa, mr, nr, 1, &a, &b, 1.0, &mut tile, g * mr, nr));
                    c
                });
                match ran {
                    Ok(c) => {
                        assert!(g <= group, "{} {isa:?} ran {g} slivers", kind.label());
                        assert!(c.iter().all(|&x| x == 1.25));
                    }
                    Err(_) => assert_eq!(g, group + 1, "{} {isa:?}", kind.label()),
                }
            }
        }
        if Isa::detect() == Isa::Avx512 {
            assert_eq!(row_group(Isa::Avx512, 8, 6), 4);
            assert_eq!(row_group(Isa::Avx512, 8, 4), 6);
        }
        for isa in Isa::ALL {
            assert_eq!(row_group(isa, 5, 5), 1);
            assert_eq!(row_group(isa.min(Isa::Avx2), 8, 6), 1);
        }
    }

    #[test]
    fn special_values_land_where_the_portable_kernel_puts_them() {
        // (iv): one NaN / +Inf / -Inf / subnormal at a time, in A or in
        // B; every C element must fall in the same class (NaN, +Inf,
        // -Inf, finite) as under the portable kernel, and finite ones
        // must agree to rounding.
        let kc = 7;
        let class = |x: f64| (x.is_nan(), x.is_infinite(), x.is_infinite() && x < 0.0);
        for (kind, isa) in paths() {
            let (mr, nr) = (kind.mr(), kind.nr());
            let c0 = random_vec(mr * nr, 17);
            let specials = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE / 4.0,
            ];
            for special in specials {
                for in_a in [true, false] {
                    for alpha in ALPHAS {
                        let mut a = random_vec(mr * kc, 19);
                        let mut b = random_vec(nr * kc, 23);
                        // row mr-2 of A at k = 3, or column nr-2 of B
                        if in_a {
                            a[3 * mr + mr - 2] = special;
                        } else {
                            b[3 * nr + nr - 2] = special;
                        }
                        // full, one that masks the special's row/column
                        // out, and one that keeps it on the last edge
                        for (m_eff, n_eff) in [(mr, nr), (mr - 2, nr - 2), (mr - 1, nr - 1)] {
                            let run = |via| {
                                let at = BAt::Packed;
                                run_embedded(
                                    via, kind, 1, kc, &a, &b, at, alpha, false, &c0, m_eff, n_eff,
                                )
                            };
                            let (got, want) = (run(Via::Group(isa)), run(Via::Portable));
                            for j in 0..n_eff {
                                for i in 0..m_eff {
                                    let (g, w) = (got[i + j * mr], want[i + j * mr]);
                                    let what = format!(
                                        "{} {isa:?} special={special:e} in_a={in_a} alpha={alpha} \
                                         {m_eff}x{n_eff} at ({i},{j}): {g} vs portable {w}",
                                        kind.label()
                                    );
                                    assert_eq!(class(g), class(w), "{what}");
                                    if w.is_finite() {
                                        assert!((g - w).abs() <= 1e-13, "{what}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn levels_above_the_host_and_shapes_without_a_kernel_have_no_path() {
        let mut c = [1.0f64; 25];
        let mut tile = TileMut::from_slice(5, 5, 5, &mut c);
        let (a, b) = ([0.5f64; 5], [0.5f64; 5]);
        for isa in Isa::ALL {
            assert!(!run_at(isa, 5, 5, 1, &a, &b, 1.0, &mut tile, 5, 5));
            assert_eq!(isa_for(isa, 5, 5), Isa::Portable);
            assert_eq!(isa_for(isa, 12, 8), Isa::Portable);
        }
        assert!(c.iter().all(|&x| x == 1.0), "a refused call touched C");
        let (a, b) = ([0.5f64; 8], [0.5f64; 6]);
        let mut c = [1.0f64; 48];
        let mut tile = TileMut::from_slice(8, 6, 8, &mut c);
        for isa in Isa::ALL {
            let ran = run_at(isa, 8, 6, 1, &a, &b, 1.0, &mut tile, 8, 6);
            assert_eq!(ran, isa != Isa::Portable && isa <= Isa::detect());
        }
        assert_eq!(isa_for(Isa::Avx512, 4, 4), Isa::Avx2);
    }

    #[test]
    fn short_slivers_are_rejected_in_release_builds_too() {
        if Isa::detect() == Isa::Portable {
            return; // no ISA path on this host to reject them
        }
        for (a_len, b_len) in [(31, 24), (32, 23)] {
            let refused = std::panic::catch_unwind(|| {
                let mut c = [0.0f64; 48];
                let mut tile = TileMut::from_slice(8, 6, 8, &mut c);
                run(
                    8,
                    6,
                    4,
                    &vec![0.0; a_len],
                    &vec![0.0; b_len],
                    1.0,
                    &mut tile,
                    8,
                    6,
                )
            });
            assert!(
                refused.is_err(),
                "a {a_len}/{b_len} sliver pair was accepted"
            );
        }
    }

    #[test]
    fn a_b_window_one_element_short_is_rejected_in_release_builds_too() {
        // The in-place reads are by pointer: the kernel's own assert is
        // all that stands between a short slice and a read past its end.
        // Shortest legal slices: 3 rows of 5 columns 9 apart end at
        // 2 + 4*9, and 3 rows 9 apart of 5 columns at 2*9 + 4.
        for (kind, isa) in paths() {
            let (mr, nr) = (kind.mr(), kind.nr());
            let (kc, n_eff) = (3, nr - 1);
            let a = vec![0.5; mr * kc];
            for trans in [Transpose::No, Transpose::Yes] {
                let layout = stored(trans, 9);
                let need = layout.last_offset(nr, kc, n_eff).unwrap() + 1;
                for (len, ok) in [(need, true), (need - 1, false)] {
                    let b = vec![0.5; len];
                    let ran = std::panic::catch_unwind(|| {
                        let mut c = vec![0.0f64; mr * nr];
                        let mut tile = TileMut::from_slice(mr, nr, mr, &mut c);
                        run_at_with(
                            isa, mr, nr, kc, &a, &b, layout, 1.0, false, &mut tile, mr, n_eff,
                        )
                    });
                    assert_eq!(
                        ran.is_ok(),
                        ok,
                        "{} {isa:?} {trans:?} len {len}",
                        kind.label()
                    );
                }
            }
            // strides whose last offset overflows are refused, not wrapped
            let huge = BLayout::Strided {
                ks: usize::MAX / 2,
                cs: 1,
            };
            let refused = std::panic::catch_unwind(|| {
                let mut c = vec![0.0f64; mr * nr];
                let mut tile = TileMut::from_slice(mr, nr, mr, &mut c);
                run_at_with(
                    isa, mr, nr, kc, &a, &[0.5; 64], huge, 1.0, false, &mut tile, mr, nr,
                )
            });
            assert!(
                refused.is_err(),
                "{} {isa:?}: overflowing strides",
                kind.label()
            );
        }
    }

    #[test]
    #[should_panic(expected = "B sliver ends outside its slice")]
    fn the_portable_kernel_rejects_a_short_b_window_too() {
        let (a, b) = (vec![0.5; 5 * 3], vec![0.5; 2 + 3 * 9]);
        let mut c = vec![0.0f64; 25];
        let mut tile = TileMut::from_slice(5, 5, 5, &mut c);
        let layout = stored(Transpose::No, 9);
        // 5 columns 9 apart, 3 deep, end at 2 + 4*9
        run_portable(
            MicroKernelKind::Mk5x5,
            3,
            &a,
            &b,
            layout,
            1.0,
            false,
            &mut tile,
            5,
            5,
        );
    }
}
