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
//! shapes, the packed layouts and everything above layer 7 are untouched.
//!
//! | shape | AVX-512F | AVX2+FMA |
//! |-------|----------|----------|
//! | 8×6   | 1 zmm × 6 | 2 ymm × 6 |
//! | 8×4   | 1 zmm × 4 | 2 ymm × 4 |
//! | 4×4   | — (runs the ymm kernel) | 1 ymm × 4 |
//! | 5×5   | portable | portable |
//!
//! # Safety
//!
//! This is the crate's second (and only other) home for `unsafe` after
//! [`crate::tile`]. The argument is three lines:
//!
//! 1. a `#[target_feature]` kernel is only ever called from [`run_at`],
//!    after `is_x86_feature_detected!` confirmed the feature on this host;
//! 2. A and B are read through `chunks_exact(mr)` / `chunks_exact(nr)` of
//!    the caller's slices, so every vector load covers exactly one chunk;
//! 3. C is reached only through [`TileMut::col_seg_mut`], and the masked
//!    load/store touches exactly the `m_eff` lanes of the segment it
//!    returned — never a full vector on a ragged tile, because the pool's
//!    threads own disjoint row bands of one C and a stray lane would be a
//!    data race, not just a wrong answer.
//!
//! Every element sees the same arithmetic on full and edge tiles: one FMA
//! chain over ascending `k`, then one fused `c + α·acc`. Results are
//! therefore bit-identical per kernel across every runtime, and differ
//! from the portable kernel (separate multiply and add) only by rounding.

use crate::tile::TileMut;
use perfmodel::MachineDesc;

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

/// Run the `f64` `mr×nr` register kernel at the host's widest level.
/// Returns `false` — having touched nothing — when no ISA path applies,
/// so the caller falls through to the portable kernel. Argument contract
/// as [`crate::microkernel::run_microkernel`].
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
    if isa > Isa::detect() {
        return false;
    }
    let level = isa_for(isa, mr, nr);
    if level == Isa::Portable {
        return false;
    }
    // Real asserts, not debug ones: the kernels' loads are in bounds by
    // construction (chunked slices), but a short sliver would silently
    // shorten the k loop, and an oversized m_eff/n_eff would index past
    // the accumulator.
    assert!(a.len() >= mr * kc, "A sliver shorter than mr*kc");
    assert!(b.len() >= nr * kc, "B sliver shorter than nr*kc");
    assert!(m_eff <= mr && n_eff <= nr, "effective tile exceeds mr x nr");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (every arm): `level <= isa <= Isa::detect()`, so the
        // target features the callee is compiled with were detected on
        // this host.
        match (level, mr, nr) {
            (Isa::Avx512, 8, 6) => unsafe {
                x86::kernel_zmm::<1, 6>(kc, a, b, alpha, c, m_eff, n_eff)
            },
            (Isa::Avx512, 8, 4) => unsafe {
                x86::kernel_zmm::<1, 4>(kc, a, b, alpha, c, m_eff, n_eff)
            },
            (Isa::Avx2, 8, 6) => unsafe {
                x86::kernel_ymm::<2, 6>(kc, a, b, alpha, c, m_eff, n_eff)
            },
            (Isa::Avx2, 8, 4) => unsafe {
                x86::kernel_ymm::<2, 4>(kc, a, b, alpha, c, m_eff, n_eff)
            },
            (Isa::Avx2, 4, 4) => unsafe {
                x86::kernel_ymm::<1, 4>(kc, a, b, alpha, c, m_eff, n_eff)
            },
            _ => unreachable!("isa_for promised a kernel for {mr}x{nr}"),
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (alpha, c);
        false
    }
}

#[cfg(target_arch = "x86_64")]
// The accumulator arrays must only ever be indexed by unrolled constants,
// or they live on the stack for the whole k loop: plain range loops, not
// iterator adaptors with a run-time `take`.
#[allow(clippy::needless_range_loop)]
mod x86 {
    use crate::tile::TileMut;
    use core::arch::x86_64::*;

    /// `8·MV × NR` kernel on 512-bit registers: `MV·NR` accumulators,
    /// `MV` A vectors and one broadcast B element live per rank-1 update.
    ///
    /// Do not split `k` into even/odd accumulator sets here: measured, it
    /// buys nothing end to end on 8×6 (EXPERIMENTS.md, "ISA-specific
    /// register kernels") — with 7 loads per 6 FMAs the loop leans on the
    /// load ports as much as on FMA latency.
    #[target_feature(enable = "avx512f")]
    pub(super) fn kernel_zmm<const MV: usize, const NR: usize>(
        kc: usize,
        a: &[f64],
        b: &[f64],
        alpha: f64,
        c: &mut TileMut<'_>,
        m_eff: usize,
        n_eff: usize,
    ) {
        const LANES: usize = 8;
        let mut acc = [[_mm512_setzero_pd(); MV]; NR];
        for (ac, bc) in a.chunks_exact(LANES * MV).zip(b.chunks_exact(NR)).take(kc) {
            let mut av = [_mm512_setzero_pd(); MV];
            for (v, av) in av.iter_mut().enumerate() {
                // SAFETY: `ac` is exactly LANES*MV long, so lanes
                // v*LANES .. (v+1)*LANES are inside it.
                *av = unsafe { _mm512_loadu_pd(ac.as_ptr().add(v * LANES)) };
            }
            for j in 0..NR {
                let bj = _mm512_set1_pd(bc[j]);
                for v in 0..MV {
                    acc[j][v] = _mm512_fmadd_pd(av[v], bj, acc[j][v]);
                }
            }
        }
        let alpha = _mm512_set1_pd(alpha);
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
                let mask = 0xFFu8 >> (LANES - lanes);
                // SAFETY: `lanes >= 1`, so `v*LANES < col.len()` and the
                // offset pointer is inside `col`; the mask selects lanes
                // `0..lanes`, i.e. `col[v*LANES .. v*LANES + lanes]`, and
                // masked-off lanes are neither read nor written.
                unsafe {
                    let p = col.as_mut_ptr().add(v * LANES);
                    let cv = _mm512_maskz_loadu_pd(mask, p);
                    _mm512_mask_storeu_pd(p, mask, _mm512_fmadd_pd(alpha, acc[j][v], cv));
                }
            }
        }
    }

    /// `4·MV × NR` kernel on 256-bit registers; see [`kernel_zmm`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn kernel_ymm<const MV: usize, const NR: usize>(
        kc: usize,
        a: &[f64],
        b: &[f64],
        alpha: f64,
        c: &mut TileMut<'_>,
        m_eff: usize,
        n_eff: usize,
    ) {
        const LANES: usize = 4;
        let mut acc = [[_mm256_setzero_pd(); MV]; NR];
        for (ac, bc) in a.chunks_exact(LANES * MV).zip(b.chunks_exact(NR)).take(kc) {
            let mut av = [_mm256_setzero_pd(); MV];
            for (v, av) in av.iter_mut().enumerate() {
                // SAFETY: `ac` is exactly LANES*MV long, so lanes
                // v*LANES .. (v+1)*LANES are inside it.
                *av = unsafe { _mm256_loadu_pd(ac.as_ptr().add(v * LANES)) };
            }
            for j in 0..NR {
                let bj = _mm256_set1_pd(bc[j]);
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
                    let cv = _mm256_maskload_pd(p, mask);
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

    /// `len` values uniform in `[-1, 1)`.
    fn random_vec(len: usize, seed: u64) -> Vec<f64> {
        Matrix::random(len, 1, seed).as_slice().to_vec()
    }

    /// Run one kernel (`Some(isa)`: the SIMD path at that level, `None`:
    /// the portable kernel) on an `m_eff x n_eff` tile embedded at (1, 1)
    /// of a poisoned buffer with `ld > rows`, assert that nothing outside
    /// the tile changed by a single bit, and return the `mr x nr` result
    /// (column-major, `ld = mr`, poison outside `m_eff x n_eff`).
    #[allow(clippy::too_many_arguments)]
    fn run_embedded(
        isa: Option<Isa>,
        kind: MicroKernelKind,
        kc: usize,
        a: &[f64],
        b: &[f64],
        alpha: f64,
        c0: &[f64],
        m_eff: usize,
        n_eff: usize,
    ) -> Vec<f64> {
        let (mr, nr) = (kind.mr(), kind.nr());
        let ld = mr + 3;
        let inside = |i: usize, j: usize| (1..=m_eff).contains(&i) && (1..=n_eff).contains(&j);
        let mut buf = vec![f64::from_bits(POISON); ld * (nr + 2)];
        for j in 1..=n_eff {
            for i in 1..=m_eff {
                buf[i + j * ld] = c0[(i - 1) + (j - 1) * mr];
            }
        }
        {
            let mut tile = TileMut::from_slice(m_eff, n_eff, ld, &mut buf[1 + ld..]);
            match isa {
                Some(isa) => assert!(
                    run_at(isa, mr, nr, kc, a, b, alpha, &mut tile, m_eff, n_eff),
                    "{} has no {isa:?} path",
                    kind.label()
                ),
                None => run_portable(kind, kc, a, b, alpha, &mut tile, m_eff, n_eff),
            }
        }
        let mut out = vec![f64::from_bits(POISON); mr * nr];
        for j in 0..nr + 2 {
            for i in 0..ld {
                if inside(i, j) {
                    out[(i - 1) + (j - 1) * mr] = buf[i + j * ld];
                } else {
                    assert_eq!(
                        buf[i + j * ld].to_bits(),
                        POISON,
                        "{} {isa:?} kc={kc} {m_eff}x{n_eff}: wrote outside the tile at ({i}, {j})",
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

    /// (i) of the conformance contract, for one kernel on a full tile:
    /// `|c_hat - c| <= 2·k·eps·(|alpha|·(|A||B|) + |c0|)`, exact at `k = 0`.
    fn assert_within_forward_bound(isa: Option<Isa>, kind: MicroKernelKind, kc: usize, alpha: f64) {
        let (mr, nr) = (kind.mr(), kind.nr());
        let a = random_vec(mr * kc, 1 + kc as u64);
        let b = random_vec(nr * kc, 2 + kc as u64);
        let c0 = random_vec(mr * nr, 3);
        let got = run_embedded(isa, kind, kc, &a, &b, alpha, &c0, mr, nr);
        for j in 0..nr {
            for i in 0..mr {
                let terms = || (0..kc).map(|k| (a[k * mr + i], b[k * nr + j]));
                let exact = compensated(c0[i + j * mr], alpha, terms());
                let abs_ab: f64 = terms().map(|(x, y)| (x * y).abs()).sum();
                let bound =
                    2.0 * kc as f64 * f64::EPSILON * (alpha.abs() * abs_ab + c0[i + j * mr].abs());
                let err = (got[i + j * mr] - exact).abs();
                assert!(
                    err <= bound,
                    "{} {isa:?} kc={kc} alpha={alpha} ({i},{j}): |{} - {exact}| = {err} > {bound}",
                    kind.label(),
                    got[i + j * mr]
                );
            }
        }
    }

    #[test]
    fn forward_error_within_bound_of_compensated_oracle() {
        for kc in KCS {
            for alpha in ALPHAS {
                for (kind, isa) in paths() {
                    assert_within_forward_bound(Some(isa), kind, kc, alpha);
                }
                // The portable kernel is held to the same bound, on every
                // host, for every shape.
                for kind in MicroKernelKind::ALL {
                    assert_within_forward_bound(None, kind, kc, alpha);
                }
            }
        }
    }

    #[test]
    fn edge_tiles_store_exactly_m_eff_by_n_eff_and_match_the_full_tile_bitwise() {
        // (ii) is asserted inside run_embedded on every call; (iii) here:
        // the elements an edge tile computes carry the same bits as the
        // same elements of the full tile.
        for (kind, isa) in paths() {
            let (mr, nr) = (kind.mr(), kind.nr());
            let c0 = random_vec(mr * nr, 7);
            for kc in KCS {
                let a = random_vec(mr * kc, 11 + kc as u64);
                let b = random_vec(nr * kc, 13 + kc as u64);
                for alpha in ALPHAS {
                    let full = run_embedded(Some(isa), kind, kc, &a, &b, alpha, &c0, mr, nr);
                    for m_eff in 1..=mr {
                        for n_eff in 1..=nr {
                            let edge =
                                run_embedded(Some(isa), kind, kc, &a, &b, alpha, &c0, m_eff, n_eff);
                            for j in 0..n_eff {
                                for i in 0..m_eff {
                                    assert_eq!(
                                        edge[i + j * mr].to_bits(),
                                        full[i + j * mr].to_bits(),
                                        "{} {isa:?} kc={kc} alpha={alpha} {m_eff}x{n_eff} at ({i},{j})",
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
                            let got =
                                run_embedded(Some(isa), kind, kc, &a, &b, alpha, &c0, m_eff, n_eff);
                            let want =
                                run_embedded(None, kind, kc, &a, &b, alpha, &c0, m_eff, n_eff);
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
}
