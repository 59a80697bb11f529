//! Section IV-A: choosing the register block size `mr × nr`.
//!
//! The optimization problem (equations (8)–(11)):
//!
//! ```text
//! maximize   γ = 2 / (1/nr + 1/mr)                         (8)
//! subject to (mr·nr + 2·mr + 2·nr) · element ≤ (nf + nrf) · pf   (9)
//!            0 ≤ nrf · pf ≤ (mr + nr) · element             (10)
//!            mr = 2i, nr = 2j                               (11)
//! ```
//!
//! Constraint (9) counts the register demand of one rank-1 update with
//! double buffering: `mr·nr` C elements pinned in registers, plus *two*
//! `mr×1` A sub-slivers and *two* `1×nr` B sub-slivers (current + next),
//! of which `nrf` registers' worth can be saved by reusing registers
//! across consecutive iterations (software register rotation). Constraint
//! (10) says at most one full set of A+B values can be reused. Constraint
//! (11) keeps `mr`, `nr` multiples of the 2-lane vector width.
//!
//! On the paper's machine (`nf = 32`, `pf = 16`, `element = 8`) the optimum
//! is `γ = 48/7 ≈ 6.857` at `nrf = 6` with `mr×nr ∈ {8×6, 6×8}`; `8×6` is
//! preferred because `mr · element = 64` bytes = exactly one cache line,
//! which makes prefetching A convenient (Section IV-B).

use crate::arch::MachineDesc;
use crate::ratio::gamma_register;

/// Result of the register-block optimization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegisterBlockChoice {
    /// Rows of the register block (elements of A per rank-1 update).
    pub mr: usize,
    /// Columns of the register block (elements of B per rank-1 update).
    pub nr: usize,
    /// Number of floating-point registers reused between consecutive
    /// iterations by register rotation.
    pub nrf: usize,
    /// The achieved compute-to-memory access ratio (equation (8)).
    pub gamma: f64,
}

/// Check constraints (9)–(11) for a candidate `(mr, nr, nrf)`.
///
/// Constraint (11) generalizes the paper's "multiples of 2" to multiples
/// of the vector lane count (`pf / element`): 2 lanes for f64 as in the
/// paper, 4 lanes when the same analysis is applied to single precision.
#[must_use]
pub fn register_constraints_ok(mr: usize, nr: usize, nrf: usize, m: &MachineDesc) -> bool {
    let es = m.element_bytes;
    let pf = m.vreg_bytes;
    let lanes = pf / es;
    let eq9 = (mr * nr + 2 * mr + 2 * nr) * es <= (m.nf + nrf) * pf;
    let eq10 = nrf * pf <= (mr + nr) * es;
    let eq11 = mr.is_multiple_of(lanes) && nr.is_multiple_of(lanes) && mr > 0 && nr > 0;
    eq9 && eq10 && eq11
}

/// Solve (8)–(11): the best register block for machine `m`.
///
/// Ties on γ are broken by (a) smallest `nrf` (less rotation state), then
/// (b) `mr ≥ nr` (so an A sub-sliver is a whole number of cache lines,
/// which the paper exploits for prefetching).
///
/// ```
/// use perfmodel::{regblock::optimize_register_block, MachineDesc};
/// let best = optimize_register_block(&MachineDesc::xgene());
/// assert_eq!((best.mr, best.nr, best.nrf), (8, 6, 6)); // paper Fig. 5
/// assert!((best.gamma - 6.857).abs() < 1e-3);
/// ```
#[must_use]
pub fn optimize_register_block(m: &MachineDesc) -> RegisterBlockChoice {
    let mut best: Option<RegisterBlockChoice> = None;
    let lanes = (m.vreg_bytes / m.element_bytes).max(1);
    let max_dim = 2 * m.nf; // generous upper bound; constraint (9) prunes
    for mr in (lanes..=max_dim).step_by(lanes) {
        for nr in (lanes..=max_dim).step_by(lanes) {
            // smallest nrf that satisfies (9), if any within (10)
            let nrf_cap = (mr + nr) * m.element_bytes / m.vreg_bytes;
            let Some(nrf) = (0..=nrf_cap).find(|&nrf| register_constraints_ok(mr, nr, nrf, m))
            else {
                continue;
            };
            let cand = RegisterBlockChoice {
                mr,
                nr,
                nrf,
                gamma: gamma_register(mr, nr),
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    cand.gamma > b.gamma + 1e-12
                        || ((cand.gamma - b.gamma).abs() <= 1e-12
                            && (cand.nrf < b.nrf
                                || (cand.nrf == b.nrf && cand.mr >= cand.nr && b.mr < b.nr)))
                }
            };
            if better {
                best = Some(cand);
            }
        }
    }
    best.expect("register file too small for any 2x2 block")
}

/// The register budget of the *broadcast-B* kernel form used on x86
/// (`dgemm-core::simd`), beside the by-element form of (9)–(11).
///
/// The NEON kernel holds B sub-slivers as vectors and multiplies by one
/// lane (`fmla v.2d, v.2d, v.d[i]`), so both `mr` and `nr` are lane
/// multiples and A and B compete for registers. AVX has no by-element
/// FMA; the kernel instead keeps C as `nr` columns of `mr/lanes` vectors,
/// loads the A sub-sliver as `mr/lanes` vectors and broadcasts one B
/// element at a time:
///
/// ```text
/// (mr/lanes)·nr + mr/lanes + 1 ≤ nf,   mr = lanes·i
/// ```
///
/// `nr` is unconstrained by the lane count, and no registers are spent
/// on double buffering — the out-of-order core renames the A vectors and
/// the broadcast across iterations.
#[must_use]
pub fn broadcast_b_constraints_ok(mr: usize, nr: usize, m: &MachineDesc) -> bool {
    let lanes = (m.vreg_bytes / m.element_bytes).max(1);
    let mv = mr / lanes;
    // accumulators + A vectors + the one broadcast register
    let demand = mv * nr + mv + 1;
    mr > 0 && nr > 0 && mr.is_multiple_of(lanes) && demand <= m.nf
}

/// Maximize γ (equation (8)) under [`broadcast_b_constraints_ok`]; of
/// equal-γ blocks the one with the smallest `mr` is kept. `nrf` is 0:
/// this form rotates no registers.
///
/// ```
/// use perfmodel::{regblock::optimize_broadcast_b_block, MachineDesc};
/// let best = optimize_broadcast_b_block(&MachineDesc::x86_avx2());
/// assert_eq!((best.mr, best.nr), (8, 6)); // the paper's tile, on 16 ymm
/// ```
#[must_use]
pub fn optimize_broadcast_b_block(m: &MachineDesc) -> RegisterBlockChoice {
    let lanes = (m.vreg_bytes / m.element_bytes).max(1);
    let mut best: Option<RegisterBlockChoice> = None;
    for mr in (lanes..=lanes * m.nf).step_by(lanes) {
        for nr in 1..=m.nf {
            if !broadcast_b_constraints_ok(mr, nr, m) {
                continue;
            }
            let gamma = gamma_register(mr, nr);
            if best.is_none_or(|b| gamma > b.gamma + 1e-12) {
                best = Some(RegisterBlockChoice {
                    mr,
                    nr,
                    nrf: 0,
                    gamma,
                });
            }
        }
    }
    best.expect("register file too small for a one-vector column")
}

/// The tallest register tile a broadcast-B kernel can build from whole
/// `mr×kc` slivers of the *existing* packed-A layout: the largest `g`
/// for which `g` adjacent slivers against one B sliver — a `(g·mr)×nr`
/// accumulator — still satisfy [`broadcast_b_constraints_ok`]. `mr` and
/// `nr` of the result are those of the grouped tile, `gamma` its ratio;
/// `None` when not even one sliver fits.
///
/// This is how `dgemm-core::simd` fills a register file wider than the
/// one the packed shape was derived for without changing the shape:
///
/// ```
/// use perfmodel::{regblock::max_row_group, MachineDesc};
/// let (g, tile) = max_row_group(8, 6, &MachineDesc::x86_avx512()).unwrap();
/// assert_eq!((g, tile.mr, tile.nr), (4, 32, 6)); // 24 + 4 + 1 = 29 of 32 zmm
/// assert_eq!(max_row_group(8, 6, &MachineDesc::x86_avx2()).unwrap().0, 1);
/// ```
#[must_use]
pub fn max_row_group(
    mr: usize,
    nr: usize,
    m: &MachineDesc,
) -> Option<(usize, RegisterBlockChoice)> {
    // demand grows with g, so the feasible set is a prefix of 1..=nf
    let g = (1..=m.nf)
        .take_while(|&g| broadcast_b_constraints_ok(g * mr, nr, m))
        .last()?;
    let tile = RegisterBlockChoice {
        mr: g * mr,
        nr,
        nrf: 0,
        gamma: gamma_register(g * mr, nr),
    };
    Some((g, tile))
}

/// One point of the Figure 5 surface.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurfacePoint {
    /// X axis: `mr`.
    pub mr: usize,
    /// Y axis: `nrf`.
    pub nrf: usize,
    /// Z axis: the best γ achievable at this `(mr, nrf)` over all feasible
    /// even `nr` (0 if infeasible).
    pub gamma: f64,
    /// The `nr` attaining it (0 if infeasible).
    pub nr: usize,
}

/// Compute the Figure 5 surface: best γ as a function of `mr` and `nrf`.
#[must_use]
pub fn gamma_surface(m: &MachineDesc, mr_max: usize, nrf_max: usize) -> Vec<SurfacePoint> {
    let mut out = Vec::new();
    let lanes = (m.vreg_bytes / m.element_bytes).max(1);
    for mr in (lanes..=mr_max).step_by(lanes) {
        for nrf in 0..=nrf_max {
            let mut best_g = 0.0;
            let mut best_nr = 0;
            for nr in (lanes..=2 * m.nf).step_by(lanes) {
                if register_constraints_ok(mr, nr, nrf, m) {
                    let g = gamma_register(mr, nr);
                    if g > best_g {
                        best_g = g;
                        best_nr = nr;
                    }
                }
            }
            out.push(SurfacePoint {
                mr,
                nrf,
                gamma: best_g,
                nr: best_nr,
            });
        }
    }
    out
}

/// Register demand of a register block, in vector registers: `mr·nr/2` for
/// C plus `(mr+nr)/2` for the current A/B sub-slivers plus the same again
/// for the prefetched next sub-slivers minus the `nrf` rotated registers.
#[must_use]
pub fn vector_registers_needed(mr: usize, nr: usize, nrf: usize, m: &MachineDesc) -> usize {
    let lanes = m.vreg_bytes / m.element_bytes;
    let c_regs = (mr * nr).div_ceil(lanes);
    let ab_regs = (mr + nr).div_ceil(lanes);
    c_regs + 2 * ab_regs - nrf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_optimum_is_8x6_nrf6() {
        let m = MachineDesc::xgene();
        let c = optimize_register_block(&m);
        assert_eq!((c.mr, c.nr, c.nrf), (8, 6, 6));
        assert!((c.gamma - 48.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn paper_examples_feasible() {
        let m = MachineDesc::xgene();
        assert!(register_constraints_ok(8, 6, 6, &m));
        assert!(register_constraints_ok(6, 8, 6, &m));
        assert!(register_constraints_ok(8, 4, 4, &m));
        assert!(register_constraints_ok(4, 4, 0, &m));
    }

    #[test]
    fn infeasible_blocks_rejected() {
        let m = MachineDesc::xgene();
        // 8x8 needs 64 + 32 = 96 element-slots > 64 + 2*8 even at max nrf.
        let nrf_cap = (8 + 8) * m.element_bytes / m.vreg_bytes;
        for nrf in 0..=nrf_cap {
            assert!(!register_constraints_ok(8, 8, nrf, &m));
        }
        // odd blocks violate (11)
        assert!(!register_constraints_ok(5, 5, 0, &m));
        assert!(!register_constraints_ok(8, 5, 0, &m));
    }

    #[test]
    fn constraint_10_enforced() {
        let m = MachineDesc::xgene();
        // nrf beyond (mr+nr)*es/pf = 7 must be rejected for 8x6.
        assert!(!register_constraints_ok(8, 6, 8, &m));
        assert!(register_constraints_ok(8, 6, 7, &m));
    }

    #[test]
    fn surface_peak_matches_figure5() {
        let m = MachineDesc::xgene();
        let surface = gamma_surface(&m, 16, 8);
        let max_gamma = surface.iter().map(|p| p.gamma).fold(0.0, f64::max);
        // Figure 5 annotates the peak: X=8 (mr), Y=6 (nrf), Z=6.857.
        assert!((max_gamma - 6.857).abs() < 1e-3);
        let at_8_6 = surface
            .iter()
            .find(|p| p.mr == 8 && p.nrf == 6)
            .expect("surface covers (8, 6)");
        assert_eq!(at_8_6.nr, 6);
        assert!(
            (at_8_6.gamma - max_gamma).abs() < 1e-12,
            "(8,6) attains the peak"
        );
        // No smaller nrf reaches the peak at mr = 8.
        for p in surface.iter().filter(|p| p.mr == 8 && p.nrf < 6) {
            assert!(p.gamma < max_gamma - 1e-9);
        }
    }

    #[test]
    fn surface_bounded_by_global_optimum() {
        // No surface point exceeds the solved optimum, and feasible points
        // are strictly positive while infeasible corners report 0.
        let m = MachineDesc::xgene();
        let opt = optimize_register_block(&m);
        let surface = gamma_surface(&m, 16, 8);
        for p in &surface {
            assert!(p.gamma <= opt.gamma + 1e-12);
            assert_eq!(p.gamma > 0.0, p.nr > 0);
        }
        // mr = 16 with nrf = 0 cannot satisfy (9) for any even nr:
        // 16·nr + 32 + 2·nr <= 64 would need nr <= 1.8.
        let corner = surface.iter().find(|p| p.mr == 16 && p.nrf == 0).unwrap();
        assert_eq!(corner.gamma, 0.0);
    }

    #[test]
    fn single_precision_analysis() {
        // the same machinery applied to f32 (4 lanes per q-register):
        // the optimum grows to 12x8 with gamma 9.6
        let mut m = MachineDesc::xgene();
        m.element_bytes = 4;
        let c = optimize_register_block(&m);
        assert_eq!((c.mr, c.nr), (12, 8));
        assert!((c.gamma - 9.6).abs() < 1e-9);
        // odd-lane blocks rejected
        assert!(!register_constraints_ok(10, 8, 0, &m));
        assert!(!register_constraints_ok(12, 6, 0, &m));
    }

    #[test]
    fn broadcast_b_argmax_on_avx2_is_the_papers_tile() {
        // 16 ymm x 4 lanes: (mr/4)·(nr+1) ≤ 15 admits 4x14 (γ 6.22),
        // 8x6 (γ 6.857) and 12x4 (γ 6.0) — the paper's 8x6 survives the
        // move to x86, which is why no packed layout had to change.
        let m = MachineDesc::x86_avx2();
        let c = optimize_broadcast_b_block(&m);
        assert_eq!((c.mr, c.nr), (8, 6));
        assert!((c.gamma - 48.0 / 7.0).abs() < 1e-12);
        // 2·6 accumulators + 2 A vectors + 1 broadcast = 15 of 16.
        assert!(broadcast_b_constraints_ok(8, 6, &m));
        assert!(!broadcast_b_constraints_ok(8, 7, &m));
        assert!(!broadcast_b_constraints_ok(12, 5, &m));
        // nr need not be a lane multiple; mr must be.
        assert!(broadcast_b_constraints_ok(4, 5, &m));
        assert!(!broadcast_b_constraints_ok(6, 4, &m));
    }

    #[test]
    fn broadcast_b_argmax_on_avx512_is_the_follow_up_tile() {
        // 32 zmm x 8 lanes: (mr/8)·(nr+1) ≤ 31 peaks at 16x14, γ = 14.93.
        // This is the *follow-up* tile, not wired into any config: a new
        // default shape changes every packed layout and store blob and
        // wants the probed blocking first. The AVX-512 kernels instead
        // run the packed 8x6 shape four slivers at a time (32x6, 29 of
        // 32 registers, γ = 10.1): see `max_row_group`.
        let m = MachineDesc::x86_avx512();
        let c = optimize_broadcast_b_block(&m);
        assert_eq!((c.mr, c.nr), (16, 14));
        assert!((c.gamma - 14.933).abs() < 1e-3);
        assert!(broadcast_b_constraints_ok(8, 6, &m));
        assert!(!broadcast_b_constraints_ok(16, 15, &m));
    }

    #[test]
    fn row_group_fills_the_register_file_from_whole_slivers() {
        let (avx512, avx2) = (MachineDesc::x86_avx512(), MachineDesc::x86_avx2());
        // 8x6 on 32 zmm: g·6 + g + 1 ≤ 32 gives g = 4, a 32x6 tile.
        let (g, tile) = max_row_group(8, 6, &avx512).unwrap();
        assert_eq!((g, tile.mr, tile.nr, tile.nrf), (4, 32, 6, 0));
        assert!((tile.gamma - 10.105).abs() < 1e-3);
        assert!(broadcast_b_constraints_ok(32, 6, &avx512));
        assert!(!broadcast_b_constraints_ok(40, 6, &avx512));
        // 8x4: g·4 + g + 1 ≤ 32 gives g = 6 (48x4, 31 registers).
        let (g, tile) = max_row_group(8, 4, &avx512).unwrap();
        assert_eq!((g, tile.mr), (6, 48));
        // 16 ymm: 8x6 already takes 15, 8x4 takes 11 and a second sliver
        // would take 21; only the one-vector 4x4 column has room (12x4).
        assert_eq!(max_row_group(8, 6, &avx2).unwrap().0, 1);
        assert_eq!(max_row_group(8, 4, &avx2).unwrap().0, 1);
        assert_eq!(max_row_group(4, 4, &avx2).unwrap().0, 3);
        // a sliver that is not a whole number of vectors has no group,
        // nor has one whose single column overflows the file
        assert!(max_row_group(5, 5, &avx2).is_none());
        assert!(max_row_group(8, 16, &avx2).is_none());
        // the group never beats the unconstrained argmax of the same form
        let best = optimize_broadcast_b_block(&avx512);
        assert!(max_row_group(8, 6, &avx512).unwrap().1.gamma < best.gamma);
    }

    #[test]
    fn register_demand_fits_register_file() {
        let m = MachineDesc::xgene();
        // 8x6 with nrf=6: 24 C regs + 2*7 A/B regs - 6 reused = 32 = nf.
        assert_eq!(vector_registers_needed(8, 6, 6, &m), 32);
        assert!(vector_registers_needed(8, 4, 4, &m) <= m.nf);
        assert!(vector_registers_needed(4, 4, 0, &m) <= m.nf);
    }
}
