//! Model-seeded candidate enumeration and shape-class quantization for
//! the closed-loop autotuner (`dgemm-core::autotune`, DESIGN.md §14).
//!
//! The paper's thesis is that the analytic model makes empirical search
//! nearly unnecessary; Veras et al. ("Automating the Last-Mile") and
//! Martínez et al. ("Co-Design of the Dense Linear Algebra Software
//! Stack") make the complementary point that what little search remains
//! should be *pruned by the model*, not brute-forced. This module is
//! that pruning:
//!
//! - [`candidate_blockings`] emits a small candidate set seeded from
//!   [`crate::cacheblock::solve_blocking`] (eqs. (15)–(20)),
//!   [`crate::cacheblock::goto_heuristic_blocking`] (the Table VI
//!   baseline) and coordinate neighbors along the Table VI sensitivity
//!   axes (`kc`, `mc`, `nc` halved/doubled one at a time) — never a
//!   grid sweep;
//! - [`prune_by_model`] ranks candidates by the eq. (4) time bound for
//!   the probe shape and drops the ones the model already dominates;
//! - [`ShapeClass`] quantizes `(m, n, k)` into coarse per-dimension
//!   bands so measured winners generalize to the neighborhood of the
//!   probed shape and the tuning DB stays a handful of entries.

use crate::arch::MachineDesc;
use crate::cacheblock::{goto_heuristic_blocking, solve_blocking, BlockSizes};
use crate::model::{time_bound, MachineCosts, OverlapFactor};
use crate::ratio::GebpTraffic;

/// Upper inclusive edges of the per-dimension quantization bands. A
/// dimension above the last edge falls in the open-ended `xl` band.
pub const SHAPE_BANDS: [usize; 4] = [32, 128, 512, 2048];

/// Band labels, index-aligned with [`SHAPE_BANDS`] plus the trailing
/// open band.
const BAND_LABELS: [&str; 5] = ["32", "128", "512", "2048", "xl"];

/// Representative dimension used when synthesizing a probe problem for
/// a band (the band's upper edge; `xl` probes at 3072 so the sweep
/// stays affordable while still exceeding every closed band).
const BAND_REPRESENTATIVES: [usize; 5] = [32, 128, 512, 2048, 3072];

/// A coarse equivalence class of GEMM shapes: each of `m`, `n`, `k`
/// quantized to one of five bands. Tuning-DB entries are keyed by the
/// class [`ShapeClass::label`], so one measured winner serves every
/// shape in its class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShapeClass {
    /// Band index of the output-row dimension.
    pub m_band: u8,
    /// Band index of the output-column dimension.
    pub n_band: u8,
    /// Band index of the inner dimension.
    pub k_band: u8,
}

fn band_of(dim: usize) -> u8 {
    for (i, edge) in SHAPE_BANDS.iter().enumerate() {
        if dim <= *edge {
            return i as u8;
        }
    }
    SHAPE_BANDS.len() as u8
}

impl ShapeClass {
    /// Quantize a shape (zero dimensions fall in the smallest band).
    #[must_use]
    pub fn of(m: usize, n: usize, k: usize) -> Self {
        ShapeClass {
            m_band: band_of(m),
            n_band: band_of(n),
            k_band: band_of(k),
        }
    }

    /// Stable class key, e.g. `m128-n512-k512` (used verbatim in the
    /// tuning DB's schema).
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "m{}-n{}-k{}",
            BAND_LABELS[self.m_band as usize],
            BAND_LABELS[self.n_band as usize],
            BAND_LABELS[self.k_band as usize]
        )
    }

    /// A probe shape representative of the class (each dimension at its
    /// band's representative size).
    #[must_use]
    pub fn representative(&self) -> (usize, usize, usize) {
        (
            BAND_REPRESENTATIVES[self.m_band as usize],
            BAND_REPRESENTATIVES[self.n_band as usize],
            BAND_REPRESENTATIVES[self.k_band as usize],
        )
    }
}

impl core::fmt::Display for ShapeClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Round `v` down to a positive multiple of `unit`.
fn down_to(v: usize, unit: usize) -> usize {
    let unit = unit.max(1);
    (v / unit * unit).max(unit)
}

/// The candidate set for one `(kernel, threads)` tuning sweep, analytic
/// seed first.
///
/// Contents, deduplicated and capped at `budget`:
///
/// 1. the analytic blocking for `threads` (eqs. (15)–(20)) — always
///    index 0, because it is exactly what an untuned
///    `GemmConfig::for_kernel` runs and the tuner scores everything
///    against it;
/// 2. the analytic *serial* blocking when `threads > 1` (Fig. 14 shows
///    the two differ only in `mc`/`nc`; on a host whose L2 is private
///    the serial variant can win even pooled);
/// 3. the Goto half-cache heuristic (the paper's Table VI baseline);
/// 4. coordinate neighbors of the analytic seed along the Table VI
///    sensitivity axes: `kc`, `mc`, `nc` individually scaled by 1/2 and
///    2 (`kc` also by 1/4 — hosts with smaller L1s than the X-Gene sit
///    more than one halving away), rounded to the kernel/line units;
/// 5. one uniformly compact variant (`kc/4, mc/2, nc/4`) for hosts
///    whose whole hierarchy is smaller than the paper machine's.
///
/// The list is *seeded*, not exhaustive: a full Table VI-style grid
/// over the same axes would be |kc|·|mc|·|nc| ≈ 4·3·4 = 48 candidates
/// before dedup; the coordinate walk keeps it ≤ 13.
#[must_use]
pub fn candidate_blockings(
    mr: usize,
    nr: usize,
    threads: usize,
    machine: &MachineDesc,
    budget: usize,
) -> Vec<BlockSizes> {
    let threads = threads.clamp(1, machine.cores);
    let fallback = BlockSizes::custom(mr, nr, 256, 8 * mr, 64 * nr);
    let seed = solve_blocking(mr, nr, threads, machine).unwrap_or(fallback);
    let line = machine.doubles_per_line();

    let mut out: Vec<BlockSizes> = Vec::new();
    let mut push = |b: BlockSizes| {
        if b.kc > 0
            && b.mc > 0
            && b.nc > 0
            && !out.iter().any(|o| (o.kc, o.mc, o.nc) == (b.kc, b.mc, b.nc))
        {
            out.push(b);
        }
    };

    push(seed);
    if threads > 1 {
        if let Ok(serial) = solve_blocking(mr, nr, 1, machine) {
            push(serial);
        }
    }
    push(goto_heuristic_blocking(mr, nr, machine));

    // Table VI axes: one coordinate at a time around the analytic seed.
    for kc in [seed.kc / 4, seed.kc / 2, seed.kc * 2] {
        push(BlockSizes::custom(
            mr,
            nr,
            down_to(kc, 32),
            seed.mc,
            seed.nc,
        ));
    }
    for mc in [seed.mc / 2, seed.mc * 2] {
        push(BlockSizes::custom(
            mr,
            nr,
            seed.kc,
            down_to(mc, mr),
            seed.nc,
        ));
    }
    for nc in [seed.nc / 2, seed.nc * 2] {
        push(BlockSizes::custom(
            mr,
            nr,
            seed.kc,
            seed.mc,
            down_to(nc, line),
        ));
    }
    // Uniformly compact variant for hosts far smaller than the X-Gene.
    push(BlockSizes::custom(
        mr,
        nr,
        down_to(seed.kc / 4, 32),
        down_to(seed.mc / 2, mr),
        down_to(seed.nc / 4, line),
    ));

    out.truncate(budget.max(1));
    out
}

/// Clamp a candidate to the probe shape so equivalent-after-clamping
/// candidates collapse: blocks larger than the matrix walk identical
/// loops, and measuring both would waste sweep budget. `mc` and `nc`
/// round *up* to whole slivers, so a clamped block still covers its
/// dimension in one pass (512 columns at `nr = 6` clamp to 516, not to
/// 510 and a second panel of two columns).
#[must_use]
pub fn clamp_to_shape(b: &BlockSizes, m: usize, n: usize, k: usize) -> BlockSizes {
    let line = 8; // packed slivers stay line-aligned in elements
    let kc = b.kc.min(k.max(1));
    let mc = b.mc.min(m.max(b.mr).div_ceil(b.mr) * b.mr);
    let nc = b.nc.min(n.max(b.nr * line).div_ceil(b.nr) * b.nr);
    BlockSizes::custom(b.mr, b.nr, kc, mc, nc)
}

/// Equation (4) time bound, in cycles, for one `m×n×k` GEMM under a
/// candidate blocking: `F = 2mnk`, `W = F / γ_GEBP(blocking)`.
#[must_use]
pub fn candidate_time_bound(b: &BlockSizes, m: usize, n: usize, k: usize) -> f64 {
    let f = 2.0 * m as f64 * n as f64 * k as f64;
    let gamma = GebpTraffic::gamma(
        b.mr,
        b.nr,
        b.kc.max(1),
        b.mc.max(1).min(m.max(1)),
        b.nc.max(1).min(n.max(1)),
    );
    let w = if gamma > 0.0 { f / gamma } else { f };
    time_bound(
        f,
        w,
        &MachineCosts::xgene_cycles(),
        &OverlapFactor::Rational { c: 0.4 },
    )
}

/// Drop candidates whose model bound the best candidate's already
/// dominates by more than `keep_factor` — the model-pruning step that
/// keeps the measured sweep small. Index 0 (the analytic seed /
/// untuned baseline) is always kept, whatever its bound, because the
/// tuner reports speedup relative to it.
#[must_use]
pub fn prune_by_model(
    candidates: Vec<BlockSizes>,
    m: usize,
    n: usize,
    k: usize,
    keep_factor: f64,
) -> Vec<BlockSizes> {
    if candidates.len() <= 1 {
        return candidates;
    }
    let bounds: Vec<f64> = candidates
        .iter()
        .map(|b| candidate_time_bound(b, m, n, k))
        .collect();
    let best = bounds.iter().copied().fold(f64::INFINITY, f64::min);
    candidates
        .into_iter()
        .zip(bounds)
        .enumerate()
        .filter(|(i, (_, bound))| *i == 0 || *bound <= best * keep_factor)
        .map(|(_, (b, _))| b)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_quantize_and_label() {
        assert_eq!(ShapeClass::of(8, 256, 256).label(), "m32-n512-k512");
        assert_eq!(ShapeClass::of(96, 96, 96).label(), "m128-n128-k128");
        assert_eq!(ShapeClass::of(4096, 10, 2048).label(), "mxl-n32-k2048");
        // band edges are inclusive
        assert_eq!(ShapeClass::of(32, 128, 512).label(), "m32-n128-k512");
        assert_eq!(ShapeClass::of(33, 129, 513).label(), "m128-n512-k2048");
    }

    #[test]
    fn class_is_stable_within_a_band() {
        let c = ShapeClass::of(100, 300, 400);
        for (m, n, k) in [(65, 257, 300), (128, 512, 512), (90, 400, 513)] {
            let d = ShapeClass::of(m, n, k);
            assert_eq!(
                c == d,
                c.label() == d.label(),
                "label must be injective on classes"
            );
        }
        assert_eq!(ShapeClass::of(65, 257, 300), c);
    }

    #[test]
    fn representatives_fall_in_their_own_class() {
        for (m, n, k) in [(8, 8, 8), (100, 100, 100), (300, 20, 5000)] {
            let c = ShapeClass::of(m, n, k);
            let (rm, rn, rk) = c.representative();
            assert_eq!(ShapeClass::of(rm, rn, rk), c, "for {m}x{n}x{k}");
        }
    }

    #[test]
    fn candidates_are_seeded_not_brute_force() {
        let m = MachineDesc::xgene();
        let cands = candidate_blockings(8, 6, 1, &m, 32);
        assert!(cands.len() <= 13, "got {}", cands.len());
        assert!(cands.len() >= 8);
        // index 0 is exactly the analytic (untuned) blocking
        let seed = solve_blocking(8, 6, 1, &m).unwrap();
        assert_eq!(
            (cands[0].kc, cands[0].mc, cands[0].nc),
            (seed.kc, seed.mc, seed.nc)
        );
        // the Goto baseline is present
        let goto = goto_heuristic_blocking(8, 6, &m);
        assert!(cands
            .iter()
            .any(|b| (b.kc, b.mc, b.nc) == (goto.kc, goto.mc, goto.nc)));
        // no duplicates, all well-formed multiples
        for (i, b) in cands.iter().enumerate() {
            assert!(b.kc > 0 && b.mc > 0 && b.nc > 0);
            assert_eq!(b.mc % 8, 0, "mc stays a multiple of mr");
            for o in &cands[i + 1..] {
                assert_ne!((b.kc, b.mc, b.nc), (o.kc, o.mc, o.nc));
            }
        }
    }

    #[test]
    fn parallel_candidates_include_the_serial_blocking() {
        let m = MachineDesc::xgene();
        let cands = candidate_blockings(8, 6, 8, &m, 32);
        let serial = solve_blocking(8, 6, 1, &m).unwrap();
        assert!(cands
            .iter()
            .any(|b| (b.kc, b.mc, b.nc) == (serial.kc, serial.mc, serial.nc)));
    }

    #[test]
    fn budget_caps_the_set() {
        let m = MachineDesc::xgene();
        assert_eq!(candidate_blockings(8, 6, 1, &m, 4).len(), 4);
        assert_eq!(candidate_blockings(8, 6, 1, &m, 1).len(), 1);
    }

    #[test]
    fn clamping_collapses_oversized_blocks() {
        let b = BlockSizes::custom(8, 6, 512, 56, 1920);
        let c = clamp_to_shape(&b, 32, 48, 64);
        assert_eq!(c.kc, 64);
        assert!(c.mc <= 32 && c.mc.is_multiple_of(8));
        assert!(c.nc <= 48);
        // a dimension that is not a whole number of slivers still
        // clamps to one block that covers it
        let e = clamp_to_shape(&b, 500, 512, 512);
        assert_eq!((e.mc, e.nc), (56, 516));
        let e = clamp_to_shape(&BlockSizes::custom(8, 6, 512, 512, 1920), 500, 512, 512);
        assert_eq!(e.mc, 504);
        // a shape larger than the blocks is untouched
        let d = clamp_to_shape(&b, 4096, 4096, 4096);
        assert_eq!((d.kc, d.mc, d.nc), (512, 56, 1920));
    }

    #[test]
    fn model_pruning_keeps_the_seed_and_the_best() {
        let m = MachineDesc::xgene();
        let mut cands = candidate_blockings(8, 6, 1, &m, 32);
        // adversarial junk candidate with a terrible gamma
        cands.push(BlockSizes::custom(8, 6, 1, 8, 8));
        let n = cands.len();
        let pruned = prune_by_model(cands, 1024, 1024, 1024, 1.2);
        assert!(pruned.len() < n, "junk candidate must be pruned");
        assert!(!pruned.is_empty());
        // index 0 (the analytic seed) survives
        let seed = solve_blocking(8, 6, 1, &m).unwrap();
        assert_eq!(
            (pruned[0].kc, pruned[0].mc, pruned[0].nc),
            (seed.kc, seed.mc, seed.nc)
        );
        // the junk candidate is gone
        assert!(!pruned.iter().any(|b| b.kc == 1));
    }

    #[test]
    fn bounds_order_good_before_bad() {
        let good = BlockSizes::custom(8, 6, 512, 56, 1920);
        let bad = BlockSizes::custom(8, 6, 8, 8, 48);
        assert!(
            candidate_time_bound(&good, 1024, 1024, 1024)
                < candidate_time_bound(&bad, 1024, 1024, 1024)
        );
    }
}
