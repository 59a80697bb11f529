//! Shape-adaptive runtime dispatch (DESIGN.md §13): the pricing half of
//! [`crate::gemm::Plan`].
//!
//! Whether layer 3 runs on the pool is a per-shape question: a
//! skinny-m/fat-n GEMM against a cached B has microseconds of compute
//! per panel, and a barrier costs more than the threads save. Under
//! [`DispatchMode::Auto`] the call's plan asks this module for its
//! runtime:
//!
//! 1. **runtime** — Serial or Pool, the same walk
//!    (`pool::gemm_walk`) as one cell per panel on the calling
//!    thread or as a grid on the pool — by comparing the analytic
//!    prediction of `perfmodel::model` eq. (4) ([`time_bound`]) for the
//!    one cell with the same bound for the grid the plan cut for the
//!    configured degree, every cell packing its own operands, a thread's
//!    share of that work plus one barrier per panel and one job per cell
//!    ([`pooled_time_bound`]);
//! 2. **calibration** — the model is a bound, not a stopwatch, so each
//!    runtime keeps an EWMA ratio of measured/predicted time from past
//!    calls (live telemetry) and predictions are scaled by it before
//!    the comparison (`record` closes the loop).
//!
//! The B source and the grid are not decided here: the plan decides them
//! before pricing, and the model only prices what the walk would run.
//!
//! The mode is set per call via [`crate::gemm::GemmConfig::with_dispatch`]
//! and process-wide via `DGEMM_DISPATCH=fixed|auto` (read by
//! [`crate::gemm::GemmConfig::auto`]); the default [`DispatchMode::Fixed`]
//! runs the configured [`Parallelism`] untouched, bit-for-bit and
//! overhead-free. Every priced plan is auditable: [`crate::pool::status`]
//! surfaces the most recent one as `last_dispatch`.

#![forbid(unsafe_code)]

use crate::gemm::{BSource, Plan};
use crate::pool::Parallelism;
use crate::telemetry::RT;
use perfmodel::model::{pooled_time_bound, time_bound, MachineCosts, OverlapFactor, PoolOverheads};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// How the plan of one GEMM call picks its runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DispatchMode {
    /// No dispatch: run exactly the configured [`Parallelism`]. The
    /// default — no pricing, no timing.
    #[default]
    Fixed,
    /// Pick the runtime per call from the cost model + calibration,
    /// with the serial fallback whenever the shape has fewer cells than
    /// the pool has threads.
    Auto,
}

/// The model's calibrated predictions for one call ([`Plan::predicted`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Predicted {
    /// On the calling thread, milliseconds.
    pub serial_ms: f64,
    /// On the pool, as the plan's grid for the configured degree,
    /// milliseconds.
    pub pool_ms: f64,
}

/// Nominal clock of the paper machine, used only to express the model's
/// cycle counts in milliseconds; the EWMA calibration absorbs any real
/// clock difference.
const NOMINAL_GHZ: f64 = 2.4;

/// EWMA smoothing factor for the measured/predicted ratio.
const EWMA_ALPHA: f64 = 0.3;

/// Calibration ratio clamp: one pathological measurement (a paused VM,
/// a cold cache) must not pin the dispatcher to one runtime forever.
const CAL_MIN: f64 = 0.05;
const CAL_MAX: f64 = 20.0;

/// Hysteresis in the Auto comparison: the pooled prediction must beat
/// serial by this factor before the pool is chosen. Serial is the safe
/// default — the model is a *bound* and the single EWMA ratio cannot
/// capture per-shape error, so near-ties would otherwise oscillate
/// (each runtime's calibration only updates while it is the one
/// running) and small shapes would flap between a 3.3 ms serial walk
/// and a 4.5 ms pooled one. A genuine pool win (compute divided over
/// p workers) clears 15% with room to spare. It is therefore also the
/// most `auto` can lose to a fixed runtime by design: a pool win
/// smaller than this is declined.
const POOL_MARGIN: f64 = 1.15;

/// Per-update bound on how far one measurement can move the EWMA: the
/// incoming measured/raw ratio is clamped to within this factor of the
/// current ratio. A single scheduler stall can measure 20× the model
/// (observed on oversubscribed CI hosts) and would otherwise yank the
/// calibration so far that the dispatcher flips runtimes off one
/// outlier; with the clamp, only a *sustained* shift moves it far.
const RATIO_STEP_MAX: f64 = 2.0;

/// Each recorded call also relaxes the runtime that did *not* run
/// toward the neutral prior of 1.0 by this factor. Without it a
/// noise-inflated ratio is frozen the moment its runtime stops being
/// chosen — the dispatcher gets captured by the other runtime forever,
/// because only the running runtime's calibration ever updates.
const IDLE_DECAY: f64 = 0.05;

const F64_ONE_BITS: u64 = 0x3FF0_0000_0000_0000;

/// Per-runtime measured/predicted EWMA ratios (f64 bits): [serial, pool].
static CALIBRATION: [AtomicU64; 2] = [AtomicU64::new(F64_ONE_BITS), AtomicU64::new(F64_ONE_BITS)];

/// The latest priced plan ([`last_decision`]).
static LAST: Mutex<Option<Plan>> = Mutex::new(None);

fn cycles_to_ms(cycles: f64) -> f64 {
    cycles / (NOMINAL_GHZ * 1e6)
}

fn calibration(pool: bool) -> f64 {
    f64::from_bits(CALIBRATION[usize::from(pool)].load(Ordering::Relaxed))
}

/// The most recent priced plan in this process (`None` until a
/// [`DispatchMode::Auto`] GEMM runs). Surfaced by [`crate::pool::status`]
/// as `last_dispatch`.
#[must_use]
pub(crate) fn last_decision() -> Option<Plan> {
    *LAST.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the dispatcher prices a call with: the peak of the ISA level the
/// register kernel actually runs at
/// ([`crate::microkernel::KernelSet::flops_per_cycle`]), whose reciprocal
/// is the model's compute cost `μ`, and the `(serial, pool)` calibration
/// ratios — measured/model time, 1.0 = the model is exact. The pack,
/// barrier and task terms do not scale with the kernel, so a prior that
/// prices compute for the wrong level mis-proportions them and no single
/// EWMA scalar per runtime can repair that.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Model {
    pub(crate) flops_per_cycle: f64,
    pub(crate) calibration: (f64, f64),
}

impl Model {
    /// The model at `flops_per_cycle` and the ratios this process has
    /// learned so far from the 1.0 prior (nothing persists them).
    pub(crate) fn now(flops_per_cycle: f64) -> Self {
        Model {
            flops_per_cycle,
            calibration: (calibration(false), calibration(true)),
        }
    }

    /// Price `plan` — as cut for its configured runtime — on the calling
    /// thread and on the pool, and choose the runtime: serial when the
    /// pool cannot help (one participant), when the shape has fewer cells
    /// than threads, or unless the calibrated model predicts a pooled win
    /// clearing the hysteresis margin.
    pub(crate) fn choose(&self, plan: &Plan) -> (Parallelism, Predicted) {
        let Plan { m, n, k, batch, .. } = *plan;
        let degree = plan.runtime.degree();
        let (row_ranges, col_chunks) = plan.grid;
        let cells = row_ranges * col_chunks;

        // Model inputs, in the units of perfmodel::model (flops, words,
        // cycles). A serial call packs A once per jj panel and reads a
        // stored B once, from wherever the caller keeps it, whether it
        // packs it or not; a PrepackedB's panels are not charged (the grid,
        // comparing cells that stream B alike, charges only copies). On
        // the pool every cell packs its own A — once per column chunk —
        // and reads its own B columns, once per row range, and writes its
        // own part of C; all of it is divided work: a thread's share is
        // the cells it runs (one, or as many rounds as the grid has cells
        // per thread), with one barrier per panel and a job for every
        // cell but the caller's.
        let jj_panels = n.div_ceil(plan.blocks.nc);
        let f = 2.0 * (m * n * k * batch) as f64;
        let w_a = (m * k * jj_panels * batch) as f64;
        let w_b = if plan.b_source == BSource::Prepacked {
            0.0
        } else {
            (k * n) as f64
        };
        let costs = machine_costs(self.flops_per_cycle);
        let psi = OverlapFactor::Rational { c: 0.4 };
        let overheads = PoolOverheads::xgene_cycles();
        let serial_cycles = time_bound(f, w_a + w_b, &costs, &psi);
        let w_pool = w_a * col_chunks as f64 + w_b * row_ranges as f64;
        let share = cells.div_ceil(degree) as f64 / cells as f64;
        let pool_cycles = pooled_time_bound(
            f * share,
            w_pool * share,
            1,
            jj_panels as f64,
            ((cells - 1) * jj_panels) as f64,
            &costs,
            &psi,
            &overheads,
        );
        let predicted = Predicted {
            serial_ms: cycles_to_ms(serial_cycles) * self.calibration.0,
            pool_ms: cycles_to_ms(pool_cycles) * self.calibration.1,
        };
        let runtime = if degree <= 1
            || cells < degree
            || predicted.serial_ms <= predicted.pool_ms * POOL_MARGIN
        {
            RT.dispatch_serial.fetch_add(1, Ordering::Relaxed);
            Parallelism::Serial
        } else {
            RT.dispatch_pool.fetch_add(1, Ordering::Relaxed);
            Parallelism::Pool(degree)
        };
        (runtime, predicted)
    }
}

/// The model's costs for a register kernel at `flops_per_cycle`: `μ` is
/// its reciprocal, `π` and `κ` are X-Gene's until the probe measures this
/// machine's (ROADMAP 1A-i). The dispatcher prices runtimes with them and
/// [`crate::pool::cell_grid`] prices grids, so one change moves both.
pub(crate) fn machine_costs(flops_per_cycle: f64) -> MachineCosts {
    MachineCosts {
        mu: 1.0 / flops_per_cycle,
        ..MachineCosts::xgene_cycles()
    }
}

/// Close the loop on a priced plan: record the measured wall-clock,
/// update the chosen runtime's EWMA calibration ratio, and publish the
/// plan for [`last_decision`] / `pool::status()`. An unpriced plan has no
/// loop to close.
pub(crate) fn record(mut plan: Plan, elapsed: Duration) {
    let Some(Predicted { serial_ms, pool_ms }) = plan.predicted else {
        return;
    };
    let measured = elapsed.as_secs_f64() * 1e3;
    plan.measured_ms = Some(measured);
    let pool = matches!(plan.runtime, Parallelism::Pool(_));
    let (predicted, alt_predicted) = if pool {
        (pool_ms, serial_ms)
    } else {
        (serial_ms, pool_ms)
    };
    // Mispredict accounting: the model chose this runtime, yet the
    // measured time exceeded what it predicted for the *other* one —
    // the choice was contradicted by the measurement.
    if measured.is_finite() && alt_predicted.is_finite() && measured > alt_predicted {
        RT.dispatch_mispredicts.fetch_add(1, Ordering::Relaxed);
    }
    let prev = calibration(pool);
    // `predicted` already carries `prev`; divide it back out so the
    // ratio tracks measured/raw-model, not a compounding feedback loop.
    let raw = predicted / prev;
    if raw.is_finite() && raw > 0.0 && measured.is_finite() && measured > 0.0 {
        let ratio = (measured / raw).clamp(prev / RATIO_STEP_MAX, prev * RATIO_STEP_MAX);
        let next = (prev + EWMA_ALPHA * (ratio - prev)).clamp(CAL_MIN, CAL_MAX);
        CALIBRATION[usize::from(pool)].store(next.to_bits(), Ordering::Relaxed);
        // The runtime that did not run cannot defend its ratio, so bleed
        // it toward the prior; a stale estimate then decays within tens
        // of calls instead of capturing the dispatcher permanently.
        let other = usize::from(!pool);
        let other_prev = f64::from_bits(CALIBRATION[other].load(Ordering::Relaxed));
        let other_next = (other_prev + IDLE_DECAY * (1.0 - other_prev)).clamp(CAL_MIN, CAL_MAX);
        CALIBRATION[other].store(other_next.to_bits(), Ordering::Relaxed);
    }
    *LAST.lock().unwrap_or_else(PoisonError::into_inner) = Some(plan);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{plan, GemmConfig};
    use crate::microkernel::MicroKernelKind;
    use crate::simd::Isa;
    use crate::Transpose;

    /// The 8×6 kernel blocked `kc×mc×nc` at `degree` threads, dispatch
    /// left at `Fixed`.
    fn cfg(degree: usize, (kc, mc, nc): (usize, usize, usize)) -> GemmConfig {
        GemmConfig::for_kernel(MicroKernelKind::Mk8x6, degree).with_blocks(kc, mc, nc)
    }

    /// The plan of `shape` over `batch` entries, priced at
    /// `flops_per_cycle` (the portable prior is 2) and the neutral
    /// calibration the shape tests below were written against — not at
    /// whatever sibling tests' calls have taught the process — with no L2
    /// to weigh the grid by, for a kernel at a SIMD level (the price of a
    /// stored B does not depend on whether it is packed).
    fn priced(
        flops_per_cycle: f64,
        shape: (usize, usize, usize),
        batch: usize,
        blocks: (usize, usize, usize),
        degree: usize,
        transb: Transpose,
        cached: bool,
    ) -> Plan {
        let model = Model {
            flops_per_cycle,
            calibration: (1.0, 1.0),
        };
        let cfg = cfg(degree, blocks);
        plan(
            Some(model),
            None,
            Isa::Avx512,
            shape,
            batch,
            transb,
            &cfg,
            cached,
        )
    }

    fn predicted(plan: &Plan) -> Predicted {
        plan.predicted.expect("an Auto plan is priced")
    }

    #[test]
    fn compute_is_priced_at_the_kernels_isa_level() {
        // The two shapes the benchmark's dispatch rung races, under the
        // default blocking at degree 2 and a neutral calibration. With μ
        // stuck at the portable 0.5 the pack, barrier and task terms
        // vanish next to compute, so a 10x faster kernel kept sending
        // the skinny shape to the pool (auto_vs_best_ratio 1.5-2.7).
        let at = |isa: crate::simd::Isa, m: usize| {
            let fpc = isa.flops_per_cycle();
            priced(
                fpc,
                (m, 512, 512),
                1,
                (512, 56, 1920),
                2,
                Transpose::No,
                false,
            )
        };
        let mut last_ratio = 0.0;
        for isa in crate::simd::Isa::ALL {
            assert_eq!(at(isa, 512).runtime, Parallelism::Pool(2), "{isa:?}");
            // A faster kernel only ever moves a shape away from the pool.
            let skinny = predicted(&at(isa, 8));
            let ratio = skinny.pool_ms / skinny.serial_ms;
            assert!(ratio > last_ratio, "{isa:?}: {ratio} <= {last_ratio}");
            last_ratio = ratio;
        }
        // At the portable level the pool halves 0.7 ms of compute and is
        // the right call. At the level this host's kernel runs at the
        // whole 8x512x512 call is 55 µs of compute and 17 µs of reading
        // B: the two column cells halve both, but the one barrier and
        // the one job they cost are priced at 27 µs, so the pooled
        // prediction (62.6 µs) beats the serial one (71.7) by less than
        // the margin, which keeps it serial.
        assert_eq!(
            at(crate::simd::Isa::Portable, 8).runtime,
            Parallelism::Pool(2)
        );
        assert_eq!(at(crate::simd::Isa::Avx512, 8).runtime, Parallelism::Serial);
    }

    /// A stored B reaches the cells from wherever the caller keeps it,
    /// whether they pack it or read it in place, so its `k·n` words are
    /// charged whatever the plan's B source; a `PrepackedB`'s are not.
    /// Serially that is eq. (4) over the pack-A words plus B's, or the
    /// pack-A words alone when B is cached — for one row group, one block
    /// and ten, either transpose, on the pool as on one thread.
    #[test]
    fn a_stored_b_is_charged_its_words_and_a_prepacked_one_is_not() {
        let at = |m: usize, transb: Transpose, cached: bool| {
            priced(32.0, (m, 512, 512), 1, (512, 56, 1920), 2, transb, cached)
        };
        let model_ms = |m: usize, words: usize| {
            let costs = machine_costs(32.0);
            let f = 2.0 * (m * 512 * 512) as f64;
            let psi = OverlapFactor::Rational { c: 0.4 };
            cycles_to_ms(time_bound(f, words as f64, &costs, &psi))
        };
        let w_b = 512 * 512;
        for transb in [Transpose::No, Transpose::Yes] {
            for m in [8, 56, 512] {
                let w_a = m * 512;
                let (stored, cached) = (at(m, transb, false), at(m, transb, true));
                let what = format!("{m} rows, {transb:?}: {:?}", stored.b_source);
                assert_eq!(
                    predicted(&stored).serial_ms,
                    model_ms(m, w_a + w_b),
                    "{what}"
                );
                assert_eq!(predicted(&cached).serial_ms, model_ms(m, w_a), "{what}");
                assert!(
                    predicted(&stored).pool_ms > predicted(&cached).pool_ms,
                    "{what}"
                );
            }
        }
        // in place and packed are one price: 56 rows of Bᵀ are two row
        // groups and pack, the same rows of B read it in place
        let (in_place, packed) = (at(56, Transpose::No, false), at(56, Transpose::Yes, false));
        assert_eq!(
            (in_place.b_source, packed.b_source),
            (BSource::InPlace, BSource::Packed)
        );
        assert_eq!(predicted(&in_place), predicted(&packed));
        // a batch's rows stack, and its stored B is charged once
        let batch = |entries: usize, cached: bool| {
            let plan = priced(
                32.0,
                (8, 512, 512),
                entries,
                (512, 56, 1920),
                2,
                Transpose::No,
                cached,
            );
            predicted(&plan).serial_ms
        };
        for entries in [2, 8] {
            let words = 8 * 512 * entries;
            assert_eq!(batch(entries, false), model_ms(8 * entries, words + w_b));
            assert_eq!(batch(entries, true), model_ms(8 * entries, words));
        }
    }

    /// Every cell writes its own tiles of C, so a pooled plan is charged
    /// the packs its cells make and nothing for C: 512³ on two threads at
    /// the paper's blocking, as one entry and as eight stacked 64-row
    /// entries, is the 1×2 grid, each thread's share being half of A
    /// packed once per column chunk and half of B packed once.
    #[test]
    fn a_pooled_plan_is_charged_its_packs_and_nothing_for_c() {
        let costs = machine_costs(32.0);
        let psi = OverlapFactor::Rational { c: 0.4 };
        let (f, w_a, w_b) = (2.0 * 512f64.powi(3), 512.0 * 512.0, 512.0 * 512.0);
        let words = 2.0 * w_a + w_b;
        let overheads = PoolOverheads::xgene_cycles();
        let cycles = pooled_time_bound(f / 2.0, words / 2.0, 1, 1.0, 1.0, &costs, &psi, &overheads);
        for batch in [1, 8] {
            let shape = (512 / batch, 512, 512);
            let plan = priced(32.0, shape, batch, (512, 56, 1920), 2, Transpose::No, false);
            assert_eq!(plan.grid, (1, 2), "{batch} entries");
            assert_eq!(
                predicted(&plan).pool_ms,
                cycles_to_ms(cycles),
                "{batch} entries"
            );
        }
    }

    #[test]
    fn skinny_cached_stream_dispatches_serial() {
        // The PR-4 weight-reuse shape: 8×256×256 with B cached, blocks
        // 64×24×48 — 24 epochs of ~8 µs compute each. The model must
        // see the barrier overhead and keep it serial.
        let plan = priced(2.0, (8, 256, 256), 1, (64, 24, 48), 4, Transpose::No, true);
        assert_eq!(plan.runtime, Parallelism::Serial);
        assert!(predicted(&plan).pool_ms > predicted(&plan).serial_ms);
    }

    #[test]
    fn coarse_grid_falls_back_to_serial() {
        // n too narrow to split (one sliver) and a single mc block: one
        // cell cannot occupy 8 threads, so auto must go serial without
        // consulting the model.
        let (shape, blocks) = ((48, 6, 4096), (256, 64, 1792));
        let cfg = cfg(8, blocks);
        let unpriced = plan(
            None,
            None,
            Isa::Avx512,
            shape,
            1,
            Transpose::No,
            &cfg,
            false,
        );
        assert_eq!(unpriced.grid, (1, 1), "one sliver cannot split");
        let plan = priced(2.0, shape, 1, blocks, 8, Transpose::No, false);
        assert_eq!(plan.runtime, Parallelism::Serial);
    }

    #[test]
    fn skinny_m_gets_a_column_grid() {
        // Two mc blocks but a wide N, B packed (transposed, past one row
        // group): the cells come from splitting columns (48 rows of A per
        // cell cost less to pack than 1792 columns of B), and big-k
        // compute must make the pool worth it.
        let plan = priced(
            2.0,
            (48, 4096, 4096),
            1,
            (512, 24, 1792),
            8,
            Transpose::Yes,
            false,
        );
        assert_eq!(plan.grid, (1, 8));
        assert_eq!(plan.runtime, Parallelism::Pool(8));
    }

    #[test]
    fn square_pooled_shape_gets_one_cell_per_thread() {
        // 1024³ on 8 threads, B in place: a 4×2 cell copies the fewest
        // words (264 rows of A, against 528 for 2×4's cell of as many
        // flops and all 1024 for 1×8's), and the pool wins in the model.
        let plan = priced(
            2.0,
            (1024, 1024, 1024),
            1,
            (512, 24, 1792),
            8,
            Transpose::No,
            false,
        );
        assert_eq!(plan.grid, (4, 2));
        assert_eq!(plan.runtime, Parallelism::Pool(8));
    }

    #[test]
    fn single_thread_never_pools() {
        let plan = priced(
            2.0,
            (1024, 1024, 1024),
            1,
            (512, 24, 1792),
            1,
            Transpose::No,
            false,
        );
        assert_eq!(plan.runtime, Parallelism::Serial);
    }

    #[test]
    fn record_publishes_and_calibrates() {
        let plan = priced(
            2.0,
            (64, 64, 64),
            1,
            (512, 24, 1792),
            1,
            Transpose::No,
            false,
        );
        let before = calibration(false);
        record(plan, Duration::from_micros(500));
        let last = last_decision().expect("plan published");
        assert_eq!((last.m, last.n, last.k), (64, 64, 64));
        let measured = last.measured_ms.expect("measurement recorded");
        assert!((measured - 0.5).abs() < 1e-9);
        let after = calibration(false);
        assert!((CAL_MIN..=CAL_MAX).contains(&after));
        // The ratio moved toward measured/raw (only guaranteed to move
        // when it was not already clamped at the measured ratio).
        assert!(after != before || before == CAL_MIN || before == CAL_MAX);
    }

    #[test]
    fn env_parsing_matches_contract() {
        crate::env::tests::check(crate::env::tests::DISPATCH_ROWS);
    }
}
