//! Shape-adaptive runtime dispatch (DESIGN.md §13).
//!
//! Whether layer 3 runs on the pool is a per-shape question: a
//! skinny-m/fat-n GEMM against a cached B has microseconds of compute
//! per panel, and a barrier costs more than the threads save. This
//! module decides, per `gemm()` call:
//!
//! 1. **runtime** — Serial or Pool, the same walk
//!    (`pool::gemm_walk`) as one cell per panel on the calling
//!    thread or as a grid on the pool — by comparing the analytic
//!    prediction of `perfmodel::model` eq. (4) ([`time_bound`]) for the
//!    one cell with the same bound for the plan the pool would run: the
//!    grid of [`crate::pool::cell_grid`], every cell packing its own
//!    operands and staging its own part of C, a thread's share of that
//!    work plus one barrier per panel and one job per cell
//!    ([`pooled_time_bound`]);
//! 2. **calibration** — the model is a bound, not a stopwatch, so each
//!    runtime keeps an EWMA ratio of measured/predicted time from past
//!    calls (live telemetry) and predictions are scaled by it before
//!    the comparison.
//!
//! Which loop is parallel — rows, columns or both — is not decided
//! here: the grid is a pure function of the shape that the pool owns,
//! and the decision only reports it.
//!
//! The decision is overridable per call via
//! [`crate::gemm::GemmConfig::with_dispatch`] and process-wide via
//! `DGEMM_DISPATCH=serial|pool|auto` (read by
//! [`crate::gemm::GemmConfig::auto`]); the default [`DispatchMode::Fixed`]
//! keeps the configured [`Parallelism`] untouched, bit-for-bit and
//! overhead-free. Every decision is auditable:
//! [`crate::pool::status`] surfaces the most recent one as
//! `last_dispatch`.

#![forbid(unsafe_code)]

use crate::pool::Parallelism;
use crate::telemetry::RT;
use crate::Transpose;
use perfmodel::cacheblock::BlockSizes;
use perfmodel::model::{pooled_time_bound, time_bound, MachineCosts, OverlapFactor, PoolOverheads};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// How the dispatcher treats one GEMM call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DispatchMode {
    /// No dispatch: run exactly the configured [`Parallelism`]. The
    /// default — no decision, no timing.
    #[default]
    Fixed,
    /// Force the serial runtime regardless of the configured degree.
    Serial,
    /// Force the pool runtime, even where the model predicts serial
    /// would win.
    Pool,
    /// Pick the runtime per call from the cost model + calibration,
    /// with the serial fallback whenever the shape has fewer cells than
    /// the pool has threads.
    Auto,
}

impl DispatchMode {
    /// Parse `DGEMM_DISPATCH`: absent/`fixed` keeps the configured
    /// runtime, `serial`/`pool` force one, `auto` enables the cost
    /// model; anything else is a typed error.
    pub fn from_env() -> Result<Self, crate::GemmError> {
        match std::env::var("DGEMM_DISPATCH") {
            Ok(v) => match v.trim() {
                "serial" => Ok(DispatchMode::Serial),
                "pool" => Ok(DispatchMode::Pool),
                "auto" => Ok(DispatchMode::Auto),
                "" | "fixed" => Ok(DispatchMode::Fixed),
                _ => Err(crate::GemmError::BadConfig(
                    "DGEMM_DISPATCH must be serial|pool|auto|fixed",
                )),
            },
            Err(std::env::VarError::NotUnicode(_)) => {
                Err(crate::GemmError::BadConfig("DGEMM_DISPATCH is not unicode"))
            }
            Err(std::env::VarError::NotPresent) => Ok(DispatchMode::Fixed),
        }
    }
}

/// One dispatch decision: the shape it was made for, the runtime and
/// grid it chose, and the calibrated predictions behind the choice.
/// `measured_ms` is filled in after the call completes, so operators
/// can audit predicted-vs-measured through `pool::status()`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DispatchDecision {
    /// Rows of `op(A)` / C.
    pub m: usize,
    /// Columns of `op(B)` / C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Batch entries sharing B (1 for a plain GEMM).
    pub batch: usize,
    /// The runtime chosen: [`Parallelism::Serial`] or
    /// [`Parallelism::Pool`] with the dispatched degree.
    pub runtime: Parallelism,
    /// Row ranges of the grid the pool runs for this shape
    /// ([`crate::pool::cell_grid`]): runs of `mc`-row tasks across the
    /// batch.
    pub m_tasks: usize,
    /// Column chunks of that grid; the pool's cells per `jj` panel are
    /// `m_tasks · n_split`.
    pub n_split: usize,
    /// Calibrated predicted serial time, milliseconds.
    pub predicted_serial_ms: f64,
    /// Calibrated predicted pooled time, milliseconds.
    pub predicted_pool_ms: f64,
    /// Wall-clock of the call that ran under this decision.
    pub measured_ms: Option<f64>,
    /// The runtime was forced ([`DispatchMode::Serial`] /
    /// [`DispatchMode::Pool`]) rather than model-chosen.
    pub forced: bool,
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
/// most `auto` can lose to a forced runtime by design: a pool win
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

/// Serializes every test that reads or writes the `DGEMM_*` environment
/// variables: `GemmConfig::auto()` now reads `DGEMM_DISPATCH`, so the
/// parser test here and the `auto()` test in [`crate::gemm`] would race
/// without a shared lock.
#[cfg(test)]
pub(crate) fn env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn last_cell() -> &'static Mutex<Option<DispatchDecision>> {
    static LAST: OnceLock<Mutex<Option<DispatchDecision>>> = OnceLock::new();
    LAST.get_or_init(|| Mutex::new(None))
}

fn cycles_to_ms(cycles: f64) -> f64 {
    cycles / (NOMINAL_GHZ * 1e6)
}

fn calibration(pool: bool) -> f64 {
    f64::from_bits(CALIBRATION[usize::from(pool)].load(Ordering::Relaxed))
}

/// The current per-runtime EWMA calibration ratios `(serial, pool)` —
/// measured/model time, 1.0 = the model is exact. Learned per process
/// from the 1.0 prior; nothing persists them.
fn calibration_ratios() -> (f64, f64) {
    (calibration(false), calibration(true))
}

/// The most recent dispatch decision made in this process (`None` until
/// a non-[`DispatchMode::Fixed`] GEMM runs). Surfaced by
/// [`crate::pool::status`] as `last_dispatch`.
#[must_use]
pub fn last_decision() -> Option<DispatchDecision> {
    *last_cell().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Decide runtime and grid geometry for one call.
///
/// `flops_per_cycle` is the peak of the ISA level the register kernel
/// actually runs at ([`crate::microkernel::KernelSet::flops_per_cycle`]);
/// its reciprocal is the model's compute cost `μ`. The pack, barrier and
/// task terms do not scale with the kernel, so a prior that prices compute
/// for the wrong level mis-proportions them and no single EWMA scalar per
/// runtime can repair that. `degree` is the configured parallel degree
/// ([`Parallelism::degree`]), `cached` whether a
/// [`crate::prepack::PrepackedB`] will serve B (its pack traffic then
/// costs nothing per call); `transb` and `cached` also tell whether
/// either walk packs B at all ([`crate::gemm::packs_b`]). Must not be
/// called with [`DispatchMode::Fixed`] — Fixed means "no decision".
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide(
    mode: DispatchMode,
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    blocks: &BlockSizes,
    nr: usize,
    flops_per_cycle: f64,
    degree: usize,
    transb: Transpose,
    cached: bool,
) -> DispatchDecision {
    decide_calibrated(
        calibration_ratios(),
        mode,
        m,
        n,
        k,
        batch,
        blocks,
        nr,
        flops_per_cycle,
        degree,
        transb,
        cached,
    )
}

/// [`decide`] with the `(serial, pool)` calibration ratios passed in, so
/// the model's own choice can be tested apart from whatever the process
/// has learned so far.
#[allow(clippy::too_many_arguments)]
fn decide_calibrated(
    (cal_serial, cal_pool): (f64, f64),
    mode: DispatchMode,
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    blocks: &BlockSizes,
    nr: usize,
    flops_per_cycle: f64,
    degree: usize,
    transb: Transpose,
    cached: bool,
) -> DispatchDecision {
    debug_assert!(mode != DispatchMode::Fixed, "Fixed means no dispatch");
    let (mc, nc) = (blocks.mc.max(1), blocks.nc.max(1));
    let degree = degree.max(1);
    let batch = batch.max(1);

    // The grid the pool would run ([`crate::pool::cell_grid`], for a
    // full-width panel) and whether either runtime packs B at all: not when
    // it is cached, and not when a single GEBP per panel leaves the pack
    // nothing to be amortized over.
    let pack_b = crate::gemm::packs_b(crate::pool::row_tasks(m, batch, mc), transb, cached);
    let (row_ranges, col_chunks) =
        crate::pool::cell_grid(m, batch, nc.min(n), mc, nr, degree, pack_b);
    let cells = row_ranges * col_chunks;

    // Model inputs, in the units of perfmodel::model (flops, words,
    // cycles). A serial call packs A once per jj panel and B once. On
    // the pool every cell packs its own operands — A once per column
    // chunk, B once per row range — and stages its part of C in and out;
    // all of it is divided work: a thread's share is the cells it runs
    // (one, or as many rounds as the grid has cells per thread), with
    // one barrier per panel and a job for every cell but the caller's.
    let jj_panels = n.div_ceil(nc);
    let f = 2.0 * (m * n * k * batch) as f64;
    let w_a = (m * k * jj_panels * batch) as f64;
    let w_b = if pack_b { (k * n) as f64 } else { 0.0 };
    let costs = MachineCosts {
        mu: 1.0 / flops_per_cycle,
        ..MachineCosts::xgene_cycles()
    };
    let psi = OverlapFactor::Rational { c: 0.4 };
    let overheads = PoolOverheads::xgene_cycles();
    let serial_cycles = time_bound(f, w_a + w_b, &costs, &psi);
    let w_pool = w_a * col_chunks as f64 + w_b * row_ranges as f64 + 2.0 * (m * n * batch) as f64;
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
    let predicted_serial_ms = cycles_to_ms(serial_cycles) * cal_serial;
    let predicted_pool_ms = cycles_to_ms(pool_cycles) * cal_pool;

    let (runtime, forced) = match mode {
        DispatchMode::Serial => (Parallelism::Serial, true),
        DispatchMode::Pool => (Parallelism::Pool(degree), true),
        // Auto: serial when the pool cannot help (one participant), when
        // the shape has fewer cells than threads, or unless the
        // calibrated model predicts a pooled win clearing the hysteresis
        // margin.
        DispatchMode::Auto | DispatchMode::Fixed => {
            if degree <= 1
                || cells < degree
                || predicted_serial_ms <= predicted_pool_ms * POOL_MARGIN
            {
                (Parallelism::Serial, false)
            } else {
                (Parallelism::Pool(degree), false)
            }
        }
    };
    match runtime {
        Parallelism::Serial => RT.dispatch_serial.fetch_add(1, Ordering::Relaxed),
        _ => RT.dispatch_pool.fetch_add(1, Ordering::Relaxed),
    };

    DispatchDecision {
        m,
        n,
        k,
        batch,
        runtime,
        m_tasks: row_ranges,
        n_split: col_chunks,
        predicted_serial_ms,
        predicted_pool_ms,
        measured_ms: None,
        forced,
    }
}

/// Close the loop on a decision: record the measured wall-clock, update
/// the chosen runtime's EWMA calibration ratio, and publish the
/// decision for [`last_decision`] / `pool::status()`.
pub(crate) fn record(mut decision: DispatchDecision, elapsed: Duration) {
    let measured = elapsed.as_secs_f64() * 1e3;
    decision.measured_ms = Some(measured);
    let pool = matches!(decision.runtime, Parallelism::Pool(_));
    let predicted = if pool {
        decision.predicted_pool_ms
    } else {
        decision.predicted_serial_ms
    };
    // Mispredict accounting: the model chose this runtime, yet the
    // measured time exceeded what it predicted for the *other* one —
    // the choice was contradicted by the measurement. Forced decisions
    // carry no prediction claim, so they are excluded.
    let alt_predicted = if pool {
        decision.predicted_serial_ms
    } else {
        decision.predicted_pool_ms
    };
    if !decision.forced
        && measured.is_finite()
        && alt_predicted.is_finite()
        && measured > alt_predicted
    {
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
    *last_cell().lock().unwrap_or_else(PoisonError::into_inner) = Some(decision);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(kc: usize, mc: usize, nc: usize) -> BlockSizes {
        BlockSizes::custom(8, 6, kc, mc, nc)
    }

    /// [`super::decide`] at the portable prior (`μ = 0.5`) and the neutral
    /// calibration the shape tests below were written against — not at
    /// whatever sibling tests' calls have taught the process.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        mode: DispatchMode,
        m: usize,
        n: usize,
        k: usize,
        batch: usize,
        blocks: &BlockSizes,
        nr: usize,
        degree: usize,
        cached: bool,
    ) -> DispatchDecision {
        let tb = Transpose::No;
        decide_calibrated(
            (1.0, 1.0),
            mode,
            m,
            n,
            k,
            batch,
            blocks,
            nr,
            2.0,
            degree,
            tb,
            cached,
        )
    }

    #[test]
    fn compute_is_priced_at_the_kernels_isa_level() {
        // The two shapes the benchmark's dispatch rung races, under the
        // default blocking at degree 2 and a neutral calibration. With μ
        // stuck at the portable 0.5 the pack, barrier and task terms
        // vanish next to compute, so a 10x faster kernel kept sending
        // the skinny shape to the pool (auto_vs_best_ratio 1.5-2.7).
        let b = blocks(512, 56, 1920);
        let at = |isa: crate::simd::Isa, m: usize| {
            let fpc = isa.flops_per_cycle();
            decide_calibrated(
                (1.0, 1.0),
                DispatchMode::Auto,
                m,
                512,
                512,
                1,
                &b,
                6,
                fpc,
                2,
                Transpose::No,
                false,
            )
        };
        let mut last_ratio = 0.0;
        for isa in crate::simd::Isa::ALL {
            assert_eq!(at(isa, 512).runtime, Parallelism::Pool(2), "{isa:?}");
            // A faster kernel only ever moves a shape away from the pool.
            let skinny = at(isa, 8);
            let ratio = skinny.predicted_pool_ms / skinny.predicted_serial_ms;
            assert!(ratio > last_ratio, "{isa:?}: {ratio} <= {last_ratio}");
            last_ratio = ratio;
        }
        // At the portable level the pool halves 0.7 ms of compute and is
        // the right call. At the level this host's kernel runs at the
        // whole 8x512x512 call is 55 µs of compute, read in place on
        // either runtime: the two column cells halve it, but the one
        // barrier and the one job they cost are priced at 27 µs, so the
        // pooled prediction ties the serial one and the margin keeps it
        // serial.
        assert_eq!(
            at(crate::simd::Isa::Portable, 8).runtime,
            Parallelism::Pool(2)
        );
        assert_eq!(at(crate::simd::Isa::Avx512, 8).runtime, Parallelism::Serial);
    }

    #[test]
    fn a_single_block_serial_plan_carries_no_pack_b_term() {
        // A serial call reads B in place when one GEBP per panel would
        // be all that used the packed copy (gemm::packs_b), so its
        // prediction must lose exactly the words of that pack: what is
        // left is eq. (4) over the pack-A words alone, which is also what
        // a cached B is charged. A transposed B and a second mc block
        // keep the pack and its term, on the pool as on one thread.
        let b = blocks(512, 56, 1920);
        let at = |m: usize, transb: Transpose, cached: bool| {
            let mode = DispatchMode::Auto;
            decide_calibrated(
                (1.0, 1.0),
                mode,
                m,
                512,
                512,
                1,
                &b,
                6,
                32.0,
                2,
                transb,
                cached,
            )
        };
        let model_ms = |m: usize, words: usize| {
            let costs = MachineCosts {
                mu: 1.0 / 32.0,
                ..MachineCosts::xgene_cycles()
            };
            let f = 2.0 * (m * 512 * 512) as f64;
            let psi = OverlapFactor::Rational { c: 0.4 };
            cycles_to_ms(time_bound(f, words as f64, &costs, &psi))
        };
        let (w_a, w_b) = (8 * 512, 512 * 512);
        let skinny = at(8, Transpose::No, false);
        assert_eq!(skinny.predicted_serial_ms, model_ms(8, w_a));
        assert_eq!(
            at(8, Transpose::Yes, false).predicted_serial_ms,
            model_ms(8, w_a + w_b)
        );
        assert_eq!(
            skinny.predicted_serial_ms,
            at(8, Transpose::No, true).predicted_serial_ms
        );
        assert!(skinny.predicted_pool_ms < at(8, Transpose::Yes, false).predicted_pool_ms);
        assert_eq!(
            skinny.predicted_pool_ms,
            at(8, Transpose::No, true).predicted_pool_ms
        );
        assert_eq!(
            at(56, Transpose::No, false).predicted_serial_ms,
            model_ms(56, 56 * 512)
        );
        // 512^3 has ten blocks per panel: unchanged, either transpose.
        for transb in [Transpose::No, Transpose::Yes] {
            let square = at(512, transb, false);
            assert_eq!(square.predicted_serial_ms, model_ms(512, 512 * 512 + w_b));
            assert!(square.predicted_serial_ms > at(512, transb, true).predicted_serial_ms);
        }
        // A batch's rows stack: two 8-row entries are one block and read
        // B in place, as a cached B is charged; eight are two blocks,
        // which share the packed panel.
        let (mode, tb) = (DispatchMode::Auto, Transpose::No);
        let batch = |entries: usize, cached: bool| {
            decide_calibrated(
                (1.0, 1.0),
                mode,
                8,
                512,
                512,
                entries,
                &b,
                6,
                32.0,
                2,
                tb,
                cached,
            )
        };
        let pair = batch(2, false).predicted_serial_ms;
        assert_eq!(pair, batch(2, true).predicted_serial_ms);
        assert!(batch(8, false).predicted_serial_ms > batch(8, true).predicted_serial_ms);
    }

    #[test]
    fn skinny_cached_stream_dispatches_serial() {
        // The PR-4 weight-reuse shape: 8×256×256 with B cached, blocks
        // 64×24×48 — 24 epochs of ~8 µs compute each. The model must
        // see the barrier overhead and keep it serial.
        let b = blocks(64, 24, 48);
        let d = decide(DispatchMode::Auto, 8, 256, 256, 1, &b, 6, 4, true);
        assert_eq!(d.runtime, Parallelism::Serial);
        assert!(!d.forced);
        assert!(d.predicted_pool_ms > d.predicted_serial_ms);
    }

    #[test]
    fn coarse_grid_falls_back_to_serial() {
        // n too narrow to split (one sliver) and a single mc block: one
        // cell cannot occupy 8 threads, so auto must go serial without
        // consulting the model.
        let b = blocks(256, 64, 1792);
        let d = decide(DispatchMode::Auto, 48, 6, 4096, 1, &b, 6, 8, false);
        assert_eq!(d.runtime, Parallelism::Serial);
        assert_eq!(d.n_split, 1, "one sliver cannot split");
        assert!(d.m_tasks * d.n_split < 8);
    }

    #[test]
    fn skinny_m_gets_a_column_grid() {
        // Two mc blocks but a wide N: the cells come from splitting
        // columns (48 rows of A per cell cost less to pack than 2048
        // columns of B), and big-k compute must make the pool worth it.
        let b = blocks(512, 24, 1792);
        let d = decide(DispatchMode::Auto, 48, 4096, 4096, 1, &b, 6, 8, false);
        assert_eq!((d.m_tasks, d.n_split), (1, 8));
        assert_eq!(d.runtime, Parallelism::Pool(8));
    }

    #[test]
    fn square_pooled_shape_gets_one_cell_per_thread() {
        // 1024³ on 8 threads: a 4×2 grid packs the fewest words per cell
        // (264 rows of A and 516 columns of B, against all 1024 rows and
        // 132 columns for 1×8), and the pool wins in the model.
        let b = blocks(512, 24, 1792);
        let d = decide(DispatchMode::Auto, 1024, 1024, 1024, 1, &b, 6, 8, false);
        assert_eq!((d.m_tasks, d.n_split), (4, 2));
        assert_eq!(d.runtime, Parallelism::Pool(8));
    }

    #[test]
    fn the_plan_priced_is_the_plan_the_pool_runs() {
        // The shapes of the benchmark ladder under the default blocking
        // at degree 2, priced at the AVX-512 μ and a neutral calibration.
        let b = blocks(512, 56, 1920);
        let at = |m: usize, batch: usize, cached: bool| {
            let (mode, tb) = (DispatchMode::Auto, Transpose::No);
            decide_calibrated(
                (1.0, 1.0),
                mode,
                m,
                512,
                512,
                batch,
                &b,
                6,
                32.0,
                2,
                tb,
                cached,
            )
        };
        // 512³: two column cells, each packing all of A and its half of
        // B. Nothing is left serial on the caller, so the prediction is
        // half the serial one plus one barrier.
        let square = at(512, 1, false);
        assert_eq!((square.m_tasks, square.n_split), (1, 2));
        assert_eq!(square.runtime, Parallelism::Pool(2));
        assert!(square.predicted_pool_ms < 0.65 * square.predicted_serial_ms);
        // A batch against a PrepackedB has no B pack to duplicate: split
        // the entries, so each thread packs half of the A blocks.
        let batch = at(16, 8, true);
        assert_eq!((batch.m_tasks, batch.n_split), (2, 1));
        // Without the cache the same batch packs B, and a row split
        // would pack it twice: columns.
        let fresh = at(16, 8, false);
        assert_eq!((fresh.m_tasks, fresh.n_split), (1, 2));
    }

    #[test]
    fn forced_modes_override_the_model() {
        let b = blocks(64, 24, 48);
        // Forced pool on a shape auto would run serially.
        let d = decide(DispatchMode::Pool, 8, 256, 256, 1, &b, 6, 4, true);
        assert_eq!(d.runtime, Parallelism::Pool(4));
        assert!(d.forced);
        assert!(d.n_split > 1, "forced pool still gets the 2-D grid");
        // Forced serial on a shape auto would pool.
        let b = blocks(512, 24, 1792);
        let d = decide(DispatchMode::Serial, 1024, 1024, 1024, 1, &b, 6, 8, false);
        assert_eq!(d.runtime, Parallelism::Serial);
        assert!(d.forced);
    }

    #[test]
    fn single_thread_never_pools() {
        let b = blocks(512, 24, 1792);
        let d = decide(DispatchMode::Auto, 1024, 1024, 1024, 1, &b, 6, 1, false);
        assert_eq!(d.runtime, Parallelism::Serial);
    }

    #[test]
    fn record_publishes_and_calibrates() {
        let b = blocks(512, 24, 1792);
        let d = decide(DispatchMode::Serial, 64, 64, 64, 1, &b, 6, 1, false);
        let before = calibration(false);
        record(d, Duration::from_micros(500));
        let last = last_decision().expect("decision published");
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
        // Uses the same single-body pattern as gemm.rs env tests: all
        // DGEMM_DISPATCH cases in one test, since env reads race across
        // parallel test threads. gemm.rs owns testing auto(); this
        // covers only the parser.
        let _env = env_lock();
        std::env::remove_var("DGEMM_DISPATCH");
        assert_eq!(DispatchMode::from_env().unwrap(), DispatchMode::Fixed);
        for (v, want) in [
            ("serial", DispatchMode::Serial),
            ("pool", DispatchMode::Pool),
            ("auto", DispatchMode::Auto),
            ("fixed", DispatchMode::Fixed),
            ("", DispatchMode::Fixed),
            (" auto ", DispatchMode::Auto),
        ] {
            std::env::set_var("DGEMM_DISPATCH", v);
            assert_eq!(DispatchMode::from_env().unwrap(), want, "value {v:?}");
        }
        for bad in ["parallel", "2", "on"] {
            std::env::set_var("DGEMM_DISPATCH", bad);
            assert!(DispatchMode::from_env().is_err(), "accepted {bad:?}");
        }
        std::env::remove_var("DGEMM_DISPATCH");
    }
}
