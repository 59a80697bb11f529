//! Layers 1–3 of Figure 2: the outer blocking loops and the GEMM driver.
//!
//! ```text
//! for jj in 0..N step nc          // layer 1: C,B column panels (L3)
//!   for kk in 0..K step kc        // layer 2: rank-kc updates (GEPP)
//!     pack B(kk.., jj..) -> L3-resident panel
//!     for ii in 0..M step mc      // layer 3: GEBP calls (parallelized)
//!       pack A(ii.., kk..) -> L2-resident block
//!       GEBP
//! ```
//!
//! The nest is written once, as `pool::gemm_walk`: layer 1
//! there, layers 2 and 3 in the body of a cell of the panel — the whole
//! panel under [`Parallelism::Serial`], one thread's share of it on the
//! pool. This module holds the configuration, the entry points, the
//! [`Plan`] of a call and the one sequence every call runs around the
//! walk (`gemm_driver`).
//!
//! What a call does is decided once, before the walk, by `plan`: the
//! blocking, where B comes from ([`BSource`]: packed only where the copy
//! is re-read and the kernel's strided read is slower, `b_source`), the
//! grid each panel is cut into and the runtime — under
//! [`DispatchMode::Auto`] priced by the model ([`crate::dispatch`]). The
//! walk runs the plan and decides nothing.
//! β is applied to each element of C exactly once, by the cell that owns
//! it, before its first rank-kc update; α is folded into the micro-kernel
//! write-back.

#![forbid(unsafe_code)]

use crate::autotune::AutotuneMode;
use crate::dispatch::{DispatchMode, Model, Predicted};
use crate::env;
use crate::matrix::{MatrixView, MatrixViewMut};
use crate::microkernel::{KernelSet, MicroKernelKind};
use crate::pool::{cell_grid, gemm_walk, BOperand, Call, Parallelism, PoolScalar, WorkerPool};
use crate::probe::L2;
use crate::scalar::Scalar;
use crate::simd::Isa;
use crate::{GemmError, Transpose};
use perfmodel::cacheblock::{solve_blocking, BlockSizes};
use perfmodel::MachineDesc;
use std::time::{Duration, Instant};

/// Upper clamp for `DGEMM_EPOCH_TIMEOUT_MS`: one hour. A watchdog
/// longer than this is indistinguishable from no watchdog, and the
/// clamp keeps an absurd value from overflowing deadline arithmetic.
const MAX_EPOCH_TIMEOUT_MS: u64 = 3_600_000;

/// A family of register kernels as a [`Config`] sees it: a
/// [`KernelSet`] over one element type, plus the four things that differ
/// between the paper's DGEMM and the SGEMM its method yields when re-run
/// at four bytes per element ([`crate::sgemm`]).
pub trait KernelFamily: KernelSet<Self::Elem> + PartialEq + core::fmt::Debug {
    /// The element type the family multiplies.
    type Elem: PoolScalar;
    /// Every kernel of the family: the candidates of the autotuner's
    /// kernel axis, and what a tune-DB row's `mr×nr` is resolved against.
    const ALL: &'static [Self];
    /// The kernel [`Config::default`] and [`Config::auto`] run: the
    /// family's analytic optimum.
    const DEFAULT: Self;
    /// The family's `dtype` key in the tune DB.
    const DTYPE: &'static str;
    /// The machine the analytic blocking is solved for, described at this
    /// family's element size.
    fn machine() -> MachineDesc;
}

impl KernelFamily for MicroKernelKind {
    type Elem = f64;
    const ALL: &'static [Self] = &MicroKernelKind::ALL;
    const DEFAULT: Self = MicroKernelKind::Mk8x6;
    const DTYPE: &'static str = "f64";

    fn machine() -> MachineDesc {
        MachineDesc::xgene()
    }
}

/// Configuration of one GEMM invocation: register kernel, blocking and
/// threading runtime. [`GemmConfig`] and [`crate::sgemm::SgemmConfig`]
/// are this type at the two kernel families.
#[derive(Clone, Copy, Debug)]
pub struct Config<K: KernelFamily> {
    /// Register kernel to use (layer 7).
    pub kernel: K,
    /// Cache blocking (layers 1–6). [`Config::for_kernel`] solves `kc` and
    /// `nc` for the family's machine ([`KernelFamily::machine`]) and takes
    /// `mc` from this host's L2.
    pub blocks: BlockSizes,
    /// How layer 3 executes: serial, or the persistent worker pool (one
    /// pool serves both precisions, each with its own thread-local
    /// arena).
    pub parallelism: Parallelism,
    /// Watchdog deadline per layer-3 epoch (one `jj` panel) on the pool
    /// runtime. `None` (the default) waits indefinitely; with a
    /// deadline, every cell of the epoch that no thread has begun by
    /// then is taken back and recomputed by the caller, and the call
    /// reports [`GemmError::EpochTimeout`] (C still holds the bit-exact
    /// result). A cell already begun cannot be abandoned — its thread
    /// holds the call's operands — so a thread descheduled *mid-cell*
    /// delays the call instead of being abandoned. [`Config::auto`]
    /// reads `DGEMM_EPOCH_TIMEOUT_MS`.
    pub epoch_timeout: Option<Duration>,
    /// Consult the process-wide [`crate::prepack::PackCache`] of the
    /// element type for a pre-packed B (packing it on first use), so
    /// repeated GEMMs against the same operand pack it once instead of
    /// per call. Off by default; see the [`crate::prepack`] coherence
    /// contract before enabling. [`Config::auto`] reads
    /// `DGEMM_PACK_CACHE`.
    pub pack_cache: bool,
    /// Shape-adaptive dispatch (DESIGN.md §13): with the default
    /// [`DispatchMode::Fixed`] the configured [`Parallelism`] runs
    /// unchanged; `Auto` lets the cost model choose, per call, between
    /// it and a serial call. The calibration is shared by both
    /// precisions. [`Config::auto`] reads `DGEMM_DISPATCH`.
    pub dispatch: DispatchMode,
    /// Closed-loop autotuning (DESIGN.md §14): with the default
    /// [`AutotuneMode::Off`] the analytic blocking runs unchanged;
    /// `Read` applies winners stored in the per-host tuning DB under the
    /// family's [`KernelFamily::DTYPE`], `Full` additionally tunes on the
    /// first miss of each shape class. [`Config::auto`] reads
    /// `DGEMM_AUTOTUNE`.
    pub autotune: AutotuneMode,
}

/// Configuration of one DGEMM invocation: the paper's kernels, blocked
/// with Table III's `kc` and `nc` and an `mc` from this host's L2.
pub type GemmConfig = Config<MicroKernelKind>;

/// The rows of A one packed block holds on this host: the most whole
/// row-group tiles (`mr·row_group` rows) whose `mc·kc·elem` bytes fit in a
/// quarter of the per-core L2 (`bytes / sharers`). The quarter is
/// measured, not derived: eq. 17 taken literally lets the block fill the
/// L2 less one B sliver, which on a 2 MiB L2 is 480 rows and lost
/// 11–12 % against 56, while blocks of an eighth to a half of it beat
/// 56 (EXPERIMENTS.md, "The A block from this host's L2").
/// `fallback` (eq. 17 on the paper machine) stands when there is no L2
/// to read or a quarter of it holds less than one tile.
pub(crate) fn host_mc(
    l2: Option<L2>,
    kc: usize,
    elem: usize,
    mr: usize,
    row_group: usize,
    fallback: usize,
) -> usize {
    let tile = mr.max(1) * row_group.max(1);
    let Some(L2 { bytes, sharers }) = l2 else {
        return fallback;
    };
    let rows = bytes / sharers.max(1) / 4 / (kc * elem).max(1);
    match rows / tile * tile {
        0 => fallback,
        mc => mc,
    }
}

impl<K: KernelFamily> Config<K> {
    /// Analytic configuration for a kernel and thread count: `kc` and `nc`
    /// solved for the family's machine (eqs. 15 and 18–20), `mc` from this
    /// host's L2 (`host_mc`). `threads > 1` selects the persistent
    /// worker pool ([`Parallelism::from_threads`]).
    #[must_use]
    pub fn for_kernel(kernel: K, threads: usize) -> Self {
        let m = K::machine();
        // The paper machine is always solvable; the fallback covers a
        // hypothetical unsolvable register shape without panicking in
        // library code (conservative L1/L2-sized blocks).
        let mut blocks = solve_blocking(kernel.mr(), kernel.nr(), threads.clamp(1, m.cores), &m)
            .unwrap_or_else(|_| {
                BlockSizes::custom(
                    kernel.mr(),
                    kernel.nr(),
                    256,
                    8 * kernel.mr(),
                    64 * kernel.nr(),
                )
            });
        blocks.mc = host_mc(
            crate::probe::l2(),
            blocks.kc,
            m.element_bytes,
            kernel.mr(),
            kernel.row_group(),
            blocks.mc,
        );
        Config {
            kernel,
            blocks,
            parallelism: Parallelism::from_threads(threads),
            epoch_timeout: None,
            pack_cache: false,
            dispatch: DispatchMode::Fixed,
            autotune: AutotuneMode::Off,
        }
    }

    /// Configuration for the host at hand, from the environment (README,
    /// "Environment variables"): the thread count from `DGEMM_NUM_THREADS`
    /// (a positive integer, clamped to [`WorkerPool::max_workers`]), else
    /// [`std::thread::available_parallelism`]; the epoch watchdog from
    /// `DGEMM_EPOCH_TIMEOUT_MS` (`0` disables it, a huge value clamps to
    /// an hour); `DGEMM_PACK_CACHE`, `DGEMM_DISPATCH` and
    /// `DGEMM_AUTOTUNE`. `DGEMM_TELEMETRY`, `DGEMM_PEAK_GFLOPS` and, when
    /// the tuner is on, the tuning-DB variables are checked here too. A
    /// non-unicode or malformed value is that variable's
    /// [`GemmError::BadConfig`], for either family.
    pub fn auto() -> Result<Self, GemmError> {
        crate::telemetry::mode_from_env()?;
        crate::telemetry::peak_gflops_from_env()?;
        let threads = env::NUM_THREADS
            .parse(|v| v.parse::<usize>().ok().filter(|&n| n > 0))?
            // Over-subscribing beyond the pool's own cap only queues
            // jobs behind fewer workers; clamp instead of erroring.
            .map_or_else(
                || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
                |n| n.min(WorkerPool::max_workers()),
            );
        let autotune = env::AUTOTUNE
            .parse(|v| match v {
                "read" => Some(AutotuneMode::Read),
                "full" => Some(AutotuneMode::Full),
                "" | "off" => Some(AutotuneMode::Off),
                _ => None,
            })?
            .unwrap_or_default();
        if autotune != AutotuneMode::Off {
            // Validate the tuning-DB env vars eagerly: typed errors at
            // config time, not silent fallbacks mid-GEMM.
            crate::autotune::db_path()?;
            crate::autotune::TuneOptions::from_env()?;
            crate::autotune::max_age_from_env()?;
        }
        let epoch_timeout = env::EPOCH_TIMEOUT_MS
            .parse(|v| v.parse::<u64>().ok())?
            .filter(|&ms| ms > 0)
            .map(|ms| Duration::from_millis(ms.min(MAX_EPOCH_TIMEOUT_MS)));
        let pack_cache = env::PACK_CACHE
            .parse(|v| match v {
                "1" | "true" => Some(true),
                "0" | "false" | "" => Some(false),
                _ => None,
            })?
            .unwrap_or(false);
        let dispatch = env::DISPATCH
            .parse(|v| match v {
                "auto" => Some(DispatchMode::Auto),
                "" | "fixed" => Some(DispatchMode::Fixed),
                _ => None,
            })?
            .unwrap_or_default();
        Ok(Self::for_kernel(K::DEFAULT, threads)
            .with_epoch_timeout(epoch_timeout)
            .with_pack_cache(pack_cache)
            .with_dispatch(dispatch)
            .with_autotune(autotune))
    }

    /// Same kernel/threads but explicit `kc×mc×nc` (for sensitivity
    /// studies like Table VI).
    #[must_use]
    pub fn with_blocks(mut self, kc: usize, mc: usize, nc: usize) -> Self {
        self.blocks = BlockSizes::custom(self.kernel.mr(), self.kernel.nr(), kc, mc, nc);
        self
    }

    /// Same kernel/blocking but an explicit threading runtime.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Same configuration with an explicit epoch watchdog deadline
    /// (`None` disables it).
    #[must_use]
    pub fn with_epoch_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.epoch_timeout = timeout;
        self
    }

    /// Same configuration with the transparent pre-packed-B cache
    /// enabled or disabled (see [`crate::prepack`] for the coherence
    /// contract the caller takes on when enabling it).
    #[must_use]
    pub fn with_pack_cache(mut self, enabled: bool) -> Self {
        self.pack_cache = enabled;
        self
    }

    /// Same configuration with an explicit [`DispatchMode`] (see
    /// [`crate::dispatch`] and the README's "Choosing a runtime").
    #[must_use]
    pub fn with_dispatch(mut self, dispatch: DispatchMode) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Same configuration with an explicit [`AutotuneMode`] (see
    /// [`crate::autotune`] and the README's "Autotuning").
    #[must_use]
    pub fn with_autotune(mut self, autotune: AutotuneMode) -> Self {
        self.autotune = autotune;
        self
    }

    /// The configured parallel degree (1 for serial).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.parallelism.degree()
    }
}

impl<K: KernelFamily> Default for Config<K> {
    /// The family's best serial configuration: for DGEMM the paper's 8×6
    /// kernel with `kc×nc = 512×1920` and this host's `mc` (Table III's 56
    /// where the L2 cannot be read).
    fn default() -> Self {
        Self::for_kernel(K::DEFAULT, 1)
    }
}

/// Unchecked GEMM core: `C := α·op(A)·op(B) + β·C`.
///
/// Dimensions are asserted (use [`crate::blas::dgemm`] for `Result`-based
/// checking). `a` and `b` are the *stored* operands; transposition is
/// folded into packing.
///
/// # Panics
///
/// On shape/blocking violations, and on a runtime fault the pool could
/// not contain ([`GemmError::WorkerFault`] etc.) — use [`try_gemm`] (or
/// [`crate::blas::dgemm`]) to receive those as typed errors instead.
#[allow(clippy::too_many_arguments)] // canonical BLAS gemm signature
pub fn gemm(
    transa: Transpose,
    transb: Transpose,
    alpha: f64,
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    cfg: &GemmConfig,
) {
    if let Err(e) = try_gemm(transa, transb, alpha, a, b, beta, c, cfg) {
        panic!("gemm runtime fault: {e}");
    }
}

/// [`gemm`] with runtime faults reported as typed errors, for either
/// kernel family: worker double faults, watchdog timeouts and allocation
/// failures surface as `Err` instead of panics. Dimensions are still
/// asserted (this is the unchecked core; [`crate::blas::checked_gemm`]
/// validates shapes too).
///
/// `Ok(())` guarantees C holds the bit-exact serial result, even when
/// the pool contained worker faults along the way;
/// [`GemmError::EpochTimeout`] guarantees the same result but reports
/// that the watchdog fired; other errors leave C unspecified.
#[allow(clippy::too_many_arguments)] // canonical BLAS gemm signature
pub fn try_gemm<K: KernelFamily>(
    transa: Transpose,
    transb: Transpose,
    alpha: K::Elem,
    a: &MatrixView<'_, K::Elem>,
    b: &MatrixView<'_, K::Elem>,
    beta: K::Elem,
    c: &mut MatrixViewMut<'_, K::Elem>,
    cfg: &Config<K>,
) -> Result<(), GemmError> {
    // Consult the tuning DB (DESIGN.md §14) before committing to a
    // blocking; AutotuneMode::Off returns the config untouched and any
    // tuning failure degrades silently to the analytic defaults. The
    // tuned config swaps kernel and blocking together, so a checked
    // caller's shape invariants keep holding for it.
    let (m, ka) = transa.apply_dims(a.rows(), a.cols());
    let (kb, n) = transb.apply_dims(b.rows(), b.cols());
    assert_eq!(ka, kb, "inner dimensions differ");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape differs");
    let cfg = if cfg.autotune == AutotuneMode::Off {
        *cfg
    } else {
        crate::autotune::tuned(cfg, m, n, ka)
    };
    gemm_stored_b(
        transa,
        transb,
        alpha,
        core::slice::from_ref(a),
        b,
        beta,
        core::slice::from_mut(c),
        &cfg,
    )
}

/// [`gemm_driver`] on a B the caller stored, the one place the
/// transparent [`Config::pack_cache`] lookup happens: with it on, a call
/// that computes anything takes `op(B)`'s panels from the element type's
/// process-wide [`crate::prepack::PackCache`], packing them there on a
/// miss. The `Arc` keeps them alive for the whole call even if the entry
/// is evicted or invalidated meanwhile; a failed pack (allocation) reads
/// B as stored, packing per call, never an error.
#[allow(clippy::too_many_arguments)] // the BLAS gemm signature plus the batch and the config
pub(crate) fn gemm_stored_b<K: KernelFamily>(
    transa: Transpose,
    transb: Transpose,
    alpha: K::Elem,
    a_batch: &[MatrixView<'_, K::Elem>],
    b: &MatrixView<'_, K::Elem>,
    beta: K::Elem,
    c_batch: &mut [MatrixViewMut<'_, K::Elem>],
    cfg: &Config<K>,
) -> Result<(), GemmError> {
    let stored = BOperand::Stored(b, transb);
    let looks_up = cfg.pack_cache && !is_scale_only(transa, alpha, a_batch, stored);
    let BlockSizes { kc, nc, .. } = cfg.blocks;
    let cached = looks_up
        .then(|| K::Elem::pack_cache().get_or_pack(b, transb, cfg.kernel.nr(), kc, nc))
        .flatten();
    let b = cached.as_deref().map_or(stored, BOperand::Prepacked);
    gemm_driver(transa, alpha, a_batch, b, beta, c_batch, cfg)
}

/// Whether the call is `C_i := β·C_i` and nothing else: α = 0 or an
/// empty product.
fn is_scale_only<T: Scalar>(
    transa: Transpose,
    alpha: T,
    a_batch: &[MatrixView<'_, T>],
    b: BOperand<'_, T>,
) -> bool {
    let (_, n) = b.dims();
    let computes = |(m, k): (usize, usize)| m > 0 && n > 0 && k > 0;
    alpha == T::ZERO
        || !a_batch
            .first()
            .is_some_and(|a| computes(transa.apply_dims(a.rows(), a.cols())))
}

/// What every call does around the walk, once: `C_i := α·op(A_i)·op(B) +
/// β·C_i` over a batch that shares `op(B)` — a plain GEMM is a batch of
/// one. A degenerate call is β·C and nothing else; otherwise [`plan`] the
/// call, run the plan ([`gemm_walk`]), and, when the model priced it,
/// tell the dispatcher how long it took. Shapes are the caller's to
/// validate: every `A_i` alike and conforming with `b`, every `C_i`
/// `m×n`; panels in `b` packed for the config's `(nr, kc, nc)`.
pub(crate) fn gemm_driver<K: KernelFamily>(
    transa: Transpose,
    alpha: K::Elem,
    a_batch: &[MatrixView<'_, K::Elem>],
    b: BOperand<'_, K::Elem>,
    beta: K::Elem,
    c_batch: &mut [MatrixViewMut<'_, K::Elem>],
    cfg: &Config<K>,
) -> Result<(), GemmError> {
    let BlockSizes { kc, mc, nc, .. } = cfg.blocks;
    assert!(kc > 0 && mc > 0 && nc > 0, "block sizes must be positive");
    if is_scale_only(transa, alpha, a_batch, b) {
        for c in c_batch.iter_mut() {
            c.scale(beta);
        }
        return Ok(());
    }
    let (m, k) = transa.apply_dims(a_batch[0].rows(), a_batch[0].cols());
    let (_, n) = b.dims();
    let prepacked = matches!(b, BOperand::Prepacked(_));
    let model =
        (cfg.dispatch == DispatchMode::Auto).then(|| Model::now(cfg.kernel.flops_per_cycle()));
    let (shape, batch) = ((m, n, k), a_batch.len());
    let plan = plan(
        model,
        crate::probe::l2(),
        cfg.kernel.isa(),
        shape,
        batch,
        b.trans(),
        cfg,
        prepacked,
    );
    let start = plan.predicted.is_some().then(Instant::now);
    let call = Call {
        transa,
        alpha,
        beta,
        kernel: cfg.kernel,
        a_batch,
        b,
    };
    let result = gemm_walk(&plan, call, c_batch);
    if let Some(start) = start {
        crate::dispatch::record(plan, start.elapsed());
    }
    result
}

/// Where the cells of a call read B from: the rule [`plan`] decides it
/// by (DESIGN.md, "When B is packed"), for either runtime, a plain call
/// or a batch whose `rows` stacked rows ([`crate::pool::row_tasks`]) run
/// in blocks of `mc`, on a kernel at `isa` whose one call covers `group`
/// rows (`mr·row_group`). A pack is traffic; it pays only when its copy
/// is read again from nearer than where the caller keeps B. So, in order:
///
/// 1. a [`crate::prepack::PrepackedB`] serving the call is packed already;
/// 2. when the rows fit one row group of one `mc` block, each sliver of
///    B is read by exactly one kernel call and no copy could be re-read:
///    in place, whatever the transpose;
/// 3. an untransposed B is read in place at any block count by a SIMD
///    body ([`Isa::Avx2`] and up), which streams a sliver's columns from
///    the caller's matrix as fast as from a packed copy; a packed panel
///    too large to stay beside the A block in the L2 is re-read from L3
///    by every block anyway;
/// 4. everything else packs: a transposed B read by more than one row
///    group (consecutive `k` of a sliver lie `ldb` apart), and the
///    portable loop past one `mc` block, whose strided read is slower
///    than its packed one. Within one block the portable loop reads an
///    untransposed B in place, as every kernel always has.
#[must_use]
pub(crate) fn b_source(
    rows: usize,
    mc: usize,
    group: usize,
    transb: Transpose,
    isa: Isa,
    prepacked: bool,
) -> BSource {
    let one_block = rows <= mc;
    let read_once = one_block && rows <= group;
    let streamed = transb == Transpose::No && (one_block || isa > Isa::Portable);
    if prepacked {
        BSource::Prepacked
    } else if read_once || streamed {
        BSource::InPlace
    } else {
        BSource::Packed
    }
}

/// How one call runs, decided once, before the walk, by `plan` — the
/// blocking, where B comes from, the grid each `jj` panel is cut into
/// and the runtime — with the model's predictions when
/// [`DispatchMode::Auto`] priced it. The walk runs it and decides
/// nothing; [`crate::pool::status`] publishes the latest priced one as
/// `last_dispatch`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// Rows of `op(A_i)` and of every `C_i`.
    pub m: usize,
    /// Columns of `op(B)` and C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Batch entries sharing B (1 for a plain GEMM).
    pub batch: usize,
    /// The blocking, as the config carries it (after
    /// [`crate::autotune::tuned`]).
    pub blocks: BlockSizes,
    /// Where the cells read B from.
    pub b_source: BSource,
    /// `(row ranges, column chunks)` of a full-width panel, at the
    /// runtime's degree ([`cell_grid`]); `(1, 1)` under
    /// [`Parallelism::Serial`].
    pub grid: (usize, usize),
    /// The same for the last panel when `n % nc` leaves it narrower;
    /// `grid` otherwise.
    pub tail_grid: (usize, usize),
    /// The runtime the walk runs on.
    pub runtime: Parallelism,
    /// The pool's watchdog deadline per epoch ([`Config::epoch_timeout`]).
    pub epoch_timeout: Option<Duration>,
    /// The calibrated predictions; `None` unless [`DispatchMode::Auto`]
    /// priced the call.
    pub predicted: Option<Predicted>,
    /// Wall-clock of the call that ran a priced plan, milliseconds,
    /// filled in afterwards by the dispatcher.
    pub measured_ms: Option<f64>,
}

/// Where the cells of a call read B from ([`Plan::b_source`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BSource {
    /// Tiles of a [`crate::prepack::PrepackedB`], packed before the call.
    Prepacked,
    /// Each cell packs its columns of each `kc×nc` panel: a transposed B
    /// read by more than one row group, or the portable kernel past one
    /// `mc` block (`b_source`).
    Packed,
    /// Where the caller stored it: each sliver is read by one kernel call,
    /// or a SIMD kernel streams an untransposed B as fast as a packed
    /// copy (`b_source`).
    InPlace,
}

/// The [`Plan`] of a call of `(m, n, k)` over `batch` entries sharing B,
/// run with `cfg` — with a [`crate::prepack::PrepackedB`] serving B when
/// `prepacked` — on cores with the L2 `l2` whose register kernel runs at
/// `isa` (the call's: `probe::l2` and [`KernelSet::isa`]; a test's: any,
/// `None` for an unknown L2). The only place the B source
/// (`b_source`), the grid and the runtime are decided, and the only place
/// the model prices a call: without a `model` (under
/// [`DispatchMode::Fixed`]) it runs the configured runtime unpriced; with
/// one (under [`DispatchMode::Auto`]: the dispatcher's calibrated model,
/// or a test's) the model chooses.
#[allow(clippy::too_many_arguments)] // the shape, the B operand, the config and two host facts
pub(crate) fn plan<K: KernelFamily>(
    model: Option<Model>,
    l2: Option<L2>,
    isa: Isa,
    (m, n, k): (usize, usize, usize),
    batch: usize,
    transb: Transpose,
    cfg: &Config<K>,
    prepacked: bool,
) -> Plan {
    let blocks = cfg.blocks;
    let (kc, mc, nc) = (blocks.kc, blocks.mc, blocks.nc);
    let (mr, nr) = (cfg.kernel.mr(), cfg.kernel.nr());
    let group = mr * crate::simd::row_group(isa, mr, nr);
    let b_source = b_source(m * batch, mc, group, transb, isa, prepacked);
    let tail = match n % nc {
        0 => nc.min(n),
        narrower => narrower,
    };
    // the elements one core's share of the L2 holds
    let l2 = l2.map(|L2 { bytes, sharers }| bytes / sharers.max(1) / K::Elem::BYTES);
    // a full panel's grid and the last one's, on `runtime`
    let grids = |runtime: Parallelism| {
        let degree = runtime.degree();
        let grid = |width| cell_grid(m * batch, width, k, kc, mc, nr, degree, b_source, isa, l2);
        (grid(nc.min(n)), grid(tail))
    };
    let (grid, tail_grid) = grids(cfg.parallelism);
    let mut plan = Plan {
        m,
        n,
        k,
        batch,
        blocks,
        b_source,
        grid,
        tail_grid,
        runtime: cfg.parallelism,
        epoch_timeout: cfg.epoch_timeout,
        predicted: None,
        measured_ms: None,
    };
    if let Some(model) = model {
        // priced as the configured runtime would cut it
        let (runtime, predicted) = model.choose(&plan);
        plan.predicted = Some(predicted);
        if runtime != plan.runtime {
            (plan.grid, plan.tail_grid) = grids(runtime);
            plan.runtime = runtime;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference::naive_gemm;
    use crate::util::gemm_tolerance;

    #[allow(clippy::too_many_arguments)]
    fn check(
        kind: MicroKernelKind,
        m: usize,
        n: usize,
        k: usize,
        transa: Transpose,
        transb: Transpose,
        alpha: f64,
        beta: f64,
        threads: usize,
    ) {
        let (ar, ac) = match transa {
            Transpose::No => (m, k),
            Transpose::Yes => (k, m),
        };
        let (br, bc) = match transb {
            Transpose::No => (k, n),
            Transpose::Yes => (n, k),
        };
        let a = Matrix::random(ar, ac, 7);
        let b = Matrix::random(br, bc, 8);
        let c0 = Matrix::random(m, n, 9);

        let mut expected = c0.clone();
        naive_gemm(
            transa,
            transb,
            alpha,
            &a.view(),
            &b.view(),
            beta,
            &mut expected.view_mut(),
        );

        let mut got = c0.clone();
        // shrink blocks so tests cross block boundaries quickly
        let cfg = GemmConfig::for_kernel(kind, threads).with_blocks(24, 16.max(kind.mr() * 2), 32);
        gemm(
            transa,
            transb,
            alpha,
            &a.view(),
            &b.view(),
            beta,
            &mut got.view_mut(),
            &cfg,
        );

        let tol = gemm_tolerance(k, 1.0);
        assert!(
            got.max_abs_diff(&expected) < tol,
            "{} m={m} n={n} k={k} ta={transa:?} tb={transb:?} alpha={alpha} beta={beta} \
             threads={threads}: err {}",
            kind.label(),
            got.max_abs_diff(&expected)
        );
    }

    #[test]
    fn square_no_transpose() {
        for kind in MicroKernelKind::ALL {
            check(kind, 64, 64, 64, Transpose::No, Transpose::No, 1.0, 0.0, 1);
        }
    }

    #[test]
    fn all_transpose_combinations() {
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                check(MicroKernelKind::Mk8x6, 40, 33, 27, ta, tb, 1.0, 0.0, 1);
            }
        }
    }

    #[test]
    fn alpha_beta_cases() {
        for (alpha, beta) in [(1.0, 1.0), (2.0, -0.5), (0.0, 2.0), (-1.0, 0.0), (0.5, 1.0)] {
            check(
                MicroKernelKind::Mk8x6,
                50,
                50,
                50,
                Transpose::No,
                Transpose::No,
                alpha,
                beta,
                1,
            );
        }
    }

    #[test]
    fn ragged_sizes_cross_every_block_boundary() {
        // sizes chosen to be coprime with mr/nr/kc/mc/nc used in check()
        for kind in MicroKernelKind::ALL {
            check(kind, 65, 37, 25, Transpose::No, Transpose::No, 1.0, 1.0, 1);
            check(kind, 17, 65, 49, Transpose::No, Transpose::No, 1.0, 0.0, 1);
        }
    }

    #[test]
    fn one_dimensional_edge_cases() {
        for (m, n, k) in [(1, 1, 1), (1, 64, 32), (64, 1, 32), (64, 32, 1), (3, 2, 1)] {
            check(
                MicroKernelKind::Mk8x6,
                m,
                n,
                k,
                Transpose::No,
                Transpose::No,
                1.0,
                0.0,
                1,
            );
        }
    }

    #[test]
    fn empty_dims_are_noops_or_scales() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        let mut c = Matrix::zeros(0, 4);
        gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &GemmConfig::default(),
        );
        // k == 0: C just scales by beta
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::from_fn(3, 2, |_, _| 4.0);
        gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.25,
            &mut c.view_mut(),
            &GemmConfig::default(),
        );
        assert_eq!(c.get(2, 1), 1.0);
    }

    #[test]
    fn threaded_matches_serial() {
        for threads in [2, 4, 8] {
            check(
                MicroKernelKind::Mk8x6,
                120,
                60,
                40,
                Transpose::No,
                Transpose::No,
                1.5,
                0.5,
                threads,
            );
        }
    }

    #[test]
    fn threaded_transposed() {
        check(
            MicroKernelKind::Mk8x4,
            90,
            45,
            33,
            Transpose::Yes,
            Transpose::Yes,
            1.0,
            1.0,
            4,
        );
    }

    /// `mc` as [`Config::for_kernel`] takes it for `kernel` on this host.
    fn this_hosts_mc<K: KernelFamily>(kernel: K, kc: usize, fallback: usize) -> usize {
        let elem = core::mem::size_of::<K::Elem>();
        host_mc(
            crate::probe::l2(),
            kc,
            elem,
            kernel.mr(),
            kernel.row_group(),
            fallback,
        )
    }

    #[test]
    fn default_config_is_paper_serial() {
        let cfg = GemmConfig::default();
        assert_eq!(cfg.kernel, MicroKernelKind::Mk8x6);
        // Table III's kc and nc; mc from this host's L2, or Table III's 56
        let mc = this_hosts_mc(cfg.kernel, 512, 56);
        assert_eq!(
            (cfg.blocks.kc, cfg.blocks.mc, cfg.blocks.nc),
            (512, mc, 1920)
        );
        assert_eq!(cfg.parallelism, Parallelism::Serial);
        assert_eq!(cfg.threads(), 1);
        assert_eq!(cfg.dispatch, DispatchMode::Fixed);
    }

    #[test]
    fn for_kernel_parallel_blocks() {
        let kernel = MicroKernelKind::Mk8x6;
        let cfg = GemmConfig::for_kernel(kernel, 8);
        let mc = this_hosts_mc(kernel, 512, 24);
        assert_eq!(
            (cfg.blocks.kc, cfg.blocks.mc, cfg.blocks.nc),
            (512, mc, 1792)
        );
        // every kernel of both families takes whole row-group tiles
        for kernel in MicroKernelKind::ALL {
            let blocks = GemmConfig::for_kernel(kernel, 1).blocks;
            let fallback = solve_blocking(kernel.mr(), kernel.nr(), 1, &MachineDesc::xgene())
                .unwrap()
                .mc;
            assert_eq!(blocks.mc, this_hosts_mc(kernel, blocks.kc, fallback));
        }
        for kernel in crate::microkernel::SgemmKernelKind::ALL {
            let blocks = crate::sgemm::SgemmConfig::for_kernel(kernel, 1).blocks;
            let machine = crate::sgemm::machine_f32();
            let fallback = solve_blocking(kernel.mr(), kernel.nr(), 1, &machine)
                .unwrap()
                .mc;
            assert_eq!(blocks.mc, this_hosts_mc(kernel, blocks.kc, fallback));
        }
    }

    /// The `mc` rule as a pure function of the L2 (bytes, sharers), `kc`,
    /// the element size and the row-group tile: whole tiles in a quarter
    /// of the per-core L2, or the paper machine's value.
    #[test]
    fn mc_fills_a_quarter_of_the_per_core_l2_in_whole_tiles() {
        let l2 = |kib: usize, sharers: usize| {
            Some(L2 {
                bytes: kib << 10,
                sharers,
            })
        };
        // (L2, mr, row group) -> mc, at kc = 512 on f64
        for (cache, mr, group, want) in [
            (l2(2048, 1), 8, 4, 128), // 8x6 on AVX-512: 32-row tiles
            (l2(1024, 1), 8, 4, 64),
            (l2(1280, 1), 8, 4, 64),  // 80 rows fit: two whole tiles
            (l2(2048, 2), 8, 4, 64),  // a shared L2 is split
            (l2(2048, 1), 8, 6, 96),  // 8x4 on AVX-512: 48-row tiles
            (l2(2048, 1), 5, 1, 125), // a group of one is `mr`
            (l2(256, 1), 8, 4, 56),   // a quarter holds 16 rows: no tile
            (None, 8, 4, 56),
        ] {
            assert_eq!(
                host_mc(cache, 512, 8, mr, group, 56),
                want,
                "{cache:?} {mr}x{group}"
            );
        }
        // the element size and kc enter as the block's bytes
        assert_eq!(host_mc(l2(2048, 1), 768, 4, 12, 1, 48), 168);
    }

    #[test]
    fn for_kernel_threads_map_to_runtime() {
        assert_eq!(
            GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1).parallelism,
            Parallelism::Serial
        );
        assert_eq!(
            GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 8).parallelism,
            Parallelism::Pool(8)
        );
    }

    #[test]
    fn auto_config_reads_environment() {
        crate::env::tests::check(crate::env::tests::GEMM_ROWS);
    }

    #[test]
    fn epoch_timeout_builder_and_default() {
        let cfg = GemmConfig::default();
        assert_eq!(cfg.epoch_timeout, None);
        let cfg = cfg.with_epoch_timeout(Some(Duration::from_millis(80)));
        assert_eq!(cfg.epoch_timeout, Some(Duration::from_millis(80)));
        assert_eq!(cfg.with_epoch_timeout(None).epoch_timeout, None);
    }

    /// The pool reorders nothing that matters: each C element's
    /// accumulation order is fixed by the (jj, kk) epoch walk, so the
    /// pooled runtime must match the serial walk bit for bit.
    #[test]
    fn runtimes_are_bitwise_identical() {
        for (m, n, k) in [(120, 70, 45), (61, 33, 29), (8, 96, 512)] {
            let a = Matrix::random(m, k, 21);
            let b = Matrix::random(k, n, 22);
            let c0 = Matrix::random(m, n, 23);
            let base = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1).with_blocks(32, 16, 24);
            let mut out = Vec::new();
            for cfg in [
                base.with_parallelism(Parallelism::Serial),
                base.with_parallelism(Parallelism::Pool(3)),
                // ragged: blocks % workers != 0
                base.with_parallelism(Parallelism::Pool(5)),
                // the model's pick must not change a bit either
                base.with_parallelism(Parallelism::Pool(3))
                    .with_dispatch(DispatchMode::Auto),
            ] {
                let mut c = c0.clone();
                gemm(
                    Transpose::No,
                    Transpose::No,
                    1.25,
                    &a.view(),
                    &b.view(),
                    -0.5,
                    &mut c.view_mut(),
                    &cfg,
                );
                out.push(c);
            }
            for c in &out[1..] {
                assert_eq!(
                    c.max_abs_diff(&out[0]),
                    0.0,
                    "runtime diverges from serial on {m}x{n}x{k}"
                );
            }
        }
    }

    /// The B-source rule by its inputs: the stacked rows, `mc`, the rows
    /// one kernel call covers, the transpose, the kernel's level and
    /// whether a `PrepackedB` serves the call.
    #[test]
    fn the_b_source_rule_packs_only_where_the_copy_pays() {
        use BSource::{InPlace, Packed, Prepacked};
        use Isa::{Avx2, Avx512, Portable};
        use Transpose::{No, Yes};
        #[rustfmt::skip]
        let rows = [
            // a cached panel is packed already, whatever the shape
            (512, 128, 32, No, Avx512, true, Prepacked),
            (8, 128, 8, Yes, Portable, true, Prepacked),
            // one row group of one block reads each sliver once: in
            // place, either transpose, at every level
            (32, 128, 32, Yes, Avx512, false, InPlace),
            (8, 128, 8, Yes, Avx2, false, InPlace),
            (8, 128, 8, Yes, Portable, false, InPlace),
            (5, 128, 5, Yes, Portable, false, InPlace),
            // ... where the block, not the group, can be the bound
            (16, 16, 32, Yes, Avx512, false, InPlace),
            // a second row group re-reads a transposed B's slivers: packed
            (33, 128, 32, Yes, Avx512, false, Packed),
            (17, 16, 32, Yes, Avx512, false, Packed),
            (9, 128, 8, Yes, Avx2, false, Packed),
            (512, 128, 32, Yes, Avx512, false, Packed),
            // a SIMD body streams an untransposed B at any block count
            (512, 128, 32, No, Avx512, false, InPlace),
            (4096, 56, 8, No, Avx2, false, InPlace),
            // the portable loop reads it in place within one block only
            (128, 128, 5, No, Portable, false, InPlace),
            (129, 128, 5, No, Portable, false, Packed),
            (512, 128, 8, No, Portable, false, Packed),
        ];
        for (n, mc, group, transb, isa, prepacked, want) in rows {
            assert_eq!(
                b_source(n, mc, group, transb, isa, prepacked),
                want,
                "{n} rows, mc {mc}, group {group}, {transb:?}, {isa:?}, prepacked {prepacked}"
            );
        }
    }

    /// Every decision a call's plan makes, by shape, at explicit blocking.
    /// `Fixed` rows run the configured runtime unpriced — the grid the
    /// pool would cut is the one `Auto` prices; `Auto` rows are priced at
    /// a neutral calibration. Every row plans on a 2 MiB per-core L2, and
    /// for a kernel at a SIMD level (AVX-512, the 8×6 kernel's row group
    /// of 32 rows) unless it says portable (a row group of 8). A plan has
    /// no β input: every cell writes its own tiles of C, whatever β is.
    #[test]
    fn one_plan_decides_b_source_grid_and_runtime() {
        use BSource::{InPlace, Packed, Prepacked};
        use Parallelism::{Pool, Serial};
        use Transpose::{No, Yes};
        const PAPER: (usize, usize, usize) = (512, 56, 1920);
        // the blocking on a 2 MiB L2 (`host_mc`)
        const HOST: (usize, usize, usize) = (512, 128, 1920);
        let l2 = Some(L2 {
            bytes: 2 << 20,
            sharers: 1,
        });
        let (portable, avx512) = (Some(2.0), Some(Isa::Avx512.flops_per_cycle()));
        // `fpc` None is Fixed; Some is Auto, priced at that kernel peak
        let plan_at = |isa: Isa,
                       fpc: Option<f64>,
                       shape: (usize, usize, usize),
                       batch: usize,
                       transb: Transpose,
                       (kc, mc, nc): (usize, usize, usize),
                       runtime: Parallelism,
                       prepacked: bool| {
            let cfg = GemmConfig::default()
                .with_blocks(kc, mc, nc)
                .with_parallelism(runtime);
            let model = fpc.map(|flops_per_cycle| Model {
                flops_per_cycle,
                calibration: (1.0, 1.0),
            });
            super::plan(model, l2, isa, shape, batch, transb, &cfg, prepacked)
        };
        let plan = |fpc, shape, batch, transb, blocks, runtime, prepacked| {
            plan_at(
                Isa::Avx512,
                fpc,
                shape,
                batch,
                transb,
                blocks,
                runtime,
                prepacked,
            )
        };
        let portable_plan = |shape, batch, transb, blocks, runtime| {
            plan_at(
                Isa::Portable,
                None,
                shape,
                batch,
                transb,
                blocks,
                runtime,
                false,
            )
        };
        let (square, skinny, deep) = ((512, 512, 512), (8, 512, 512), (8, 512, 1100));
        let (batch, wide) = ((16, 512, 512), (512, 1920 + 100, 512));
        let (ragged, b_ragged) = ((35, 37, 23), (16, 16, 24));
        let (stream, b_stream) = ((8, 256, 256), (64, 24, 48));
        let (coarse, b_coarse) = ((48, 6, 4096), (256, 64, 1792));
        let (big, tall_k, b_big) = ((1024, 1024, 1024), (48, 4096, 4096), (512, 24, 1792));
        let (group, past_group) = ((32, 512, 512), (40, 512, 512));
        // the row, its plan, and (B source, grid, tail grid, runtime,
        // priced)
        #[rustfmt::skip]
        let rows = [
            // a SIMD kernel reads an untransposed B in place at any block
            // count; at mc = 56 a row range would get 280 of 512 rows
            ("512³ serial",                 plan(None, square, 1, No, PAPER, Serial, false),  (InPlace, (1, 1), (1, 1), Serial, false)),
            ("512³ Pool(2)",                plan(None, square, 1, No, PAPER, Pool(2), false), (InPlace, (1, 2), (1, 2), Pool(2), false)),
            ("8x512x512, fresh B",          plan(None, skinny, 1, No, PAPER, Serial, false),  (InPlace, (1, 1), (1, 1), Serial, false)),
            ("the same on Pool(2)",         plan(None, skinny, 1, No, PAPER, Pool(2), false), (InPlace, (1, 2), (1, 2), Pool(2), false)),
            // a transposed B keeps its pack past one row group
            ("Bᵀ, 8 rows: one row group",   plan(None, skinny, 1, Yes, PAPER, Serial, false), (InPlace, (1, 1), (1, 1), Serial, false)),
            ("Bᵀ, 32 rows: one row group",  plan(None, group, 1, Yes, HOST, Pool(2), false), (InPlace, (1, 2), (1, 2), Pool(2), false)),
            ("Bᵀ, 40 rows: two groups",     plan(None, past_group, 1, Yes, HOST, Pool(2), false), (Packed, (1, 2), (1, 2), Pool(2), false)),
            ("Bᵀ, 512³",                    plan(None, square, 1, Yes, PAPER, Serial, false), (Packed, (1, 1), (1, 1), Serial, false)),
            // a packed Bᵀ keeps its columns at the host's mc: a row cell
            // would pack all of B, too much to stay beside its A block
            ("Bᵀ, 512³ Pool(2)",            plan(None, square, 1, Yes, HOST, Pool(2), false), (Packed, (1, 2), (1, 2), Pool(2), false)),
            ("Bᵀ, 512x510x512 Pool(2)",     plan(None, (512, 510, 512), 1, Yes, HOST, Pool(2), false), (Packed, (1, 2), (1, 2), Pool(2), false)),
            // mc = 16 cuts the 32-row group: a 35-row Bᵀ is three blocks;
            // three 35×6 tail cells finish before four of 32×12
            ("Bᵀ, 3 blocks of 16",          plan(None, ragged, 1, Yes, b_ragged, Pool(4), false), (Packed, (1, 4), (1, 3), Pool(4), false)),
            ("7 x 16 rows, PrepackedB",     plan(None, batch, 7, No, PAPER, Pool(2), true),   (Prepacked, (2, 1), (2, 1), Pool(2), false)),
            ("7 x 16 rows, fresh B",        plan(None, batch, 7, No, PAPER, Pool(2), false),  (InPlace, (2, 1), (2, 1), Pool(2), false)),
            ("k > kc, one block",           plan(None, deep, 1, No, PAPER, Serial, false),    (InPlace, (1, 1), (1, 1), Serial, false)),
            // the 1920-wide panel splits as 512³ at mc = 56 does; a 280×100
            // tail cell computes about what a 512×54 one does
            ("n % nc != 0",                 plan(None, wide, 1, No, PAPER, Pool(2), false),   (InPlace, (1, 2), (2, 1), Pool(2), false)),
            // 3 mc blocks cannot give 4 threads a cell each: columns
            ("3 blocks on Pool(4)",         plan(None, ragged, 1, No, b_ragged, Pool(4), false), (InPlace, (1, 4), (1, 3), Pool(4), false)),
            // a fixed runtime overrides the model either way (rows below)
            ("Fixed pool, Auto serial",     plan(None, stream, 1, No, b_stream, Pool(4), true), (Prepacked, (1, 4), (1, 3), Pool(4), false)),
            ("Fixed serial, Auto pool",     plan(None, big, 1, No, b_big, Serial, false),     (InPlace, (1, 1), (1, 1), Serial, false)),
            ("Auto 512³",                   plan(avx512, square, 1, No, PAPER, Pool(2), false), (InPlace, (1, 2), (1, 2), Pool(2), true)),
            ("Auto 8x512x512, portable",    plan(portable, skinny, 1, No, PAPER, Pool(2), false), (InPlace, (1, 2), (1, 2), Pool(2), true)),
            ("Auto 8x512x512, AVX-512",     plan(avx512, skinny, 1, No, PAPER, Pool(2), false), (InPlace, (1, 1), (1, 1), Serial, true)),
            ("Auto cached stream",          plan(portable, stream, 1, No, b_stream, Pool(4), true), (Prepacked, (1, 1), (1, 1), Serial, true)),
            ("Auto, one cell for 8",        plan(portable, coarse, 1, No, b_coarse, Pool(8), false), (InPlace, (1, 1), (1, 1), Serial, true)),
            // two mc blocks of 24 rows: in place a row range copies half
            // of A; packed, each would copy all of B's 1792 columns
            ("Auto skinny m, in place",     plan(portable, tall_k, 1, No, b_big, Pool(8), false), (InPlace, (2, 4), (2, 4), Pool(8), true)),
            ("Auto skinny m, Bᵀ: columns",  plan(portable, tall_k, 1, Yes, b_big, Pool(8), false), (Packed, (1, 8), (1, 8), Pool(8), true)),
            // in place a 4×2 cell copies 264 rows of A, a 2×4 one 528
            ("Auto 1024³ on 8",             plan(portable, big, 1, No, b_big, Pool(8), false), (InPlace, (4, 2), (4, 2), Pool(8), true)),
            ("Auto on one thread",          plan(portable, big, 1, No, b_big, Serial, false),  (InPlace, (1, 1), (1, 1), Serial, true)),
            // At the host's mc, for any β, B in place splits the rows where
            // the row tasks divide: each thread packs its half of A and no
            // B (the paper's layer-3 schedule). 500 rows are four tasks.
            ("512³ Pool(2), host mc",       plan(None, square, 1, No, HOST, Pool(2), false), (InPlace, (2, 1), (2, 1), Pool(2), false)),
            ("2048x512x512 Pool(2)",        plan(None, (2048, 512, 512), 1, No, HOST, Pool(2), false), (InPlace, (2, 1), (2, 1), Pool(2), false)),
            ("500x512x512 Pool(2)",         plan(None, (500, 512, 512), 1, No, HOST, Pool(2), false), (InPlace, (2, 1), (2, 1), Pool(2), false)),
            // three tasks split 2:1: a 256×512 cell, more than 384×258
            ("384x512x512 Pool(2)",         plan(None, (384, 512, 512), 1, No, HOST, Pool(2), false), (InPlace, (1, 2), (1, 2), Pool(2), false)),
            ("7 x 16 rows, host mc",        plan(None, batch, 7, No, HOST, Pool(2), false),  (InPlace, (1, 2), (1, 2), Pool(2), false)),
            // the portable kernel keeps the pack past one mc block, and
            // past one 8-row group of a transposed B. At its μ a copied
            // word costs 2.25 flops, not 36: the flops pick the grid
            ("portable 512³",               portable_plan(square, 1, No, PAPER, Serial),      (Packed, (1, 1), (1, 1), Serial, false)),
            ("portable 512³ Pool(2)",       portable_plan(square, 1, No, HOST, Pool(2)),      (Packed, (2, 1), (2, 1), Pool(2), false)),
            ("portable 7 x 16 rows",        portable_plan(batch, 7, No, PAPER, Pool(2)),      (Packed, (2, 1), (2, 1), Pool(2), false)),
            ("portable 7 x 16, host mc",    portable_plan(batch, 7, No, HOST, Pool(2)),       (InPlace, (1, 2), (1, 2), Pool(2), false)),
            ("portable 8x512x512",          portable_plan(skinny, 1, No, PAPER, Serial),      (InPlace, (1, 1), (1, 1), Serial, false)),
            ("portable Bᵀ, 8 rows",         portable_plan(skinny, 1, Yes, PAPER, Pool(2)),    (InPlace, (1, 2), (1, 2), Pool(2), false)),
            ("portable Bᵀ, 16 rows",        portable_plan(batch, 1, Yes, PAPER, Serial),      (Packed, (1, 1), (1, 1), Serial, false)),
        ];
        for (row, plan, want) in rows {
            let got = (
                plan.b_source,
                plan.grid,
                plan.tail_grid,
                plan.runtime,
                plan.predicted.is_some(),
            );
            assert_eq!(got, want, "{row}");
        }
        // nothing is left serial on the caller: half the serial
        // prediction plus one barrier
        let priced = plan(avx512, square, 1, No, PAPER, Pool(2), false)
            .predicted
            .unwrap();
        assert!(priced.pool_ms < 0.65 * priced.serial_ms);
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = Matrix::identity(4);
        let b = Matrix::identity(4);
        let mut c = Matrix::zeros(4, 4);
        c.set(1, 1, f64::NAN);
        gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &GemmConfig::default(),
        );
        assert_eq!(c.get(1, 1), 1.0);
    }

    #[test]
    fn paper_blocking_on_midsize_problem() {
        // run the default blocking (kc = 512) once on a problem big enough
        // to have multiple kc panels
        let m = 70;
        let n = 40;
        let k = 1100; // crosses kc=512 twice
        let a = Matrix::random(m, k, 1);
        let b = Matrix::random(k, n, 2);
        let mut expected = Matrix::zeros(m, n);
        naive_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut expected.view_mut(),
        );
        let mut got = Matrix::zeros(m, n);
        gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut got.view_mut(),
            &GemmConfig::default(),
        );
        assert!(got.max_abs_diff(&expected) < gemm_tolerance(k, 1.0));
    }
}
