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
//! pool. This module holds the configuration, the entry points and the
//! one sequence every call runs around the walk (`gemm_driver`).
//!
//! β is applied to each element of C exactly once, by the cell that owns
//! it, before its first rank-kc update; α is folded into the micro-kernel
//! write-back. The B pack is there for layer 3 to amortize: a call whose
//! layer 3 is a single GEBP reads B in place instead ([`packs_b`]).

#![forbid(unsafe_code)]

use crate::autotune::AutotuneMode;
use crate::dispatch::DispatchMode;
use crate::matrix::{MatrixView, MatrixViewMut};
use crate::microkernel::{KernelSet, MicroKernelKind};
use crate::pool::{gemm_walk, Parallelism, PoolScalar, WorkerPool};
use crate::prepack::PackCache;
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
    /// Cache blocking (layers 1–6). [`Config::for_kernel`] derives it
    /// analytically for the family's machine ([`KernelFamily::machine`]).
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
    /// unchanged; `Auto` picks Serial vs Pool per call from the cost
    /// model, `Serial`/`Pool` force a runtime.
    /// The calibration is shared by both precisions. [`Config::auto`]
    /// reads `DGEMM_DISPATCH`.
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
/// for the paper's machine (Table III).
pub type GemmConfig = Config<MicroKernelKind>;

impl<K: KernelFamily> Config<K> {
    /// Analytic configuration for a kernel and thread count on the
    /// family's machine. `threads > 1` selects the persistent worker
    /// pool ([`Parallelism::from_threads`]).
    #[must_use]
    pub fn for_kernel(kernel: K, threads: usize) -> Self {
        let m = K::machine();
        // The paper machine is always solvable; the fallback covers a
        // hypothetical unsolvable register shape without panicking in
        // library code (conservative L1/L2-sized blocks).
        let blocks = solve_blocking(kernel.mr(), kernel.nr(), threads.clamp(1, m.cores), &m)
            .unwrap_or_else(|_| {
                BlockSizes::custom(
                    kernel.mr(),
                    kernel.nr(),
                    256,
                    8 * kernel.mr(),
                    64 * kernel.nr(),
                )
            });
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

    /// Configuration for the host at hand: the thread count comes from
    /// the `DGEMM_NUM_THREADS` environment variable when set, otherwise
    /// from [`std::thread::available_parallelism`]; the epoch watchdog
    /// comes from `DGEMM_EPOCH_TIMEOUT_MS` when set. An unparsable or
    /// zero `DGEMM_NUM_THREADS` is a [`GemmError::BadConfig`]; an
    /// absurdly large one is clamped to [`WorkerPool::max_workers`].
    /// `DGEMM_EPOCH_TIMEOUT_MS=0` disables the watchdog; an unparsable
    /// value is a [`GemmError::BadConfig`]; a huge one is clamped to an
    /// hour. `DGEMM_PACK_CACHE`, `DGEMM_DISPATCH` and `DGEMM_AUTOTUNE`
    /// (with the tuning-DB variables it brings in) are read the same
    /// way, for both families, and `DGEMM_TELEMETRY` and
    /// `DGEMM_PEAK_GFLOPS` are checked ([`crate::telemetry::mode_from_env`]).
    pub fn auto() -> Result<Self, GemmError> {
        crate::telemetry::mode_from_env()?;
        crate::telemetry::peak_gflops_from_env()?;
        let threads = threads_from_env()?;
        let autotune = AutotuneMode::from_env()?;
        if autotune != AutotuneMode::Off {
            // Validate the tuning-DB env vars eagerly: typed errors at
            // config time, not silent fallbacks mid-GEMM.
            crate::autotune::db_path()?;
            crate::autotune::TuneOptions::from_env()?;
            crate::autotune::max_age_from_env()?;
        }
        Ok(Self::for_kernel(K::DEFAULT, threads)
            .with_epoch_timeout(epoch_timeout_from_env()?)
            .with_pack_cache(pack_cache_from_env()?)
            .with_dispatch(DispatchMode::from_env()?)
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
    /// kernel with `kc×mc×nc = 512×56×1920`.
    fn default() -> Self {
        Self::for_kernel(K::DEFAULT, 1)
    }
}

/// Parse `DGEMM_NUM_THREADS`: absent falls back to the host's available
/// parallelism, zero/garbage is a typed error, a huge value clamps to
/// [`WorkerPool::max_workers`].
fn threads_from_env() -> Result<usize, GemmError> {
    match std::env::var("DGEMM_NUM_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            // Over-subscribing beyond the pool's own cap only queues
            // jobs behind fewer workers; clamp instead of erroring.
            Ok(n) if n > 0 => Ok(n.min(WorkerPool::max_workers())),
            _ => Err(GemmError::BadConfig(
                "DGEMM_NUM_THREADS must be a positive integer",
            )),
        },
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(GemmError::BadConfig("DGEMM_NUM_THREADS is not unicode"))
        }
        Err(std::env::VarError::NotPresent) => Ok(std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)),
    }
}

/// Parse `DGEMM_EPOCH_TIMEOUT_MS`: absent or `0` disables the watchdog,
/// a huge value clamps to one hour, garbage is a typed error.
fn epoch_timeout_from_env() -> Result<Option<Duration>, GemmError> {
    match std::env::var("DGEMM_EPOCH_TIMEOUT_MS") {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(0) => Ok(None),
            Ok(ms) => Ok(Some(Duration::from_millis(ms.min(MAX_EPOCH_TIMEOUT_MS)))),
            Err(_) => Err(GemmError::BadConfig(
                "DGEMM_EPOCH_TIMEOUT_MS must be a non-negative integer of milliseconds",
            )),
        },
        Err(std::env::VarError::NotUnicode(_)) => Err(GemmError::BadConfig(
            "DGEMM_EPOCH_TIMEOUT_MS is not unicode",
        )),
        Err(std::env::VarError::NotPresent) => Ok(None),
    }
}

/// Parse `DGEMM_PACK_CACHE`: absent/`0`/`false` disables the pack
/// cache, `1`/`true` enables it, anything else is a typed error.
fn pack_cache_from_env() -> Result<bool, GemmError> {
    match std::env::var("DGEMM_PACK_CACHE") {
        Ok(v) => match v.trim() {
            "1" | "true" => Ok(true),
            "0" | "false" | "" => Ok(false),
            _ => Err(GemmError::BadConfig(
                "DGEMM_PACK_CACHE must be 0/1/true/false",
            )),
        },
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(GemmError::BadConfig("DGEMM_PACK_CACHE is not unicode"))
        }
        Err(std::env::VarError::NotPresent) => Ok(false),
    }
}

/// Parse an optional non-negative integer environment knob: absent
/// `None`, garbage or non-unicode is the typed error `err`. The shared
/// primitive behind the `DGEMM_SERVICE_*` knobs
/// ([`crate::service::ServiceConfig::from_env`]), matching the
/// absent-is-default / garbage-is-typed-error contract of the parsers
/// above.
pub(crate) fn env_u64(name: &str, err: &'static str) -> Result<Option<u64>, GemmError> {
    match std::env::var(name) {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(GemmError::BadConfig(err)),
        },
        Err(std::env::VarError::NotUnicode(_)) => Err(GemmError::BadConfig(err)),
        Err(std::env::VarError::NotPresent) => Ok(None),
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
    let cfg = if cfg.autotune == AutotuneMode::Off {
        *cfg
    } else {
        let (m, k) = transa.apply_dims(a.rows(), a.cols());
        let (_, n) = transb.apply_dims(b.rows(), b.cols());
        crate::autotune::tuned(cfg, m, n, k)
    };
    gemm_with(
        transa,
        transb,
        alpha,
        a,
        b,
        beta,
        c,
        cfg.kernel,
        cfg.blocks,
        cfg.parallelism,
        cfg.epoch_timeout,
        cfg.pack_cache,
        cfg.dispatch,
    )
}

/// The generic blocked GEMM core (any [`PoolScalar`], any [`KernelSet`]):
/// the same layered loops serve the paper's DGEMM and the derived
/// SGEMM ([`crate::sgemm`]). A batch of one through `gemm_driver`.
///
/// `Ok(())` guarantees C holds the bit-exact serial result, even when
/// the pool contained worker faults along the way;
/// [`GemmError::EpochTimeout`] guarantees the same result but reports
/// that the watchdog fired; other errors leave C unspecified.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with<T: PoolScalar, K: KernelSet<T>>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    beta: T,
    c: &mut MatrixViewMut<'_, T>,
    kernel: K,
    blocks: BlockSizes,
    parallelism: Parallelism,
    epoch_timeout: Option<Duration>,
    pack_cache: bool,
    dispatch: DispatchMode,
) -> Result<(), GemmError> {
    let (m, ka) = transa.apply_dims(a.rows(), a.cols());
    let (kb, n) = transb.apply_dims(b.rows(), b.cols());
    assert_eq!(ka, kb, "inner dimensions differ");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape differs");
    gemm_driver(
        transa,
        transb,
        alpha,
        core::slice::from_ref(a),
        b,
        beta,
        core::slice::from_mut(c),
        kernel,
        blocks,
        parallelism,
        epoch_timeout,
        pack_cache.then(T::pack_cache),
        dispatch,
    )
}

/// What every call does around the walk, once: `C_i := α·op(A_i)·op(B) +
/// β·C_i` over a batch that shares `op(B)` — a plain GEMM is a batch of
/// one. A degenerate call is β·C and nothing else; otherwise look `b` up
/// in `cache` (if any), let the dispatcher pick the runtime (unless
/// `dispatch` is `Fixed`), run [`gemm_walk`], and tell the dispatcher how
/// long its pick took. Shapes are the caller's to validate: every `A_i`
/// alike and conforming with `b`, every `C_i` `m×n`.
#[allow(clippy::too_many_arguments)] // the BLAS gemm signature plus the batch and the config
pub(crate) fn gemm_driver<T: PoolScalar, K: KernelSet<T>>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a_batch: &[MatrixView<'_, T>],
    b: &MatrixView<'_, T>,
    beta: T,
    c_batch: &mut [MatrixViewMut<'_, T>],
    kernel: K,
    blocks: BlockSizes,
    parallelism: Parallelism,
    epoch_timeout: Option<Duration>,
    cache: Option<&PackCache<T>>,
    dispatch: DispatchMode,
) -> Result<(), GemmError> {
    assert!(
        blocks.kc > 0 && blocks.mc > 0 && blocks.nc > 0,
        "block sizes must be positive"
    );
    let Some(first_a) = a_batch.first() else {
        return Ok(());
    };
    let (m, k) = transa.apply_dims(first_a.rows(), first_a.cols());
    let (_, n) = transb.apply_dims(b.rows(), b.cols());

    // α = 0 or an empty product: the call is β·C and nothing else.
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        for c in c_batch.iter_mut() {
            c.scale(beta);
        }
        return Ok(());
    }

    // The cache path: the shared operand is packed once per cache
    // lifetime instead of once per call. Cloning the Arc here keeps the
    // panels alive for the whole call even if the entry is evicted or
    // invalidated concurrently. A failed pack (allocation) degrades to
    // the per-call packing of the walk, never to an error.
    let prepacked =
        cache.and_then(|cache| cache.get_or_pack(b, transb, kernel.nr(), blocks.kc, blocks.nc));
    let prepacked = prepacked.as_deref();

    // Fixed runs the configured runtime with no decision and no timing;
    // any other mode asks the dispatcher (DESIGN.md §13). A batch shares
    // one decision: its rows stacked are the row tasks of the one grid,
    // which is the walk's own either way ([`crate::pool::cell_grid`]).
    let plan = match dispatch {
        DispatchMode::Fixed => None,
        mode => Some(crate::dispatch::decide(
            mode,
            m,
            n,
            k,
            a_batch.len(),
            &blocks,
            kernel.nr(),
            kernel.flops_per_cycle(),
            parallelism.degree(),
            transb,
            prepacked.is_some(),
        )),
    };
    let timed = plan.map(|plan| (plan, Instant::now()));
    let result = gemm_walk(
        transa,
        transb,
        alpha,
        a_batch,
        b,
        beta,
        c_batch,
        kernel,
        blocks,
        plan.map_or(parallelism, |p| p.runtime),
        epoch_timeout,
        prepacked,
    );
    if let Some((plan, start)) = timed {
        crate::dispatch::record(plan, start.elapsed());
    }
    result
}

/// Whether the walk packs B — each cell its columns of each `kc×nc`
/// panel — before layer 3 runs over it: the one place that decision lives
/// (DESIGN.md, "When B is packed"), for either runtime, a plain call or a
/// batch. The pack's traffic is amortized over the `gebps` GEBP
/// calls that share the panel (`⌈m·batch/mc⌉`: a batch's rows stacked,
/// [`crate::pool::row_tasks`]); with one there is nothing to amortize it
/// over and the kernels read B
/// where the caller stored it. A transposed B keeps its pack: read in
/// place its `nr` elements of one `k` are adjacent but consecutive `k`
/// are `ldb` apart, which measured slower than pack-then-compute on a
/// full `mc` block (EXPERIMENTS.md, "In-place B for single-block calls").
/// A [`crate::prepack::PrepackedB`] serving the call is packed already.
#[must_use]
pub(crate) fn packs_b(gebps: usize, transb: Transpose, prepacked: bool) -> bool {
    !prepacked && (gebps > 1 || transb == Transpose::Yes)
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

    #[test]
    fn default_config_is_paper_serial() {
        let cfg = GemmConfig::default();
        assert_eq!(cfg.kernel, MicroKernelKind::Mk8x6);
        assert_eq!(
            (cfg.blocks.kc, cfg.blocks.mc, cfg.blocks.nc),
            (512, 56, 1920)
        );
        assert_eq!(cfg.parallelism, Parallelism::Serial);
        assert_eq!(cfg.threads(), 1);
        assert_eq!(cfg.dispatch, DispatchMode::Fixed);
    }

    #[test]
    fn for_kernel_parallel_blocks() {
        let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 8);
        assert_eq!(
            (cfg.blocks.kc, cfg.blocks.mc, cfg.blocks.nc),
            (512, 24, 1792)
        );
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

    /// One test body for every `auto()` case: the env-var reads would
    /// race if split across parallel test threads.
    #[test]
    fn auto_config_reads_environment() {
        let _env = crate::dispatch::env_lock();
        std::env::remove_var("DGEMM_NUM_THREADS");
        std::env::remove_var("DGEMM_EPOCH_TIMEOUT_MS");
        std::env::remove_var("DGEMM_DISPATCH");
        let cfg = GemmConfig::auto().unwrap();
        assert!(cfg.threads() >= 1);
        assert!(cfg.parallelism.validate().is_ok());
        assert_eq!(cfg.epoch_timeout, None);

        std::env::set_var("DGEMM_NUM_THREADS", "3");
        let cfg = GemmConfig::auto().unwrap();
        assert_eq!(cfg.parallelism, Parallelism::Pool(3));

        std::env::set_var("DGEMM_NUM_THREADS", "1");
        let cfg = GemmConfig::auto().unwrap();
        assert_eq!(cfg.parallelism, Parallelism::Serial);

        for bad in ["0", "-2", "lots", ""] {
            std::env::set_var("DGEMM_NUM_THREADS", bad);
            assert!(GemmConfig::auto().is_err(), "accepted {bad:?}");
        }

        // An absurd thread count is clamped to the pool cap, not taken
        // literally (which would queue millions of zero-work jobs).
        std::env::set_var("DGEMM_NUM_THREADS", "18446744073709551615");
        let cfg = GemmConfig::auto().unwrap();
        assert!(cfg.threads() <= WorkerPool::max_workers());
        std::env::remove_var("DGEMM_NUM_THREADS");

        // Watchdog: absent -> None (checked above), 0 -> disabled,
        // a value -> that deadline, huge -> clamped, garbage -> error.
        std::env::set_var("DGEMM_EPOCH_TIMEOUT_MS", "0");
        assert_eq!(GemmConfig::auto().unwrap().epoch_timeout, None);
        std::env::set_var("DGEMM_EPOCH_TIMEOUT_MS", "250");
        assert_eq!(
            GemmConfig::auto().unwrap().epoch_timeout,
            Some(Duration::from_millis(250))
        );
        std::env::set_var("DGEMM_EPOCH_TIMEOUT_MS", "99999999999999");
        assert_eq!(
            GemmConfig::auto().unwrap().epoch_timeout,
            Some(Duration::from_millis(MAX_EPOCH_TIMEOUT_MS))
        );
        for bad in ["-5", "soon", "", "1.5"] {
            std::env::set_var("DGEMM_EPOCH_TIMEOUT_MS", bad);
            assert!(GemmConfig::auto().is_err(), "accepted {bad:?}");
        }
        std::env::remove_var("DGEMM_EPOCH_TIMEOUT_MS");

        // Pack cache: absent -> off, 1/true -> on, 0/false/"" -> off,
        // garbage -> error.
        std::env::remove_var("DGEMM_PACK_CACHE");
        assert!(!GemmConfig::auto().unwrap().pack_cache);
        for on in ["1", "true", " true "] {
            std::env::set_var("DGEMM_PACK_CACHE", on);
            assert!(GemmConfig::auto().unwrap().pack_cache, "rejected {on:?}");
        }
        for off in ["0", "false", ""] {
            std::env::set_var("DGEMM_PACK_CACHE", off);
            assert!(!GemmConfig::auto().unwrap().pack_cache, "accepted {off:?}");
        }
        for bad in ["yes", "2", "on"] {
            std::env::set_var("DGEMM_PACK_CACHE", bad);
            assert!(GemmConfig::auto().is_err(), "accepted {bad:?}");
        }
        std::env::remove_var("DGEMM_PACK_CACHE");

        // Dispatch: absent -> Fixed (checked above via the default),
        // each named mode parses, garbage -> error. The parser's full
        // contract lives in dispatch.rs; this checks auto() wires it.
        assert_eq!(GemmConfig::auto().unwrap().dispatch, DispatchMode::Fixed);
        for (v, want) in [
            ("serial", DispatchMode::Serial),
            ("pool", DispatchMode::Pool),
            ("auto", DispatchMode::Auto),
            ("fixed", DispatchMode::Fixed),
        ] {
            std::env::set_var("DGEMM_DISPATCH", v);
            assert_eq!(GemmConfig::auto().unwrap().dispatch, want, "value {v:?}");
        }
        std::env::set_var("DGEMM_DISPATCH", "sometimes");
        assert!(GemmConfig::auto().is_err());
        std::env::remove_var("DGEMM_DISPATCH");

        // Telemetry: absent (checked above) and each named mode pass, a
        // misspelling is an error rather than silence.
        for v in ["off", "", "summary", "json", " JSON "] {
            std::env::set_var("DGEMM_TELEMETRY", v);
            assert!(GemmConfig::auto().is_ok(), "rejected {v:?}");
        }
        for bad in ["jsno", "on"] {
            std::env::set_var("DGEMM_TELEMETRY", bad);
            assert!(GemmConfig::auto().is_err(), "accepted {bad:?}");
        }
        std::env::remove_var("DGEMM_TELEMETRY");

        // Peak: absent (checked above), empty or a positive number pass;
        // garbage, a non-positive or a non-finite value is an error.
        for v in ["90", " 75.5 ", ""] {
            std::env::set_var("DGEMM_PEAK_GFLOPS", v);
            assert!(GemmConfig::auto().is_ok(), "rejected {v:?}");
        }
        for bad in ["fast", "0", "-3", "inf", "NaN"] {
            std::env::set_var("DGEMM_PEAK_GFLOPS", bad);
            assert!(GemmConfig::auto().is_err(), "accepted {bad:?}");
        }
        std::env::remove_var("DGEMM_PEAK_GFLOPS");
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
                // the dispatcher (forced and model-driven, including the
                // 2-D grid forced pool runs) must not change a bit either
                base.with_parallelism(Parallelism::Pool(3))
                    .with_dispatch(DispatchMode::Serial),
                base.with_parallelism(Parallelism::Pool(3))
                    .with_dispatch(DispatchMode::Pool),
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

    #[test]
    fn the_pack_b_rule_is_one_block_and_no_transpose() {
        use Transpose::{No, Yes};
        // one GEBP per panel and B as stored: nothing would reuse a pack
        assert!(!packs_b(1, No, false));
        // layer 3 amortizes it over the blocks (or batch entries)
        assert!(packs_b(2, No, false));
        assert!(packs_b(10, No, false));
        // read in place a transposed B measured slower on a full block
        assert!(packs_b(1, Yes, false));
        // a cached panel is packed already, whatever the shape
        for gebps in [1, 2, 10] {
            assert!(!packs_b(gebps, No, true) && !packs_b(gebps, Yes, true));
        }
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
        // run the true 512x56x1920 blocking once on a problem big enough
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
