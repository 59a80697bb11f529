//! Persistent worker-pool runtime for layer 3 (Section IV-C, Figure 9).
//!
//! The paper's layer 3 keeps one team of threads for the whole
//! multiplication. For its large problems how the team is kept hardly
//! matters, but for the small/batched GEMMs layered workloads issue (LU
//! panels, im2col convolutions, batched inference) a thread spawned or a
//! packing buffer allocated per `(jj, kk)` macro-iteration costs more
//! than the arithmetic. So the parallel runtime is a process-wide pool
//! of persistent workers and per-caller-thread buffer arenas:
//!
//! - **[`WorkerPool`]**: lazily started, detached worker threads parked
//!   on an MPMC channel — after polling it for two milliseconds, so
//!   back-to-back calls find their workers awake. A GEMM call enqueues
//!   one *job* per grid cell
//!   (or per static band) and workers race to pull them — dynamic
//!   scheduling that load-balances ragged tails, falling back to the
//!   static contiguous-band assignment of [`crate::parallel::partition_rows`]
//!   when the blocks divide evenly. Steady state spawns **zero** threads.
//! - **2-D task grid** (DESIGN.md §13): each `(jj, kk)` epoch splits
//!   into cells `(mc-row-block) × (nr-aligned column chunk)`. The
//!   column split (`n_split`, chosen by [`crate::dispatch`]) gives
//!   skinny-m/fat-n shapes enough cells to occupy every worker: cells
//!   share the one packed (or [`PrepackedB`]-cached) panel and each
//!   computes its own whole-sliver range of it
//!   ([`crate::gebp::gebp_slivers`]). `n_split == 1` is exactly the
//!   historical M-band schedule.
//! - **[`GemmArena`]**: a thread-local free list of [`BlockSlot`]s
//!   (packed-A buffer + C staging buffer) and packed-B panels, recycled
//!   across `mc`-blocks, macro-iterations, GEMM calls and batch entries.
//!   Steady state performs **zero** packing-buffer allocations.
//!
//! ## Ownership-transfer epochs
//!
//! Persistent workers outlive any one GEMM call, so (in safe Rust) the
//! closures they execute cannot borrow the caller's matrices. The
//! runtime therefore splits each `(jj, kk)` macro-iteration into an
//! *epoch* built only from owned data:
//!
//! 1. the **caller** packs the shared B panel into a pool-recycled
//!    buffer and wraps it in an [`Arc`];
//! 2. per `mc`-block, the caller packs A into a recycled [`BlockSlot`]
//!    (which also stages that block's rows of the C panel) and sends the
//!    slot — owned — through the job channel;
//! 3. **workers** run GEBP on the slot's owned buffers against the
//!    shared panel and send the slot back on a per-call done channel;
//! 4. the caller *helps drain the queue* while waiting at the epoch
//!    barrier, then reclaims the panel via [`Arc::try_unwrap`].
//!
//! Packing is thus pipelined against worker compute (the caller
//! dispatches each block as soon as it is packed), in place of the
//! paper's pack-everything-then-barrier. C blocks are staged in once
//! per `jj` panel, accumulate across all `kk` epochs and are written
//! back once, which keeps the floating-point accumulation order — and
//! therefore every output bit — identical to the serial path.
//!
//! ## Fault tolerance (DESIGN.md §10)
//!
//! The paper assumes every thread finishes its band; this runtime does
//! not. Failures are contained at the block level and the epoch always
//! completes:
//!
//! - **Worker panics**: each block run executes under `catch_unwind`;
//!   the slot comes back flagged, the caller re-stages the block's rows
//!   from C (untouched until the panel's `stage_out`) and recomputes all
//!   epochs so far serially — bit-identical, because every per-element
//!   accumulation is replayed in the same order with the same kernel
//!   calls. Only a panicking *retry* surfaces as
//!   [`GemmError::WorkerFault`].
//! - **Dead workers**: every worker holds a guard that records its death;
//!   [`WorkerPool::ensure_workers`] (called at every epoch start)
//!   respawns up to the wanted count. [`WorkerPool::status`] exposes the
//!   live count, deaths, respawns and faults contained.
//! - **Stalled epochs**: with an `epoch_timeout` configured, the caller
//!   stops waiting at the deadline, recomputes the missing blocks
//!   serially from C (same bit-identical replay), finishes the call
//!   inline and reports [`GemmError::EpochTimeout`]. Late completions
//!   from an abandoned epoch carry a stale sequence number and are
//!   recycled, never mixed into a newer epoch.
//! - **Allocation failures**: staging and packing buffers grow with
//!   `try_reserve`; on failure the runtime degrades — smaller packing
//!   chunks (bit-identical: each (A-sliver, B-sliver) pair still gets
//!   exactly one kernel call per epoch), or a serial walk straight on C
//!   — and only reports [`GemmError::AllocFailure`] when even the
//!   minimal chunk cannot be allocated.

#![forbid(unsafe_code)]

use crate::gebp::gebp_slivers;
use crate::matrix::{MatrixView, MatrixViewMut};
use crate::microkernel::KernelSet;
use crate::pack::{PackedA, PackedB};
use crate::prepack::{PackCache, PrepackedB};
use crate::scalar::Scalar;
use crate::telemetry::{self, Phase, RT};
use crate::tile::TileMut;
use crate::{GemmError, Transpose};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use perfmodel::cacheblock::BlockSizes;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How a GEMM call executes layer 3.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Single-threaded on the calling thread, no staging copies.
    #[default]
    Serial,
    /// The persistent worker pool with `n`-way parallelism (the calling
    /// thread participates, so `Pool(n)` keeps at most `n − 1` workers
    /// busy plus itself).
    Pool(usize),
}

impl Parallelism {
    /// Idiomatic mapping from a BLAS-style thread count: `n <= 1` is
    /// [`Parallelism::Serial`], anything larger uses the pool.
    #[must_use]
    pub fn from_threads(n: usize) -> Self {
        if n <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Pool(n)
        }
    }

    /// The parallel degree: how many threads participate in layer 3.
    #[must_use]
    pub fn degree(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Pool(n) => n.max(1),
        }
    }

    /// Reject the degenerate `Pool(0)`: the checked entry points'
    /// thread-count test.
    pub fn validate(self) -> Result<(), GemmError> {
        match self {
            Parallelism::Pool(0) => Err(GemmError::BadConfig("thread count must be positive")),
            _ => Ok(()),
        }
    }
}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Lifecycle counters shared between a [`WorkerPool`] and its worker
/// threads (the workers outlive the pool value only during the brief
/// drain after a shard is retired, so the counters live behind an
/// `Arc`). Per-instance, so shards report their own health instead of
/// aliasing every failure domain onto one set of process totals.
struct PoolShared {
    /// Live worker threads (decremented by a worker's drop guard).
    alive: AtomicUsize,
    /// Workers of *this* pool that exited their loop.
    deaths: AtomicU64,
    /// Replacement workers spawned for this pool's dead ones.
    respawns: AtomicU64,
    /// Worker spawn attempts for this pool that failed.
    spawn_failures: AtomicU64,
    /// Set when the owning pool is dropped: worker exits stop counting
    /// as deaths (a retired shard winding down is not a fault).
    retired: AtomicBool,
}

impl PoolShared {
    fn new() -> Arc<PoolShared> {
        Arc::new(PoolShared {
            alive: AtomicUsize::new(0),
            deaths: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            spawn_failures: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        })
    }
}

/// A pool of persistent layer-3 workers.
///
/// Workers are detached threads parked on the job channel; they are
/// spawned lazily by [`WorkerPool::ensure_workers`], which also
/// respawns replacements for any that died. Jobs are pure compute over
/// owned buffers, executed under `catch_unwind`, which keeps the
/// caller's help-while-waiting drain loop deadlock-free and a panicking
/// job from taking a worker (or the process) down with it.
///
/// Pools are **multi-instance**: [`WorkerPool::global`] is the default
/// process-wide pool every `gemm()` call uses, and
/// [`WorkerPool::new_shard`] creates an independent pool with its own
/// workers, job channel and health counters — an isolated failure
/// domain (a panic-storm or stall in one shard never delays another).
/// [`with_pool`] routes the pooled runtime of everything in a closure
/// to a specific shard; the service layer (`crate::service`) uses this
/// to give tenants separate shards.
pub struct WorkerPool {
    injector: Sender<Task>,
    stealer: Receiver<Task>,
    shared: Arc<PoolShared>,
    /// Monotonic id source for worker thread names.
    spawn_seq: AtomicUsize,
    grow: Mutex<()>,
    /// Shard label baked into worker thread names (empty = global pool).
    label: String,
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Runs for shards only (the global pool lives in a static).
        // Marking the pool retired first means the worker exits that
        // follow — their `iter()` ends when `injector` drops right
        // after this — are a clean wind-down, not deaths.
        self.shared.retired.store(true, Ordering::Release);
    }
}

/// Health snapshot of the pool runtime (see [`WorkerPool::status`]):
/// the observability half of the fault-tolerance layer.
///
/// Not `Eq`: [`PoolStatus::last_dispatch`] carries the dispatcher's
/// predicted timings as `f64`s.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolStatus {
    /// Worker threads currently alive.
    pub workers_alive: usize,
    /// Worker threads started over the pool's lifetime.
    pub workers_started: u64,
    /// Workers that exited their loop (panic containment keeps panicking
    /// workers alive, so deaths normally stay zero).
    pub deaths: u64,
    /// Replacement workers spawned for dead ones.
    pub respawns: u64,
    /// Worker spawn attempts that failed (the pool runs smaller; the
    /// caller's drain loop still guarantees progress).
    pub spawn_failures: u64,
    /// Layer-3 epochs served by the pool.
    pub epochs_served: u64,
    /// Blocks whose worker panicked or went missing and were recomputed
    /// serially by the caller.
    pub faults_contained: u64,
    /// Epochs abandoned at the watchdog deadline.
    pub timeouts: u64,
    /// The most recent shape-adaptive dispatch decision (shape, chosen
    /// runtime, predicted vs measured time) — `None` until a call runs
    /// with a non-`Fixed` [`crate::dispatch::DispatchMode`].
    pub last_dispatch: Option<crate::dispatch::DispatchDecision>,
}

/// Health snapshot of the global pool ([`WorkerPool::status`]).
#[must_use]
pub fn status() -> PoolStatus {
    WorkerPool::global().status()
}

/// Worker-loop drop guard: records the death no matter how the loop
/// ends, so [`WorkerPool::ensure_workers`] knows to respawn. Exits of a
/// retired shard's workers are a clean wind-down, not deaths.
struct WorkerGuard(Arc<PoolShared>);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        // The death before the vacancy: `ensure_workers` acquires `alive`
        // and only then compares deaths with respawns, so a health check
        // that sees the free slot also sees why it is free. The other
        // order let a caller whose next epoch started inside the gap
        // refill the slot without counting a respawn.
        if !self.0.retired.load(Ordering::Acquire) {
            self.0.deaths.fetch_add(1, Ordering::Relaxed);
            RT.deaths.fetch_add(1, Ordering::Relaxed);
        }
        self.0.alive.fetch_sub(1, Ordering::AcqRel);
    }
}

/// How long an idle pool thread polls its channel before it parks on it.
///
/// Restarting a parked thread costs a futex wake, and on a virtual CPU
/// that went idle meanwhile the wake also waits for the host to schedule
/// that CPU back in: tens of microseconds on a quiet host, up to a
/// millisecond on a busy one, and different from run to run. Against the
/// 27 ms of a pooled 512³ call on the portable kernel that was nothing;
/// against the 5 ms it takes on the SIMD kernels it is what made ten runs
/// spread over 10 % (EXPERIMENTS.md, "Steadying the pooled path"). So a
/// worker stays runnable across the serial stretch between two epochs
/// (stage-out, the caller's own code, stage-in, the B pack: about 1.3 ms
/// for that shape), and the caller across the tail of a worker's band.
/// The poll yields on every turn, so on an oversubscribed host whoever
/// has real work gets the processor.
const POLL_BEFORE_PARK: Duration = Duration::from_millis(2);

/// Poll `rx` until it holds a message or `limit` has passed. `true` when
/// a message is waiting — which another receiver may still take first,
/// so the caller follows up with a blocking receive either way.
fn poll_ready<T>(rx: &Receiver<T>, limit: Duration) -> bool {
    let start = Instant::now();
    loop {
        if !rx.is_empty() {
            return true;
        }
        if start.elapsed() >= limit {
            return false;
        }
        std::thread::yield_now();
    }
}

fn worker_main(stealer: Receiver<Task>, shared: Arc<PoolShared>) {
    let _guard = WorkerGuard(shared);
    loop {
        poll_ready(&stealer, POLL_BEFORE_PARK);
        let Ok(task) = stealer.recv() else {
            break; // the pool is gone (a retired shard's workers leave here)
        };
        // Containment: a panicking job must not kill the worker (nor
        // reach the detached thread boundary and abort the process).
        let _ = catch_unwind(AssertUnwindSafe(task));
        if crate::faults::take_worker_kill() {
            break; // injected death: exercised by the respawn tests
        }
    }
}

thread_local! {
    /// Shard override installed by [`with_pool`]: when set, the pooled
    /// runtime on this thread submits to the shard instead of the
    /// global pool.
    static CURRENT_POOL: RefCell<Option<Arc<WorkerPool>>> = const { RefCell::new(None) };
}

/// Run `f` with every pooled GEMM on this thread routed to `pool`
/// instead of the global pool. Nests (the previous override is
/// restored on exit) and is panic-safe via a restore guard.
pub fn with_pool<R>(pool: &Arc<WorkerPool>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<WorkerPool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_POOL.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT_POOL.with(|c| c.borrow_mut().replace(Arc::clone(pool)));
    let _restore = Restore(prev);
    f()
}

/// The shard override installed by [`with_pool`] on this thread, if any.
fn current_pool_override() -> Option<Arc<WorkerPool>> {
    CURRENT_POOL.with(|c| c.borrow().clone())
}

impl WorkerPool {
    /// The lazily-initialized process-wide pool.
    #[must_use]
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let (injector, stealer) = channel::unbounded();
            WorkerPool {
                injector,
                stealer,
                shared: PoolShared::new(),
                spawn_seq: AtomicUsize::new(0),
                grow: Mutex::new(()),
                label: String::new(),
            }
        })
    }

    /// Create an independent pool shard: its own workers, job channel
    /// and health counters — an isolated failure domain. Workers are
    /// named `dgemm-pool-<label>-<id>` (the `dgemm-pool-` prefix keeps
    /// the fault-injection sites and telemetry attribution working).
    ///
    /// Dropping the last `Arc` retires the shard: the job channel
    /// disconnects and its workers exit cleanly (not counted as
    /// deaths).
    #[must_use]
    pub fn new_shard(label: &str) -> Arc<WorkerPool> {
        let (injector, stealer) = channel::unbounded();
        Arc::new(WorkerPool {
            injector,
            stealer,
            shared: PoolShared::new(),
            spawn_seq: AtomicUsize::new(0),
            grow: Mutex::new(()),
            label: label.to_owned(),
        })
    }

    /// Worker threads currently alive.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.alive.load(Ordering::Acquire)
    }

    /// Health snapshot: live workers now plus lifetime totals. The
    /// worker lifecycle counters (started/deaths/respawns/spawn
    /// failures) are **per pool instance** — a shard reports its own
    /// failure domain. The epoch counters (epochs served, faults
    /// contained, timeouts) are process-wide totals from the telemetry
    /// runtime counters, which [`crate::telemetry::reset`] never
    /// zeroes.
    #[must_use]
    pub fn status(&self) -> PoolStatus {
        let rt = crate::telemetry::snapshot().runtime;
        let alive = self.workers();
        let deaths = self.shared.deaths.load(Ordering::Relaxed);
        PoolStatus {
            workers_alive: alive,
            workers_started: alive as u64 + deaths,
            deaths,
            respawns: self.shared.respawns.load(Ordering::Relaxed),
            spawn_failures: self.shared.spawn_failures.load(Ordering::Relaxed),
            epochs_served: rt.epochs_served(),
            faults_contained: rt.faults_contained,
            timeouts: rt.timeouts,
            last_dispatch: crate::dispatch::last_decision(),
        }
    }

    /// Upper bound on pool size: callers participate too, so there is
    /// no point holding more workers than a small multiple of the
    /// hardware concurrency even if callers over-subscribe. Also the
    /// clamp applied to absurd `DGEMM_NUM_THREADS` values.
    #[must_use]
    pub fn max_workers() -> usize {
        static CAP: OnceLock<usize> = OnceLock::new();
        *CAP.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .saturating_mul(4)
        })
    }

    /// Grow the pool back to at least `want` live workers (clamped to
    /// [`WorkerPool::max_workers`]), respawning replacements for any
    /// that died. Idempotent and cheap once satisfied: the fast path is
    /// one atomic load — called at every epoch start as the health
    /// check. Spawn failures are counted, not fatal: the pool simply
    /// runs smaller and the caller's drain loop guarantees progress.
    pub fn ensure_workers(&self, want: usize) {
        // Fast path first — one atomic load, no clamp: this runs at
        // every epoch start as the dead-worker health check.
        if self.workers() >= want {
            return;
        }
        let want = want.min(Self::max_workers());
        if self.workers() >= want {
            return;
        }
        let _guard = self.grow.lock().unwrap_or_else(PoisonError::into_inner);
        let have = self.workers();
        for _ in have..want {
            if crate::faults::fail_spawn() {
                self.shared.spawn_failures.fetch_add(1, Ordering::Relaxed);
                RT.spawn_failures.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let id = self.spawn_seq.fetch_add(1, Ordering::Relaxed);
            let name = if self.label.is_empty() {
                format!("dgemm-pool-{id}")
            } else {
                format!("dgemm-pool-{}-{id}", self.label)
            };
            let stealer = self.stealer.clone();
            let shared = Arc::clone(&self.shared);
            match std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_main(stealer, shared))
            {
                Ok(_) => {
                    self.shared.alive.fetch_add(1, Ordering::AcqRel);
                    let deaths = self.shared.deaths.load(Ordering::Relaxed);
                    if deaths > self.shared.respawns.load(Ordering::Relaxed) {
                        self.shared.respawns.fetch_add(1, Ordering::Relaxed);
                        RT.respawns.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    self.shared.spawn_failures.fetch_add(1, Ordering::Relaxed);
                    RT.spawn_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn submit(&self, task: Task) {
        RT.tasks.fetch_add(1, Ordering::Relaxed);
        // The pool keeps a receiver alive forever, so send cannot fail;
        // if it somehow does, degrade to running the job inline rather
        // than losing it (its done message keeps the barrier sound).
        if let Err(channel::SendError(task)) = self.injector.send(task) {
            let _ = catch_unwind(AssertUnwindSafe(task));
        }
    }

    /// Pop one queued job and run it on the current thread. Used by
    /// callers waiting at an epoch barrier so the queue drains even when
    /// every worker is busy (including when the pool has zero workers).
    /// Panics are contained exactly as on a worker.
    pub fn try_run_one(&self) -> bool {
        match self.stealer.try_recv() {
            Ok(task) => {
                telemetry::count_steal();
                let _ = catch_unwind(AssertUnwindSafe(task));
                true
            }
            Err(_) => false,
        }
    }
}

/// One grid cell's worth of owned working memory: the packed-A buffer
/// plus the staged sub-block of the current C panel. Slots are recycled
/// through [`GemmArena`] and travel caller → worker → caller by value.
#[derive(Debug)]
pub struct BlockSlot<T: Scalar> {
    pa: PackedA<T>,
    /// Staged `mc_eff × ncols` C cell, column-major with `ld = mc_eff`.
    staging: Vec<T>,
    /// Which batch entry this cell belongs to.
    entry: usize,
    /// First row of `op(A)` / C covered by this cell.
    row0: usize,
    /// Rows covered (`<= mc`).
    mc_eff: usize,
    /// First column of the cell *within its `jj` panel* (sliver-aligned:
    /// a multiple of `nr`, so the cell addresses the shared panel as a
    /// whole-sliver range). 0 in 1-D (M-band) mode.
    col0: usize,
    /// Columns covered (`<= nc_eff`; all of them in 1-D mode).
    ncols: usize,
}

impl<T: Scalar> BlockSlot<T> {
    /// The slot's packed-A buffer — the serial path borrows it as its
    /// hoisted per-call block buffer.
    pub(crate) fn pa_mut(&mut self) -> &mut PackedA<T> {
        &mut self.pa
    }
}

/// Thread-local free lists of packing buffers, so steady-state GEMM
/// calls allocate nothing: block slots and B panels are taken at the
/// start of a panel/epoch and returned when it completes. The serial
/// path draws its (single) hoisted packed-A/packed-B pair from the same
/// arena.
#[derive(Debug, Default)]
pub struct GemmArena<T: Scalar> {
    slots: Vec<BlockSlot<T>>,
    panels: Vec<PackedB<T>>,
    fresh: u64,
}

impl<T: Scalar> GemmArena<T> {
    fn new() -> Self {
        GemmArena {
            slots: Vec::new(),
            panels: Vec::new(),
            fresh: 0,
        }
    }

    /// Buffers constructed from scratch (cold path). Stable across calls
    /// once the arena has warmed up on a shape — the steady-state
    /// zero-allocation criterion the tests assert.
    #[must_use]
    pub fn fresh_buffers(&self) -> u64 {
        self.fresh
    }

    pub(crate) fn take_slot(&mut self, mr: usize) -> BlockSlot<T> {
        match self.slots.pop() {
            Some(mut slot) => {
                telemetry::count_arena_hit();
                slot.pa.retarget(mr);
                slot
            }
            None => {
                self.fresh += 1;
                telemetry::count_arena_fresh();
                BlockSlot {
                    pa: PackedA::new(mr),
                    staging: Vec::new(),
                    entry: 0,
                    row0: 0,
                    mc_eff: 0,
                    col0: 0,
                    ncols: 0,
                }
            }
        }
    }

    pub(crate) fn put_slot(&mut self, slot: BlockSlot<T>) {
        self.slots.push(slot);
    }

    pub(crate) fn take_panel(&mut self, nr: usize) -> PackedB<T> {
        match self.panels.pop() {
            Some(mut panel) => {
                telemetry::count_arena_hit();
                panel.retarget(nr);
                panel
            }
            None => {
                self.fresh += 1;
                telemetry::count_arena_fresh();
                PackedB::new(nr)
            }
        }
    }

    pub(crate) fn put_panel(&mut self, panel: PackedB<T>) {
        self.panels.push(panel);
    }
}

thread_local! {
    static ARENA_F64: RefCell<GemmArena<f64>> = RefCell::new(GemmArena::new());
    static ARENA_F32: RefCell<GemmArena<f32>> = RefCell::new(GemmArena::new());
}

/// A [`Scalar`] with a thread-local [`GemmArena`] (thread-locals cannot
/// be generic, so each element type declares its own).
pub trait PoolScalar: Scalar {
    /// Run `f` with this thread's arena. Re-entrant calls (a GEMM issued
    /// from inside another GEMM's packing) fall back to a throwaway
    /// arena instead of aliasing the borrowed one.
    fn with_arena<R>(f: impl FnOnce(&mut GemmArena<Self>) -> R) -> R;

    /// The process-wide pre-packed-B cache for this element type
    /// (statics cannot be generic, so each type declares its own).
    /// [`crate::gemm::GemmConfig::with_pack_cache`] routes GEMMs
    /// through it.
    fn pack_cache() -> &'static PackCache<Self>;
}

macro_rules! impl_pool_scalar {
    ($t:ty, $tls:ident) => {
        impl PoolScalar for $t {
            fn with_arena<R>(f: impl FnOnce(&mut GemmArena<Self>) -> R) -> R {
                $tls.with(|cell| match cell.try_borrow_mut() {
                    Ok(mut arena) => f(&mut arena),
                    Err(_) => f(&mut GemmArena::new()),
                })
            }

            fn pack_cache() -> &'static PackCache<Self> {
                static CACHE: PackCache<$t> = PackCache::new();
                &CACHE
            }
        }
    };
}

impl_pool_scalar!(f64, ARENA_F64);
impl_pool_scalar!(f32, ARENA_F32);

/// The `(col0, ncols)` column chunks of one `jj` panel for an `n_split`-way
/// grid: whole-sliver chunks (every `col0` is a multiple of `nr`) of as
/// equal a sliver count as possible, the last one ragged. `n_split == 1`
/// yields the single full-width chunk of the historical M-band schedule;
/// a split wider than the panel's sliver count is clamped (fewer chunks
/// than asked is fine — the dispatcher treats the grid as best-effort).
pub(crate) fn grid_cols(nc_eff: usize, nr: usize, n_split: usize) -> Vec<(usize, usize)> {
    let nr = nr.max(1);
    let slivers = nc_eff.div_ceil(nr).max(1);
    let chunks = n_split.clamp(1, slivers);
    let per = slivers.div_ceil(chunks);
    let mut out = Vec::with_capacity(chunks);
    let mut s = 0usize;
    while s * nr < nc_eff {
        let col0 = s * nr;
        let ncols = (per * nr).min(nc_eff - col0);
        out.push((col0, ncols));
        s += per;
    }
    out
}

/// Identity of one grid cell within a `jj` panel, kept by the caller so
/// cells lost to a watchdog timeout can be identified and recomputed.
#[derive(Clone, Copy)]
struct CellId {
    entry: usize,
    row0: usize,
    col0: usize,
    mc_eff: usize,
    ncols: usize,
}

/// Epoch-barrier message: a slot coming back from a worker.
struct Done<T: Scalar> {
    slot: BlockSlot<T>,
    /// Epoch sequence number: dones from an epoch abandoned at the
    /// watchdog deadline arrive late and must not count toward (or leak
    /// slots into) a newer epoch's barrier.
    seq: u64,
    /// The block run panicked; its staging is unspecified and the
    /// caller must recover it from C.
    failed: bool,
}

/// Returns every slot of a job run to the caller even if the run loop
/// itself unwinds, so the barrier can never deadlock on a lost done
/// message. Finished slots are sent with their recorded panic flag;
/// anything still in `todo` is reported failed.
struct RunGuard<T: Scalar> {
    todo: Vec<BlockSlot<T>>,
    finished: Vec<(BlockSlot<T>, bool)>,
    tx: Sender<Done<T>>,
    seq: u64,
}

impl<T: Scalar> Drop for RunGuard<T> {
    fn drop(&mut self) {
        for (slot, failed) in self.finished.drain(..) {
            let _ = self.tx.send(Done {
                slot,
                seq: self.seq,
                failed,
            });
        }
        for slot in self.todo.drain(..) {
            let _ = self.tx.send(Done {
                slot,
                seq: self.seq,
                failed: true,
            });
        }
    }
}

/// GEBP one staged cell against the shared panel (the pool-job body).
/// The cell computes only its own whole-sliver column range of the
/// panel; in 1-D mode that range is the full panel.
fn run_block<T: Scalar, K: KernelSet<T>>(
    kernel: K,
    alpha: T,
    slot: &mut BlockSlot<T>,
    panel: &PackedB<T>,
) {
    crate::faults::slow_job_delay();
    crate::faults::panic_in_job();
    let mc_eff = slot.mc_eff;
    let ncols = slot.ncols;
    let s0 = slot.col0 / panel.nr().max(1);
    let mut tile = TileMut::from_slice(mc_eff, ncols, mc_eff.max(1), &mut slot.staging);
    gebp_slivers(kernel, alpha, &slot.pa, panel, s0, ncols, &mut tile);
}

/// Enqueue one job covering `slots` (one slot in dynamic mode, a whole
/// band in static mode). Each block runs under `catch_unwind`; dones —
/// flagged on panic — are posted only after the job's reference to the
/// shared panel is released, so the caller's `Arc::try_unwrap` at the
/// barrier reclaims the buffer for the arena instead of leaking it to
/// a plain drop (which would cost a fresh panel allocation per epoch).
#[allow(clippy::too_many_arguments)]
fn submit_run<T: PoolScalar, K: KernelSet<T>>(
    pool: &WorkerPool,
    kernel: K,
    alpha: T,
    slots: Vec<BlockSlot<T>>,
    panel: Arc<PackedB<T>>,
    tx: Sender<Done<T>>,
    seq: u64,
) {
    // Capture the caller's request trace context (if any) so worker-side
    // phase spans and fault events attribute to the request that
    // submitted the epoch, not to the worker thread.
    let trace_ctx = crate::trace::capture();
    pool.submit(Box::new(move || {
        let _trace = crate::trace::adopt(trace_ctx);
        let cap = slots.len();
        let mut guard = RunGuard {
            todo: slots,
            finished: Vec::with_capacity(cap),
            tx,
            seq,
        };
        telemetry::set_gepp(seq);
        while let Some(mut slot) = guard.todo.pop() {
            telemetry::set_cell(slot.row0, slot.col0);
            let ok = catch_unwind(AssertUnwindSafe(|| {
                run_block(kernel, alpha, &mut slot, &panel);
            }))
            .is_ok();
            guard.finished.push((slot, !ok));
        }
        // Release the shared panel before the guard signals done.
        drop(panel);
        drop(guard);
    }));
}

/// What [`drain_epoch`] observed besides the cleanly returned slots.
struct EpochOutcome<T: Scalar> {
    /// Slots whose block run panicked: staging unspecified, recover
    /// from C.
    failed: Vec<BlockSlot<T>>,
    /// Slots from an abandoned earlier epoch (stale sequence number):
    /// recycle, never use.
    stale: Vec<BlockSlot<T>>,
    /// The watchdog deadline expired before every done arrived.
    timed_out: bool,
}

/// Collect this epoch's done messages, running queued jobs on this
/// thread while waiting (so the epoch completes even with zero
/// workers). Clean slots are pushed into `slots`; panicked and stale
/// ones are separated into the outcome. With a deadline, gives up at
/// its expiry instead of waiting forever on a stalled worker.
fn drain_epoch<T: Scalar>(
    pool: &WorkerPool,
    done_rx: &Receiver<Done<T>>,
    seq: u64,
    outstanding: usize,
    timeout: Option<Duration>,
    slots: &mut Vec<BlockSlot<T>>,
) -> EpochOutcome<T> {
    fn accept<T: Scalar>(
        done: Done<T>,
        seq: u64,
        slots: &mut Vec<BlockSlot<T>>,
        out: &mut EpochOutcome<T>,
    ) -> bool {
        if done.seq != seq {
            out.stale.push(done.slot);
            return false;
        }
        if done.failed {
            out.failed.push(done.slot);
        } else {
            slots.push(done.slot);
        }
        true
    }

    let deadline = timeout.map(|t| Instant::now() + t);
    let mut out = EpochOutcome {
        failed: Vec::new(),
        stale: Vec::new(),
        timed_out: false,
    };
    let mut received = 0usize;
    while received < outstanding {
        match done_rx.try_recv() {
            Ok(done) => {
                if accept(done, seq, slots, &mut out) {
                    received += 1;
                }
                continue;
            }
            Err(TryRecvError::Empty) => {}
            // The caller holds the sender, so this cannot happen; treat
            // it as a stall rather than asserting.
            Err(TryRecvError::Disconnected) => break,
        }
        if let Some(dl) = deadline {
            if Instant::now() >= dl {
                out.timed_out = true;
                break;
            }
        }
        if pool.try_run_one() {
            continue;
        }
        // Queue empty: the remaining jobs are running on other threads
        // and will post their dones; park until one arrives (or the
        // watchdog deadline passes). Only the park itself is barrier
        // time — jobs drained via try_run_one above record as compute.
        match deadline {
            None => {
                let parked = telemetry::span(Phase::Barrier);
                poll_ready(done_rx, POLL_BEFORE_PARK);
                let received_done = done_rx.recv();
                drop(parked);
                match received_done {
                    Ok(done) => {
                        if accept(done, seq, slots, &mut out) {
                            received += 1;
                        }
                    }
                    Err(_) => break,
                }
            }
            Some(dl) => {
                let now = Instant::now();
                let Some(remaining) = dl.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    out.timed_out = true;
                    break;
                };
                let parked = telemetry::span(Phase::Barrier);
                let polled = Instant::now();
                poll_ready(done_rx, remaining.min(POLL_BEFORE_PARK));
                let received_done =
                    done_rx.recv_timeout(remaining.saturating_sub(polled.elapsed()));
                drop(parked);
                match received_done {
                    Ok(done) => {
                        if accept(done, seq, slots, &mut out) {
                            received += 1;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        out.timed_out = true;
                        break;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
    }
    out
}

/// Copy the cell's rows/columns of the C panel into the slot's staging
/// buffer (the slot's `row0/mc_eff/col0/ncols` must be set). Fallible:
/// staging grows with `try_reserve`.
fn stage_in<T: Scalar>(
    slot: &mut BlockSlot<T>,
    c: &mut MatrixViewMut<'_, T>,
    jj: usize,
) -> Result<(), GemmError> {
    let mc_eff = slot.mc_eff;
    let ncols = slot.ncols;
    slot.staging.clear();
    if crate::faults::fail_alloc() || slot.staging.try_reserve(mc_eff * ncols).is_err() {
        return Err(GemmError::AllocFailure { what: "C staging" });
    }
    let mut band = c.sub_mut(slot.row0, jj + slot.col0, mc_eff, ncols);
    for j in 0..ncols {
        slot.staging.extend_from_slice(band.col_mut(j));
    }
    Ok(())
}

fn stage_out<T: Scalar>(slot: &BlockSlot<T>, c: &mut MatrixViewMut<'_, T>, jj: usize) {
    let mc_eff = slot.mc_eff;
    let mut band = c.sub_mut(slot.row0, jj + slot.col0, mc_eff, slot.ncols);
    for j in 0..slot.ncols {
        band.col_mut(j)
            .copy_from_slice(&slot.staging[j * mc_eff..(j + 1) * mc_eff]);
    }
}

/// Pack one `mc_eff × kc_eff` block of `op(A)` fallibly and GEBP it
/// against the `(s0, cols)` whole-sliver column range of `panel`
/// (full width: `(0, panel.nc())`), degrading to halved row chunks
/// when the packing buffer cannot grow. Bit-identical to the one-shot
/// pack: every (A-sliver, B-sliver) pair still gets exactly one kernel
/// call with the same operand values, and each C element's
/// k-accumulation order is unchanged. `tile` is the `mc_eff × cols`
/// destination.
#[allow(clippy::too_many_arguments)]
fn gebp_block_resilient<T: Scalar, K: KernelSet<T>>(
    kernel: K,
    alpha: T,
    a: &MatrixView<'_, T>,
    transa: Transpose,
    row0: usize,
    kk: usize,
    mc_eff: usize,
    kc_eff: usize,
    pa: &mut PackedA<T>,
    panel: &PackedB<T>,
    s0: usize,
    cols: usize,
    tile: &mut TileMut<'_, T>,
) -> Result<(), GemmError> {
    crate::faults::panic_in_job();
    let mr = kernel.mr().max(1);
    let mut chunk = mc_eff;
    let mut r = 0usize;
    while r < mc_eff {
        let rows = chunk.min(mc_eff - r);
        match pa.try_pack(a, transa, row0 + r, kk, rows, kc_eff) {
            Ok(()) => {
                let mut sub = tile.sub_tile(r, 0, rows, cols);
                gebp_slivers(kernel, alpha, pa, panel, s0, cols, &mut sub);
                r += rows;
            }
            Err(e) => {
                if chunk <= mr {
                    return Err(e);
                }
                chunk = (chunk / 2).max(mr);
            }
        }
    }
    Ok(())
}

/// Pack the `kc_eff × nc_eff` B panel fallibly, degrading to halved
/// sliver-column chunks when the buffer cannot grow, and run `each`
/// once per packed chunk with the chunk's column offset. Bit-identical
/// for the same reason as [`gebp_block_resilient`].
#[allow(clippy::too_many_arguments)]
fn pack_panel_resilient<T: Scalar>(
    panel: &mut PackedB<T>,
    b: &MatrixView<'_, T>,
    transb: Transpose,
    kk: usize,
    jj: usize,
    kc_eff: usize,
    nc_eff: usize,
    nr: usize,
    mut each: impl FnMut(usize, &PackedB<T>) -> Result<(), GemmError>,
) -> Result<(), GemmError> {
    let nr = nr.max(1);
    let mut chunk = nc_eff;
    let mut c0 = 0usize;
    while c0 < nc_eff {
        let cols = chunk.min(nc_eff - c0);
        match panel.try_pack(b, transb, kk, jj + c0, kc_eff, cols) {
            Ok(()) => {
                each(c0, panel)?;
                c0 += cols;
            }
            Err(e) => {
                if chunk <= nr {
                    return Err(e);
                }
                chunk = (chunk / 2).max(nr);
            }
        }
    }
    Ok(())
}

/// Run one epoch entirely on the calling thread (no pool): used when
/// the shared panel cannot be allocated at full size and after a
/// watchdog timeout put the call into degraded mode. Returns the
/// indices of slots whose block run panicked (their staging is
/// unspecified; the caller recovers them from C).
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn run_epoch_inline<T: PoolScalar, K: KernelSet<T>>(
    kernel: K,
    alpha: T,
    a_batch: &[MatrixView<'_, T>],
    transa: Transpose,
    b: &MatrixView<'_, T>,
    transb: Transpose,
    slots: &mut [BlockSlot<T>],
    panel: &mut PackedB<T>,
    kk: usize,
    kc_eff: usize,
    jj: usize,
) -> Result<Vec<usize>, GemmError> {
    let mut panicked = vec![false; slots.len()];
    // B is packed once per distinct cell column range (several mc-row
    // cells share one), sized to the range. Cells consume each packed
    // chunk full-width rather than sliver-addressing a shared panel:
    // resilient pack chunks may start mid-sliver, where a sliver range
    // cannot point.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for slot in slots.iter() {
        if !ranges.contains(&(slot.col0, slot.ncols)) {
            ranges.push((slot.col0, slot.ncols));
        }
    }
    for (col0, ncols) in ranges {
        pack_panel_resilient(
            panel,
            b,
            transb,
            kk,
            jj + col0,
            kc_eff,
            ncols,
            kernel.nr(),
            |c0, pchunk| {
                for (idx, slot) in slots.iter_mut().enumerate() {
                    if panicked[idx] || slot.col0 != col0 || slot.ncols != ncols {
                        continue;
                    }
                    let entry = slot.entry;
                    let row0 = slot.row0;
                    let mc_eff = slot.mc_eff;
                    let BlockSlot { pa, staging, .. } = slot;
                    let mut tile = TileMut::from_slice(mc_eff, ncols, mc_eff.max(1), staging);
                    let mut sub = tile.sub_tile(0, c0, mc_eff, pchunk.nc());
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        gebp_block_resilient(
                            kernel,
                            alpha,
                            &a_batch[entry],
                            transa,
                            row0,
                            kk,
                            mc_eff,
                            kc_eff,
                            pa,
                            pchunk,
                            0,
                            pchunk.nc(),
                            &mut sub,
                        )
                    }));
                    match result {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => return Err(e),
                        Err(_) => panicked[idx] = true,
                    }
                }
                Ok(())
            },
        )?;
    }
    Ok(panicked
        .iter()
        .enumerate()
        .filter_map(|(i, &p)| p.then_some(i))
        .collect())
}

/// Recompute one grid cell from scratch after a fault: re-stage its
/// rows/columns from C (untouched since the panel's `stage_in`) and
/// replay epochs `0..kk_end` serially, packing B only for the cell's
/// own column range — the same kernel calls in the same order as the
/// undamaged path, so the recovered cell is bit-identical. A panic
/// during the replay is the double fault reported as
/// [`GemmError::WorkerFault`].
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn recover_block<T: PoolScalar, K: KernelSet<T>>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    c: &mut MatrixViewMut<'_, T>,
    kernel: K,
    kc: usize,
    jj: usize,
    kk_end: usize,
    k: usize,
    slot: &mut BlockSlot<T>,
    panel: &mut PackedB<T>,
) -> Result<(), GemmError> {
    let _span = telemetry::span(Phase::Recovery);
    let entry = slot.entry;
    let row0 = slot.row0;
    let mc_eff = slot.mc_eff;
    let col0 = slot.col0;
    let ncols = slot.ncols;
    telemetry::set_cell(row0, col0);
    stage_in(slot, c, jj)?;
    let BlockSlot { pa, staging, .. } = slot;
    let mut kk = 0usize;
    while kk < kk_end {
        let kc_eff = kc.min(k - kk);
        pack_panel_resilient(
            panel,
            b,
            transb,
            kk,
            jj + col0,
            kc_eff,
            ncols,
            kernel.nr(),
            |c0, pchunk| {
                let mut tile = TileMut::from_slice(mc_eff, ncols, mc_eff.max(1), staging);
                let mut sub = tile.sub_tile(0, c0, mc_eff, pchunk.nc());
                let result = catch_unwind(AssertUnwindSafe(|| {
                    gebp_block_resilient(
                        kernel,
                        alpha,
                        a,
                        transa,
                        row0,
                        kk,
                        mc_eff,
                        kc_eff,
                        pa,
                        pchunk,
                        0,
                        pchunk.nc(),
                        &mut sub,
                    )
                }));
                match result {
                    Ok(r) => r,
                    Err(_) => Err(GemmError::WorkerFault { entry, row0 }),
                }
            },
        )?;
        kk += kc_eff;
    }
    Ok(())
}

/// Serial, allocation-resilient layers 1–3 for panels `jj0..` of every
/// batch entry, computed straight on C (no staging): the fallback when
/// staging memory is unavailable. Panels `0..jj0` must already be
/// complete. Bit-identical to the serial walk; a panic mid-block cannot
/// be recovered here (C rows are already partially updated) and is
/// reported as [`GemmError::WorkerFault`].
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn serial_tail<T: PoolScalar, K: KernelSet<T>>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a_batch: &[MatrixView<'_, T>],
    b: &MatrixView<'_, T>,
    c_batch: &mut [MatrixViewMut<'_, T>],
    kernel: K,
    blocks: BlockSizes,
    jj0: usize,
    arena: &mut GemmArena<T>,
) -> Result<(), GemmError> {
    let BlockSizes { kc, mc, nc, .. } = blocks;
    let mut slot = arena.take_slot(kernel.mr());
    let mut panel = arena.take_panel(kernel.nr());
    let mut result = Ok(());
    'entries: for (entry, c) in c_batch.iter_mut().enumerate() {
        let a = &a_batch[entry];
        let (m, k) = transa.apply_dims(a.rows(), a.cols());
        let n = c.cols();
        let mut jj = jj0;
        while jj < n {
            let nc_eff = nc.min(n - jj);
            let mut kk = 0usize;
            while kk < k {
                let kc_eff = kc.min(k - kk);
                let pa = slot.pa_mut();
                let r = pack_panel_resilient(
                    &mut panel,
                    b,
                    transb,
                    kk,
                    jj,
                    kc_eff,
                    nc_eff,
                    kernel.nr(),
                    |c0, pchunk| {
                        let mut view = c.sub_mut(0, jj + c0, m, pchunk.nc());
                        let ld = view.ld();
                        let mut tile = TileMut::from_slice(m, pchunk.nc(), ld, view.data_mut());
                        let mut ii = 0usize;
                        while ii < m {
                            let mc_eff = mc.min(m - ii);
                            let mut sub = tile.sub_tile(ii, 0, mc_eff, pchunk.nc());
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                gebp_block_resilient(
                                    kernel,
                                    alpha,
                                    a,
                                    transa,
                                    ii,
                                    kk,
                                    mc_eff,
                                    kc_eff,
                                    pa,
                                    pchunk,
                                    0,
                                    pchunk.nc(),
                                    &mut sub,
                                )
                            }));
                            match result {
                                Ok(Ok(())) => {}
                                Ok(Err(e)) => return Err(e),
                                Err(_) => return Err(GemmError::WorkerFault { entry, row0: ii }),
                            }
                            ii += mc_eff;
                        }
                        Ok(())
                    },
                );
                if let Err(e) = r {
                    result = Err(e);
                    break 'entries;
                }
                kk += kc_eff;
            }
            jj += nc_eff;
        }
    }
    arena.put_slot(slot);
    arena.put_panel(panel);
    result
}

/// Cold path of [`gemm_pooled`]: packed-A memory was unavailable at
/// full size, so the cell runs inline in smaller chunks against the
/// shared (or cached) panel, addressing its own whole-sliver column
/// range (still under `catch_unwind`). `Ok(true)` means the cell
/// completed; `Ok(false)` means it panicked and must be recovered
/// from C.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn run_slot_inline_chunked<T: PoolScalar, K: KernelSet<T>>(
    kernel: K,
    alpha: T,
    a: &MatrixView<'_, T>,
    transa: Transpose,
    kk: usize,
    kc_eff: usize,
    panel: &PackedB<T>,
    slot: &mut BlockSlot<T>,
) -> Result<bool, GemmError> {
    let row0 = slot.row0;
    let mc_eff = slot.mc_eff;
    let ncols = slot.ncols;
    let s0 = slot.col0 / panel.nr().max(1);
    let BlockSlot { pa, staging, .. } = slot;
    let mut tile = TileMut::from_slice(mc_eff, ncols, mc_eff.max(1), staging);
    let result = catch_unwind(AssertUnwindSafe(|| {
        gebp_block_resilient(
            kernel, alpha, a, transa, row0, kk, mc_eff, kc_eff, pa, panel, s0, ncols, &mut tile,
        )
    }));
    match result {
        Ok(Ok(())) => Ok(true),
        Ok(Err(e)) => Err(e),
        Err(_) => Ok(false),
    }
}

/// The scalar geometry of one epoch, bundled so the cold settle path
/// below keeps a readable signature.
#[derive(Clone, Copy)]
struct SettleCtx<T: Scalar> {
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    kc: usize,
    jj: usize,
    kk_end: usize,
    k: usize,
    epoch_timeout: Option<Duration>,
}

/// Cold path of [`gemm_pooled`]: the epoch ended with panicked, stale,
/// inline-failed, or missing grid cells (or the watchdog fired).
/// Recycles stale slots, recomputes every lost cell from C
/// bit-identically ([`recover_block`]), and records the soft error;
/// timeouts flip the call into degraded (inline) mode.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn settle_epoch_faults<T: PoolScalar, K: KernelSet<T>>(
    pool: &WorkerPool,
    arena: &mut GemmArena<T>,
    mut outcome: EpochOutcome<T>,
    mut inline_failures: Vec<usize>,
    slots: &mut Vec<BlockSlot<T>>,
    meta: &[CellId],
    total: usize,
    ctx: SettleCtx<T>,
    a_batch: &[MatrixView<'_, T>],
    b: &MatrixView<'_, T>,
    c_batch: &mut [MatrixViewMut<'_, T>],
    kernel: K,
    degraded: &mut bool,
    worst: &mut Option<GemmError>,
) -> Result<(), GemmError> {
    let SettleCtx {
        transa,
        transb,
        alpha,
        kc,
        jj,
        kk_end,
        k,
        epoch_timeout,
    } = ctx;
    // Watchdog attribution: everything settled after a fired deadline
    // (recovery included — it nests its own Recovery/PackX/Compute
    // spans) is watchdog aftermath.
    let _watchdog_span = outcome.timed_out.then(|| telemetry::span(Phase::Watchdog));
    for slot in outcome.stale.drain(..) {
        arena.put_slot(slot);
    }

    // Contained recovery: panicked blocks (from workers or inline runs)
    // are recomputed from C, bit-identically. Sort indices descending
    // so swap_remove stays valid.
    inline_failures.sort_unstable_by(|x, y| y.cmp(x));
    for idx in inline_failures {
        outcome.failed.push(slots.swap_remove(idx));
    }
    for mut slot in outcome.failed.drain(..) {
        let entry = slot.entry;
        let mut scratch = arena.take_panel(kernel.nr());
        let recovered = recover_block(
            transa,
            transb,
            alpha,
            &a_batch[entry],
            b,
            &mut c_batch[entry],
            kernel,
            kc,
            jj,
            kk_end,
            k,
            &mut slot,
            &mut scratch,
        );
        arena.put_panel(scratch);
        match recovered {
            Ok(()) => {
                RT.faults_contained.fetch_add(1, Ordering::Relaxed);
                crate::trace::health_event(
                    crate::trace::HealthEventKind::FaultContained,
                    crate::trace::current_id(),
                    slot.row0 as u64,
                    "worker panic contained; block recomputed serially",
                );
            }
            Err(e @ GemmError::WorkerFault { .. }) => {
                // Double fault: C is unspecified, but finish the call so
                // the pool stays consistent.
                *worst = Some(e);
            }
            Err(e) => return Err(e),
        }
        slots.push(slot);
    }

    // Timeout (or a lost done): identify grid cells that never came
    // back, recompute them from C in fresh slots, and go degraded for
    // the rest of the call.
    if slots.len() < total {
        let missing: Vec<CellId> = meta
            .iter()
            .filter(|cell| {
                !slots
                    .iter()
                    .any(|s| s.entry == cell.entry && s.row0 == cell.row0 && s.col0 == cell.col0)
            })
            .copied()
            .collect();
        if outcome.timed_out {
            RT.timeouts.fetch_add(1, Ordering::Relaxed);
            crate::trace::health_event(
                crate::trace::HealthEventKind::WatchdogFire,
                crate::trace::current_id(),
                missing.len() as u64,
                "epoch watchdog expired; missing blocks recomputed serially",
            );
            *degraded = true;
            if worst.is_none() {
                *worst = Some(GemmError::EpochTimeout {
                    timeout_ms: epoch_timeout
                        .map_or(0, |d| d.as_millis().min(u128::from(u64::MAX)) as u64),
                    missing_blocks: missing.len(),
                    workers_alive: pool.workers(),
                });
            }
        }
        for cell in missing {
            let entry = cell.entry;
            let mut slot = arena.take_slot(kernel.mr());
            slot.entry = entry;
            slot.row0 = cell.row0;
            slot.mc_eff = cell.mc_eff;
            slot.col0 = cell.col0;
            slot.ncols = cell.ncols;
            let mut scratch = arena.take_panel(kernel.nr());
            let recovered = recover_block(
                transa,
                transb,
                alpha,
                &a_batch[entry],
                b,
                &mut c_batch[entry],
                kernel,
                kc,
                jj,
                kk_end,
                k,
                &mut slot,
                &mut scratch,
            );
            arena.put_panel(scratch);
            match recovered {
                Ok(()) => {
                    RT.faults_contained.fetch_add(1, Ordering::Relaxed);
                    crate::trace::health_event(
                        crate::trace::HealthEventKind::FaultContained,
                        crate::trace::current_id(),
                        slot.row0 as u64,
                        "lost block recomputed serially after watchdog expiry",
                    );
                }
                Err(e @ GemmError::WorkerFault { .. }) => *worst = Some(e),
                Err(e) => return Err(e),
            }
            slots.push(slot);
        }
    }
    Ok(())
}

/// The pooled layers 1–3 driver, unified over single GEMMs (a batch of
/// one) and shared-B batches (all entries' blocks dispatched into the
/// same epoch, sharing one packed panel).
///
/// β must already be applied to every C; shapes must already be
/// validated (all `A_i` are `m×k` under `transa`, all `C_i` are `m×n`).
/// With `prepacked`, epochs ship the cached panel's `Arc` to the
/// workers instead of packing B — the panels must have been built for
/// exactly this `(transb, nr, kc, nc)` geometry.
///
/// `n_split` is the column-wise grid factor chosen by
/// [`crate::dispatch`]: each `jj` panel splits into up to `n_split`
/// whole-sliver column chunks ([`grid_cols`]) and every
/// `(entry, mc-block, chunk)` cell becomes its own schedulable job.
/// `n_split == 1` reproduces the historical M-band schedule exactly.
///
/// Faults are contained per grid cell (see the module docs): `Ok(())`
/// means C holds the bit-exact serial result, possibly via recovery;
/// [`GemmError::EpochTimeout`] means the same but an epoch stalled past
/// `epoch_timeout`; any other error means C is unspecified.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS gemm signature plus the batch
pub(crate) fn gemm_pooled<T: PoolScalar, K: KernelSet<T>>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a_batch: &[MatrixView<'_, T>],
    b: &MatrixView<'_, T>,
    c_batch: &mut [MatrixViewMut<'_, T>],
    kernel: K,
    blocks: BlockSizes,
    degree: usize,
    n_split: usize,
    epoch_timeout: Option<Duration>,
    prepacked: Option<&PrepackedB<T>>,
) -> Result<(), GemmError> {
    debug_assert_eq!(a_batch.len(), c_batch.len());
    let Some(first_a) = a_batch.first() else {
        return Ok(());
    };
    let (m, k) = transa.apply_dims(first_a.rows(), first_a.cols());
    let n = c_batch[0].cols();
    if m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    let BlockSizes { kc, mc, nc, .. } = blocks;
    let degree = degree.max(1);

    // Route to the shard installed by `with_pool`, if any; the global
    // pool otherwise. The override is an owned Arc so a retiring shard
    // stays alive for the duration of the call.
    let shard = current_pool_override();
    let pool: &WorkerPool = match shard.as_deref() {
        Some(p) => p,
        None => WorkerPool::global(),
    };
    pool.ensure_workers(degree.saturating_sub(1));
    let (done_tx, done_rx) = channel::unbounded::<Done<T>>();

    let soft_error = T::with_arena(|arena| -> Result<Option<GemmError>, GemmError> {
        // The soft error (timeout / contained-but-noteworthy) reported
        // after the call completes; hard errors return immediately.
        let mut worst: Option<GemmError> = None;
        // After a watchdog timeout the rest of the call runs inline:
        // the pool may hold a stalled worker and a second stall would
        // double the damage.
        let mut degraded = false;
        let mut seq: u64 = 0;
        let mut slots: Vec<BlockSlot<T>> = Vec::new();
        let mut jj = 0usize;
        while jj < n {
            let nc_eff = nc.min(n - jj);
            // The panel's column chunks: one full-width chunk in 1-D
            // mode, up to n_split whole-sliver chunks in grid mode.
            let col_chunks = grid_cols(nc_eff, kernel.nr(), n_split);

            // Stage in: one slot per (entry, mc-block, column chunk)
            // holds its cell of the C panel across every kk epoch, so
            // the accumulation order matches the serial path bit for
            // bit (cells cover disjoint C elements).
            let mut staged = true;
            'stage: for (entry, c) in c_batch.iter_mut().enumerate() {
                let mut ii = 0usize;
                while ii < m {
                    let mc_eff = mc.min(m - ii);
                    for &(col0, ncols) in &col_chunks {
                        let mut slot = arena.take_slot(kernel.mr());
                        slot.entry = entry;
                        slot.row0 = ii;
                        slot.mc_eff = mc_eff;
                        slot.col0 = col0;
                        slot.ncols = ncols;
                        if stage_in(&mut slot, c, jj).is_err() {
                            arena.put_slot(slot);
                            staged = false;
                            break 'stage;
                        }
                        slots.push(slot);
                    }
                    ii += mc_eff;
                }
            }
            if !staged {
                // Staging memory unavailable. Nothing of panels jj.. has
                // touched C yet, so fall back to the serial walk straight
                // on C for the rest of the call.
                for slot in slots.drain(..) {
                    arena.put_slot(slot);
                }
                serial_tail(
                    transa, transb, alpha, a_batch, b, c_batch, kernel, blocks, jj, arena,
                )?;
                return Ok(worst);
            }

            let total = slots.len();
            let workers = degree.min(total);
            // Static contiguous bands when the cells divide evenly
            // (the partition_rows assignment); otherwise dynamic: one
            // job per cell, workers race to pull them.
            let static_bands = workers > 1 && total.is_multiple_of(workers);
            // Cell identities for this panel, so cells lost to a
            // timeout can be identified and recomputed.
            let meta: Vec<CellId> = slots
                .iter()
                .map(|s| CellId {
                    entry: s.entry,
                    row0: s.row0,
                    col0: s.col0,
                    mc_eff: s.mc_eff,
                    ncols: s.ncols,
                })
                .collect();

            let mut kk = 0usize;
            while kk < k {
                let kc_eff = kc.min(k - kk);
                let kk_end = kk + kc_eff;
                seq += 1;
                telemetry::set_gepp(seq);
                if col_chunks.len() > 1 {
                    RT.grid_epochs.fetch_add(1, Ordering::Relaxed);
                }
                // Health check: respawn workers that died since the last
                // epoch (no-op fast path when everyone is alive).
                if !degraded {
                    pool.ensure_workers(degree.saturating_sub(1));
                }

                let mut inline_failures: Vec<usize> = Vec::new();
                let mut outcome = EpochOutcome {
                    failed: Vec::new(),
                    stale: Vec::new(),
                    timed_out: false,
                };

                // Panel for this epoch: a cached pre-packed tile when the
                // caller supplied one (no packing at all), else an arena
                // panel packed fresh. A degraded (post-timeout) call
                // skips the pool but can still run inline against the
                // cached tile.
                let cached = prepacked.map(|pp| pp.tile_range(jj, kk, &col_chunks));
                let shared: Option<Arc<PackedB<T>>> = if degraded {
                    None
                } else if let Some(arc) = cached {
                    Some(Arc::clone(arc))
                } else {
                    let mut panel = arena.take_panel(kernel.nr());
                    if panel.try_pack(b, transb, kk, jj, kc_eff, nc_eff).is_ok() {
                        Some(Arc::new(panel))
                    } else {
                        arena.put_panel(panel);
                        None
                    }
                };
                if let Some(panel) = shared {
                    if static_bands {
                        RT.static_epochs.fetch_add(1, Ordering::Relaxed);
                    } else {
                        RT.dynamic_epochs.fetch_add(1, Ordering::Relaxed);
                    }
                    let run_len = if static_bands { total / workers } else { 1 };
                    let mut run: Vec<BlockSlot<T>> = Vec::with_capacity(run_len);
                    let mut submitted = 0usize;
                    let mut inline_done: Vec<BlockSlot<T>> = Vec::new();
                    for mut slot in slots.drain(..) {
                        // The caller packs A (workers cannot read the
                        // borrowed operand); each job ships as soon as its
                        // cells are packed, pipelining pack against
                        // compute.
                        telemetry::set_cell(slot.row0, slot.col0);
                        let packed = slot.pa.try_pack(
                            &a_batch[slot.entry],
                            transa,
                            slot.row0,
                            kk,
                            slot.mc_eff,
                            kc_eff,
                        );
                        match packed {
                            Ok(()) => {
                                run.push(slot);
                                if run.len() == run_len {
                                    submitted += run.len();
                                    submit_run(
                                        pool,
                                        kernel,
                                        alpha,
                                        std::mem::replace(&mut run, Vec::with_capacity(run_len)),
                                        Arc::clone(&panel),
                                        done_tx.clone(),
                                        seq,
                                    );
                                }
                            }
                            Err(_) => {
                                // Packed-A memory unavailable at full
                                // size: compute this cell inline in
                                // smaller chunks against the shared
                                // panel.
                                if run_slot_inline_chunked(
                                    kernel,
                                    alpha,
                                    &a_batch[slot.entry],
                                    transa,
                                    kk,
                                    kc_eff,
                                    &panel,
                                    &mut slot,
                                )? {
                                    inline_done.push(slot);
                                } else {
                                    outcome.failed.push(slot);
                                }
                            }
                        }
                    }
                    if !run.is_empty() {
                        submitted += run.len();
                        submit_run(
                            pool,
                            kernel,
                            alpha,
                            run,
                            Arc::clone(&panel),
                            done_tx.clone(),
                            seq,
                        );
                    }

                    let drained =
                        drain_epoch(pool, &done_rx, seq, submitted, epoch_timeout, &mut slots);
                    outcome.failed.extend(drained.failed);
                    outcome.stale.extend(drained.stale);
                    outcome.timed_out = drained.timed_out;
                    slots.extend(inline_done);
                    // An epoch-packed panel is reclaimed into the arena
                    // here. A cached panel never is: the PrepackedB holds
                    // its own Arc for as long as the caller (and cache)
                    // do, so try_unwrap fails and the tile stays intact.
                    if let Ok(panel) = Arc::try_unwrap(panel) {
                        arena.put_panel(panel);
                    }
                } else if let Some(arc) = cached {
                    // Degraded mode with a cached tile: the panel is
                    // already packed, so run each block inline against it
                    // (never mutating or reclaiming it).
                    for (idx, slot) in slots.iter_mut().enumerate() {
                        telemetry::set_cell(slot.row0, slot.col0);
                        let ok = run_slot_inline_chunked(
                            kernel,
                            alpha,
                            &a_batch[slot.entry],
                            transa,
                            kk,
                            kc_eff,
                            arc,
                            slot,
                        )?;
                        if !ok {
                            inline_failures.push(idx);
                        }
                    }
                } else {
                    // Panel memory unavailable (or post-timeout degraded
                    // mode): run the whole epoch on this thread, packing
                    // B in sliver chunks if need be.
                    let mut panel = arena.take_panel(kernel.nr());
                    inline_failures = run_epoch_inline(
                        kernel, alpha, a_batch, transa, b, transb, &mut slots, &mut panel, kk,
                        kc_eff, jj,
                    )?;
                    arena.put_panel(panel);
                }

                // Anything beyond a clean full set of slots takes the
                // cold settle path; the healthy epoch skips it entirely.
                if outcome.timed_out
                    || !outcome.stale.is_empty()
                    || !outcome.failed.is_empty()
                    || !inline_failures.is_empty()
                    || slots.len() < total
                {
                    settle_epoch_faults(
                        pool,
                        arena,
                        outcome,
                        inline_failures,
                        &mut slots,
                        &meta,
                        total,
                        SettleCtx {
                            transa,
                            transb,
                            alpha,
                            kc,
                            jj,
                            kk_end,
                            k,
                            epoch_timeout,
                        },
                        a_batch,
                        b,
                        c_batch,
                        kernel,
                        &mut degraded,
                        &mut worst,
                    )?;
                }

                // Deterministic cell order for the next epoch's static
                // bands (dones arrive in completion order).
                slots.sort_unstable_by_key(|s| (s.entry, s.row0, s.col0));
                kk += kc_eff;
            }

            for slot in std::mem::take(&mut slots) {
                stage_out(&slot, &mut c_batch[slot.entry], jj);
                arena.put_slot(slot);
            }
            jj += nc_eff;
        }
        Ok(worst)
    })?;
    match soft_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_threads_mapping() {
        assert_eq!(Parallelism::from_threads(0), Parallelism::Serial);
        assert_eq!(Parallelism::from_threads(1), Parallelism::Serial);
        assert_eq!(Parallelism::from_threads(4), Parallelism::Pool(4));
    }

    #[test]
    fn degree_and_validate() {
        assert_eq!(Parallelism::Serial.degree(), 1);
        assert_eq!(Parallelism::Pool(8).degree(), 8);
        assert!(Parallelism::Pool(0).validate().is_err());
        assert!(Parallelism::Serial.validate().is_ok());
        assert!(Parallelism::Pool(2).validate().is_ok());
    }

    #[test]
    fn pool_runs_submitted_tasks() {
        let pool = WorkerPool::global();
        pool.ensure_workers(2);
        assert!(pool.workers() >= 2);
        let (tx, rx) = channel::unbounded();
        for i in 0..32 {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i).unwrap();
            }));
        }
        let mut got: Vec<i32> = (0..32).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn caller_drains_queue_without_workers() {
        // try_run_one lets a caller make progress on its own jobs even
        // if every worker is busy elsewhere.
        let pool = WorkerPool::global();
        let (tx, rx) = channel::unbounded();
        pool.submit(Box::new(move || {
            tx.send(7u32).unwrap();
        }));
        // Either a worker already took it, or we run it inline.
        while rx.try_recv().is_err() {
            pool.try_run_one();
        }
    }

    #[test]
    fn worker_survives_panicking_task() {
        let pool = WorkerPool::global();
        pool.ensure_workers(2);
        pool.submit(Box::new(|| panic!("injected: task panic containment test")));
        // Subsequent tasks are still served: no worker died, no queue
        // corruption. (The panicking task may be drained by any thread;
        // catch_unwind contains it wherever it runs.)
        let (tx, rx) = channel::unbounded();
        for i in 0..8 {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i).unwrap();
            }));
        }
        let mut got: Vec<i32> = Vec::new();
        while got.len() < 8 {
            match rx.try_recv() {
                Ok(v) => got.push(v),
                Err(_) => {
                    pool.try_run_one();
                }
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert!(pool.workers() >= 2, "panicking task killed a worker");
    }

    #[test]
    fn status_snapshot_is_consistent() {
        let pool = WorkerPool::global();
        pool.ensure_workers(1);
        let status = pool.status();
        assert!(status.workers_alive >= 1);
        assert!(status.workers_started >= status.workers_alive as u64);
        assert_eq!(
            status.workers_started,
            status.workers_alive as u64 + status.deaths
        );
        // Another test may publish a dispatch decision between the two
        // reads; compare everything except that racy field.
        let mut again = super::status();
        again.last_dispatch = status.last_dispatch;
        again.epochs_served = status.epochs_served;
        again.faults_contained = status.faults_contained;
        again.timeouts = status.timeouts;
        assert_eq!(status.workers_alive, again.workers_alive);
        assert_eq!(status.deaths, again.deaths);
    }

    #[test]
    fn grid_cols_tiles_the_panel_in_whole_slivers() {
        // Exact split: 96 columns, nr=6, 4 chunks of 4 slivers each.
        let cells = grid_cols(96, 6, 4);
        assert_eq!(cells, vec![(0, 24), (24, 24), (48, 24), (72, 24)]);
        // Ragged: 100 columns -> last cell keeps the 4-column remainder.
        let cells = grid_cols(100, 6, 4);
        assert_eq!(cells.iter().map(|&(_, w)| w).sum::<usize>(), 100);
        assert!(cells.iter().all(|&(c0, _)| c0 % 6 == 0));
        assert_eq!(cells.last(), Some(&(90, 10)));
        // n_split=1 is the historical 1-D schedule: one full-width cell.
        assert_eq!(grid_cols(100, 6, 1), vec![(0, 100)]);
        // More chunks than slivers clamps to one sliver per cell.
        let cells = grid_cols(12, 6, 8);
        assert_eq!(cells, vec![(0, 6), (6, 6)]);
        // Degenerate panel narrower than one sliver.
        assert_eq!(grid_cols(5, 6, 3), vec![(0, 5)]);
    }

    #[test]
    fn drain_epoch_times_out_without_dones() {
        // Deterministic watchdog check: one outstanding block whose done
        // never arrives must trip the deadline, not hang.
        let pool = WorkerPool::global();
        let (_tx, rx) = channel::unbounded::<Done<f64>>();
        let mut slots = Vec::new();
        let out = drain_epoch(pool, &rx, 1, 1, Some(Duration::from_millis(25)), &mut slots);
        assert!(out.timed_out);
        assert!(slots.is_empty());
        assert!(out.failed.is_empty());
    }

    #[test]
    fn drain_epoch_discards_stale_dones() {
        let pool = WorkerPool::global();
        let (tx, rx) = channel::unbounded::<Done<f64>>();
        let mut arena: GemmArena<f64> = GemmArena::new();
        tx.send(Done {
            slot: arena.take_slot(8),
            seq: 1,
            failed: false,
        })
        .map_err(|_| "send failed")
        .unwrap();
        tx.send(Done {
            slot: arena.take_slot(8),
            seq: 2,
            failed: false,
        })
        .map_err(|_| "send failed")
        .unwrap();
        let mut slots = Vec::new();
        let out = drain_epoch(pool, &rx, 2, 1, None, &mut slots);
        assert_eq!(out.stale.len(), 1, "stale done must not join the epoch");
        assert_eq!(slots.len(), 1);
        assert!(!out.timed_out);
    }

    #[test]
    fn drain_epoch_separates_failed_slots() {
        let pool = WorkerPool::global();
        let (tx, rx) = channel::unbounded::<Done<f64>>();
        let mut arena: GemmArena<f64> = GemmArena::new();
        tx.send(Done {
            slot: arena.take_slot(8),
            seq: 5,
            failed: true,
        })
        .map_err(|_| "send failed")
        .unwrap();
        tx.send(Done {
            slot: arena.take_slot(8),
            seq: 5,
            failed: false,
        })
        .map_err(|_| "send failed")
        .unwrap();
        let mut slots = Vec::new();
        let out = drain_epoch(pool, &rx, 5, 2, None, &mut slots);
        assert_eq!(out.failed.len(), 1);
        assert_eq!(slots.len(), 1);
    }

    #[test]
    fn arena_recycles_buffers() {
        let mut arena: GemmArena<f64> = GemmArena::new();
        let slot = arena.take_slot(8);
        let panel = arena.take_panel(6);
        assert_eq!(arena.fresh_buffers(), 2);
        arena.put_slot(slot);
        arena.put_panel(panel);
        // Reuse, including across a kernel change (retarget).
        let slot = arena.take_slot(4);
        let panel = arena.take_panel(4);
        assert_eq!(slot.pa.mr(), 4);
        assert_eq!(panel.nr(), 4);
        assert_eq!(arena.fresh_buffers(), 2);
        arena.put_slot(slot);
        arena.put_panel(panel);
    }

    #[test]
    fn with_arena_is_reentrant() {
        let depth2 = f64::with_arena(|outer| {
            outer.take_slot(8);
            // Inner call must not panic on the borrowed thread-local.
            f64::with_arena(|inner| inner.fresh_buffers())
        });
        assert_eq!(depth2, 0);
    }

    #[test]
    fn shard_pools_are_isolated_failure_domains() {
        let shard = WorkerPool::new_shard("iso");
        shard.ensure_workers(2);
        assert!(shard.workers() >= 2);
        // Shard lifecycle counters start at zero regardless of what the
        // global pool has been through in this process.
        let status = shard.status();
        assert_eq!(status.deaths, 0);
        assert_eq!(status.respawns, 0);
        assert_eq!(status.spawn_failures, 0);
        assert_eq!(status.workers_started, status.workers_alive as u64);
        // Work submitted to the shard runs on the shard.
        let (tx, rx) = channel::unbounded();
        for i in 0..16 {
            let tx = tx.clone();
            shard.submit(Box::new(move || {
                tx.send(i).unwrap();
            }));
        }
        let mut got: Vec<i32> = (0..16).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn with_pool_routes_pooled_gemm_to_the_shard_bit_identically() {
        use crate::matrix::Matrix;
        use crate::microkernel::MicroKernelKind;

        let (m, n, k) = (70, 45, 33);
        let a = Matrix::random(m, k, 301);
        let b = Matrix::random(k, n, 302);
        let blocks = BlockSizes::custom(8, 6, 16, 24, 18);
        let kernel = MicroKernelKind::Mk8x6;
        let run = |shard: Option<&Arc<WorkerPool>>| -> Matrix {
            let mut c = Matrix::zeros(m, n);
            let mut go = || {
                let a_views = [a.view()];
                let mut c_views = [c.view_mut()];
                gemm_pooled(
                    Transpose::No,
                    Transpose::No,
                    1.0,
                    &a_views,
                    &b.view(),
                    &mut c_views,
                    kernel,
                    blocks,
                    3,
                    1,
                    None,
                    None,
                )
                .expect("pooled gemm");
            };
            match shard {
                Some(p) => with_pool(p, go),
                None => go(),
            }
            c
        };
        let on_global = run(None);
        let shard = WorkerPool::new_shard("route");
        let on_shard = run(Some(&shard));
        assert_eq!(
            on_global.max_abs_diff(&on_shard),
            0.0,
            "shard-routed pooled GEMM diverged bitwise"
        );
        assert!(shard.workers() >= 1, "the shard spawned its own workers");
        // Nesting restores the previous override.
        let outer = WorkerPool::new_shard("outer");
        with_pool(&outer, || {
            with_pool(&shard, || {
                assert!(Arc::ptr_eq(&current_pool_override().unwrap(), &shard));
            });
            assert!(Arc::ptr_eq(&current_pool_override().unwrap(), &outer));
        });
        assert!(current_pool_override().is_none());
    }

    #[test]
    fn retired_shard_winds_down_cleanly() {
        let shared = {
            let shard = WorkerPool::new_shard("retire");
            shard.ensure_workers(2);
            assert!(shard.workers() >= 2);
            Arc::clone(&shard.shared)
            // shard (the only Arc) drops here: retired is set, the
            // channel disconnects, workers exit.
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while shared.alive.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(shared.alive.load(Ordering::Acquire), 0, "workers lingered");
        assert_eq!(
            shared.deaths.load(Ordering::Relaxed),
            0,
            "clean retirement must not count as deaths"
        );
    }

    /// The poll ahead of every park: over at once when a message waits,
    /// over at its limit when none comes, and it consumes nothing.
    #[test]
    fn poll_ready_returns_on_a_message_or_at_its_limit() {
        let (tx, rx) = channel::unbounded::<u32>();
        let limit = Duration::from_millis(20);
        let t0 = Instant::now();
        assert!(!poll_ready(&rx, limit));
        assert!(t0.elapsed() >= limit);

        tx.send(7).unwrap();
        let t0 = Instant::now();
        assert!(poll_ready(&rx, Duration::from_secs(30)));
        assert!(t0.elapsed() < Duration::from_secs(30));
        assert_eq!(rx.try_recv(), Ok(7));

        // a message sent while the poll is under way ends it
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                tx.send(8).unwrap();
            });
            assert!(poll_ready(&rx, Duration::from_secs(30)));
        });
        assert_eq!(rx.try_recv(), Ok(8));
    }
}
