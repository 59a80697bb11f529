//! Layers 1–3 at run time (Section IV-C, Figure 9): the one walk over a
//! call's panels and cells, and the persistent worker pool that layer 3
//! is dealt out to.
//!
//! The paper's parallel DGEMM is not a second algorithm: it is the
//! Figure-2 loop nest with layer 3 shared out over one team of threads,
//! every thread packing its own block of A into its own L2 and working on
//! its own part of the problem. So the nest is written once
//! (`gemm_walk`): each `jj` panel is cut into cells, a cell's body is
//! loops 2 and 3 on its piece, and [`Parallelism::Serial`] is the panel
//! as one cell on the calling thread. For the paper's large problems how
//! the team is kept hardly matters, but for the small/batched GEMMs
//! layered workloads issue (LU panels, im2col convolutions, batched
//! inference) a thread spawned or a packing buffer allocated per call
//! costs more than the arithmetic. So the parallel runtime is a
//! process-wide pool of persistent workers and per-thread buffer arenas:
//!
//! - **[`WorkerPool`]**: lazily started, detached worker threads parked
//!   on an MPMC channel — after polling it for a while, so back-to-back
//!   calls find their workers awake. Steady state spawns **zero**
//!   threads.
//! - **The cell grid** ([`cell_grid`], DESIGN.md §9): each `jj` panel of
//!   a call is cut into *cells* — a run of `mc` row blocks (of a batch's
//!   rows stacked, so a block may straddle entries) by an `nr`-aligned
//!   run of the panel's columns —
//!   about one per thread, by the one pure function that minimises the
//!   words a cell packs. Which loop is parallel is that function's
//!   answer for the shape: columns for a square call or a single block,
//!   rows for a tall narrow one or a batch against cached panels; for one
//!   thread, neither. The call's [`Plan`] holds the answer, for a full
//!   panel and the last; the walk only cuts it.
//! - **[`GemmArena`]**: a thread-local free list of [`BlockSlot`]s
//!   (packed-A buffer + C staging buffer) and packed-B panels. A cell
//!   uses the arena of the thread that runs it, so packed operands are
//!   written by the core that reads them. Steady state performs **zero**
//!   packing-buffer allocations on any thread.
//!
//! ## Cells that borrow the operands
//!
//! A cell's body (`run_cell`) is the nest on its own piece: apply β to
//! its part of C, then for every `kk` take **its own B columns** —
//! packed into its own panel, or read in place, or addressed inside a
//! [`PrepackedB`] tile, as the plan's [`BSource`] says — pack
//! **its own A blocks** and GEBP. On the pool it does so *staged*: on a
//! private copy of its part of C, written back last. The serial call's
//! one cell works straight on C. Every element of C sees the same kernel
//! calls in the same `kk` order, whatever the grid and wherever it
//! accumulates, so every output bit is the one-cell result by
//! construction.
//!
//! Persistent workers outlive any one call, and the operands are the
//! caller's borrows. The `lease` module bridges the two: a panel's operands
//! are lent for the duration of one closure, jobs hold a `'static`
//! `Gate` and reach the operands only inside `Gate::with`, and the
//! closure cannot be left while a job is in there. The pool itself stays
//! `forbid(unsafe_code)`. An epoch is then:
//!
//! 1. the **caller** cuts the grid, submits one job per cell but the
//!    first, and computes the first cell itself;
//! 2. a **job** claims its cell — one compare-and-swap on state the pool
//!    owns — inside `with`, before it touches an operand, computes it
//!    with its own thread's buffers, and posts one done message;
//! 3. the caller *helps drain the queue* while waiting at the barrier,
//!    and settles faults. In a healthy call it packs nothing and copies
//!    nothing that is not its own cell's.
//!
//! Cells of one column chunk cover interleaved rows of the same columns
//! of C, which no `&mut` split can hand out; each chunk's windows on C
//! sit behind a lock that cells share to stage in and hold exclusively
//! for the copy back.
//!
//! ## Fault tolerance (DESIGN.md §10)
//!
//! The paper assumes every thread finishes its part; the pool does not.
//! Failures are contained at the cell level and the epoch always
//! completes. (A serial call has no second thread to fail and contains
//! nothing — a panic unwinds into the caller; of the points below only
//! the last is its own too, degrading inside its one cell.)
//!
//! - **Worker panics**: each cell runs under `catch_unwind`. C is
//!   untouched until a cell's write-back, its last step, so the caller
//!   recomputes a panicked cell from C — bit-identical, because the
//!   replay makes the same kernel calls in the same order. Only a
//!   panicking *replay* surfaces as [`GemmError::WorkerFault`].
//! - **Dead workers**: every worker holds a guard that records its death;
//!   [`WorkerPool::ensure_workers`] (called at every epoch start)
//!   respawns up to the wanted count. [`WorkerPool::status`] exposes the
//!   live count, deaths, respawns and faults contained.
//! - **Stalled epochs**: with an `epoch_timeout` configured, at the
//!   deadline the caller *revokes* every cell no thread has claimed (its
//!   own compare-and-swap on the same state), recomputes those from C,
//!   finishes the call on its own thread and reports
//!   [`GemmError::EpochTimeout`]. A job that comes late finds its cell
//!   revoked, or the gate closed, and touches nothing
//!   ([`PoolStatus::late_jobs`]). A cell already claimed cannot be
//!   abandoned — its thread holds live borrows — so the caller waits for
//!   it: a thread descheduled *mid-cell* delays the call instead.
//! - **Allocation failures**: staging and packing buffers grow with
//!   `try_reserve`; on failure a cell degrades to smaller packing chunks
//!   (bit-identical: each (A-sliver, B-sliver) pair still gets exactly
//!   one kernel call per `kk`), and a cell that cannot even stage is
//!   recomputed by the caller straight on C. Only when the minimal chunk
//!   cannot be allocated there either does the call report
//!   [`GemmError::AllocFailure`].

#![forbid(unsafe_code)]

use crate::gebp::{gebp_slivers_with, BPanel, BWindow};
use crate::gemm::{BSource, Plan};
use crate::lease::{Gate, Lend};
use crate::matrix::{MatrixView, MatrixViewMut};
use crate::microkernel::KernelSet;
use crate::pack::{PackedA, PackedB};
use crate::parallel::partition_rows;
use crate::prepack::{PackCache, PrepackedB};
use crate::scalar::Scalar;
use crate::telemetry::{self, TraceKind, RT};
use crate::tile::TileMut;
use crate::{GemmError, Transpose};
use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use perfmodel::cacheblock::BlockSizes;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
/// respawns replacements for any that died. Jobs wait for nothing but
/// the lock on their own columns of C and run under `catch_unwind`,
/// which keeps the caller's help-while-waiting drain loop deadlock-free
/// and a panicking job from taking a worker (or the process) down with
/// it.
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
/// Not `Eq`: [`PoolStatus::last_dispatch`] carries the model's
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
    /// Layer-3 epochs (barriers: one per `jj` panel) served by the pool.
    pub epochs_served: u64,
    /// Cells whose thread panicked, ran out of memory or never began
    /// them, and which the caller recomputed.
    pub faults_contained: u64,
    /// Epochs in which the watchdog deadline took cells back.
    pub timeouts: u64,
    /// Jobs that came too late — their cell taken back at the watchdog
    /// deadline, or their call already returned — and so touched nothing
    /// (process-wide, like the epoch counters).
    pub late_jobs: u64,
    /// The most recent priced plan (shape, B source, grid, chosen
    /// runtime, predicted vs measured time) — `None` until a call runs
    /// with [`crate::dispatch::DispatchMode::Auto`].
    pub last_dispatch: Option<Plan>,
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
/// against the 3.5 ms it takes on the SIMD kernels it is what made ten
/// runs spread over 10 % (EXPERIMENTS.md, "Steadying the pooled path").
/// So a worker stays runnable across the gap between two calls of a
/// stream (the caller's own code between them — the pooled call itself
/// no longer has a serial stretch to bridge), and the caller across the
/// tail of the slowest cell. The poll yields on every turn, so on an
/// oversubscribed host whoever has real work gets the processor.
/// Re-measured once that stretch was gone (EXPERIMENTS.md, "Every thread
/// packs its own operands"): parking at once loses 3.5 % on `square_pool`
/// and triples the spread of ten runs; 0.5 ms reads the same as 2 ms in
/// the median and over a wider range, which is no reason to move it.
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
        // the counters alone: the service asks on every submit, and a full
        // snapshot decodes every lane's ring
        let rt = crate::telemetry::runtime_snapshot();
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
            late_jobs: LATE_JOBS.load(Ordering::Relaxed),
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

/// One thread's working memory for one cell: the packed-A buffer and
/// the cell's private copy of its part of C. Slots are recycled through
/// the [`GemmArena`] of the thread that runs the cell and never leave it.
#[derive(Debug)]
pub struct BlockSlot<T: Scalar> {
    pa: PackedA<T>,
    /// The staged cell: per row task an `mc_eff × ncols` block of stacked
    /// rows, column-major with `ld = mc_eff`, one after the other.
    staging: Vec<T>,
}

/// Thread-local free lists of packing buffers, so steady-state GEMM
/// calls allocate nothing on any thread: a cell takes one block slot and
/// one B panel from the arena of the thread that runs it — the caller's,
/// for a serial call — and returns them when it is done.
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
    /// zero-allocation condition the tests assert.
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

/// The row tasks of a call: the `m` rows of each of `batch` entries
/// stacked, row `r` being row `r % m` of entry `r / m`, in blocks of `mc`
/// — so a block may straddle entries. The one place they are counted, by
/// the call's plan: [`cell_grid`] deals them out, and `gemm::packs_b`
/// counts the GEBPs that share a B pack by them.
#[must_use]
pub(crate) fn row_tasks(m: usize, batch: usize, mc: usize) -> usize {
    (m * batch).div_ceil(mc.max(1))
}

/// The grid one `jj` panel of a call is cut into, as `(row ranges,
/// column chunks)`: `tasks` row tasks (`row_tasks`) of `rows` stacked
/// rows by `n` panel columns in `nr` slivers, for `degree` threads. The
/// one place that decision lives; the call's [`Plan`] holds it, the walk
/// cuts it and the dispatcher prices it.
///
/// A cell packs its own operands: per unit of depth its rows of A and,
/// when the call packs B at all (`pack_b`, from `gemm::packs_b`), its
/// columns of B. The grid is the one whose largest cell packs the
/// fewest words, times the rounds it takes `degree` threads to run the
/// cells, among those with a cell for every thread (or as many as the
/// shape has); ties go to the column split, whose cells share no packed
/// B and own whole columns of C. A square call splits its columns, a
/// single `mc` block can only do that, a tall one with fewer slivers
/// than threads splits its rows, and so does a batch against a
/// [`PrepackedB`], which has no B pack to duplicate.
#[must_use]
pub fn cell_grid(
    tasks: usize,
    rows: usize,
    n: usize,
    mc: usize,
    nr: usize,
    degree: usize,
    pack_b: bool,
) -> (usize, usize) {
    let (tasks, mc, nr, degree) = (tasks.max(1), mc.max(1), nr.max(1), degree.max(1));
    let slivers = n.div_ceil(nr).max(1);
    (1..=degree.min(tasks))
        .map(|r| {
            let c = degree.div_ceil(r).min(slivers);
            let rows = (tasks.div_ceil(r) * mc).min(rows);
            let cols = if pack_b {
                (slivers.div_ceil(c) * nr).min(n)
            } else {
                0
            };
            let words = (r * c).div_ceil(degree) * (rows + cols);
            (((r * c).min(degree), core::cmp::Reverse(words), c), (r, c))
        })
        .max_by_key(|&(key, _)| key)
        .map_or((1, 1), |(_, grid)| grid)
}

/// The cells of one `jj` panel `n` columns wide, and its column chunks as
/// `(col0, ncols)`: `grid`'s row ranges, cut from the `rows` stacked rows
/// in whole `mc` blocks, by its column chunks, cut in whole slivers.
fn panel_cells(
    rows: usize,
    n: usize,
    mc: usize,
    nr: usize,
    (row_ranges, col_chunks): (usize, usize),
) -> (Vec<Cell>, Vec<(usize, usize)>) {
    let row_ranges = partition_rows(rows, mc, row_ranges);
    let col_chunks = partition_rows(n, nr, col_chunks);
    let cells = col_chunks
        .iter()
        .enumerate()
        .flat_map(|(chunk, &(col0, ncols))| {
            row_ranges.iter().map(move |&(r0, rows)| Cell {
                r0,
                r1: r0 + rows,
                chunk,
                col0,
                ncols,
            })
        })
        .collect();
    (cells, col_chunks)
}

/// One cell of a panel's grid: a run of row tasks by a run of slivers.
#[derive(Clone, Copy, Debug)]
struct Cell {
    /// Stacked rows `r0..r1` ([`row_tasks`]): its row tasks are the `mc`
    /// blocks from `r0` on ([`Cell::blocks`]).
    r0: usize,
    r1: usize,
    /// Which column chunk of the panel ([`Operands::c_chunks`]).
    chunk: usize,
    /// The chunk's first column within the panel, a multiple of `nr`.
    col0: usize,
    ncols: usize,
}

impl Cell {
    /// The cell's row tasks as `(r0, mc_eff)`: its stacked rows in `mc`
    /// blocks. A block's place in the cell's staging buffer is
    /// `(r0 - self.r0) · ncols`.
    fn blocks(&self, mc: usize) -> impl Iterator<Item = (usize, usize)> {
        let end = self.r1;
        (self.r0..end)
            .step_by(mc)
            .map(move |r0| (r0, mc.min(end - r0)))
    }
}

/// One call's operands as the caller passed them — C aside — and the
/// register kernel: what [`gemm_walk`] runs the call's [`Plan`] on.
#[derive(Clone, Copy)]
pub(crate) struct Call<'a, T: Scalar, K> {
    pub(crate) transa: Transpose,
    pub(crate) transb: Transpose,
    pub(crate) alpha: T,
    /// Not yet applied to C: staging a cell in applies it, or for `β = 0`
    /// the first `kk` panel's kernels, which store and never read.
    pub(crate) beta: T,
    pub(crate) kernel: K,
    pub(crate) a_batch: &'a [MatrixView<'a, T>],
    pub(crate) b: &'a MatrixView<'a, T>,
    /// The cached panels when the plan's B source is
    /// [`BSource::Prepacked`].
    pub(crate) prepacked: Option<&'a PrepackedB<T>>,
}

/// What the jobs of one `jj` panel borrow from the call, through the
/// [`Gate`]: the operands, the plan, the panel's cells, and C cut into
/// the grid's column chunks.
struct Operands<'a, T: Scalar, K> {
    call: Call<'a, T, K>,
    plan: &'a Plan,
    /// First column of the panel in `op(B)` and C.
    jj: usize,
    /// `(jj, kk)` iterations before this panel's, for span tags.
    gepp0: u64,
    /// Whether a panic in a cell is caught and the cell replayed: on the
    /// pool, not on [`Parallelism::Serial`], whose one cell unwinds into
    /// the caller. `faults::panic_in_job` fires only where it is.
    contained: bool,
    cells: Vec<Cell>,
    /// Per column chunk, every entry's `m × ncols` window of C. Cells of
    /// one chunk cover interleaved rows of the same columns, which no
    /// `&mut` split can express: they read their rows under the shared
    /// lock and write them back, last thing, under the exclusive one.
    c_chunks: Vec<RwLock<Vec<MatrixViewMut<'a, T>>>>,
}

/// [`Operands`] without its lifetime, for the [`Gate`].
struct OperandsOf<T, K>(PhantomData<(T, K)>);

impl<T: PoolScalar, K: KernelSet<T>> Lend for OperandsOf<T, K> {
    type Lent<'a> = Operands<'a, T, K>;
}

/// Stacked rows `r0..r0 + rows` of a batch of `m`-row entries, cut
/// where entries meet, as `(entry, row0, rows)`: stacked row `r` is row
/// `r % m` of entry `r / m`.
fn runs(m: usize, r0: usize, rows: usize) -> impl Iterator<Item = (usize, usize, usize)> + Clone {
    let end = r0 + rows;
    (r0 / m..end.div_ceil(m)).map(move |entry| {
        let lo = r0.max(entry * m);
        (entry, lo - entry * m, end.min(entry * m + m) - lo)
    })
}

/// The views are plain borrows, valid whatever a panicking holder was
/// doing, so a poisoned lock is taken as it is.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// `staging = β ·` `cell`'s rows and columns of C. For `β = 0` C is not
/// read and the buffer is only sized: the first `kk` panel's kernels
/// store every element of it, so what a reused buffer held is
/// overwritten, not zeroed first. Fallible: the buffer grows with
/// `try_reserve`.
fn stage_in<T: Scalar, K>(
    ops: &Operands<'_, T, K>,
    cell: &Cell,
    staging: &mut Vec<T>,
    c: &[MatrixViewMut<'_, T>],
) -> Result<(), GemmError> {
    let len = (cell.r1 - cell.r0) * cell.ncols;
    let grow = len.saturating_sub(staging.len());
    if crate::faults::fail_alloc() || staging.try_reserve(grow).is_err() {
        return Err(GemmError::AllocFailure { what: "C staging" });
    }
    if ops.call.beta == T::ZERO {
        // (zero-fills only what the buffer grows by)
        staging.resize(len, T::ZERO);
        return Ok(());
    }
    staging.clear();
    for (r0, mc_eff) in cell.blocks(ops.plan.blocks.mc) {
        for j in 0..cell.ncols {
            for (entry, row0, rows) in runs(ops.plan.m, r0, mc_eff) {
                let view = c[entry].as_view();
                let col = &view.col(j)[row0..row0 + rows];
                if ops.call.beta == T::ONE {
                    staging.extend_from_slice(col);
                } else {
                    staging.extend(col.iter().map(|&x| x * ops.call.beta));
                }
            }
        }
    }
    Ok(())
}

fn stage_out<T: Scalar, K>(
    ops: &Operands<'_, T, K>,
    cell: &Cell,
    staging: &[T],
    c: &mut [MatrixViewMut<'_, T>],
) {
    let mut staged = staging;
    for (r0, mc_eff) in cell.blocks(ops.plan.blocks.mc) {
        for j in 0..cell.ncols {
            for (entry, row0, rows) in runs(ops.plan.m, r0, mc_eff) {
                let (col, rest) = staged.split_at(rows);
                c[entry].col_mut(j)[row0..row0 + rows].copy_from_slice(col);
                staged = rest;
            }
        }
    }
}

/// Where a cell accumulates.
enum Dest<'d, 'c, T: Scalar> {
    /// Its private copy of its part of C ([`BlockSlot::staging`]).
    Staging(&'d mut [T]),
    /// C itself: each entry's window on the cell's column chunk.
    Direct(&'d mut [MatrixViewMut<'c, T>]),
}

/// Pack stacked rows `row0..row0 + mc_eff` of `op(A)`, depth `kk..kk +
/// kc_eff`, fallibly and GEBP them against the `(s0, cols)` whole-sliver
/// column range of `panel` (full width: `(0, panel.nc())`), degrading to
/// halved row chunks when the packing buffer cannot grow. Bit-identical
/// to the one-shot pack: each row is its own lane of whatever sliver and
/// row group it lands in, every (A-sliver, B-sliver) pair still gets
/// exactly one kernel call, and each C element's k-accumulation order is
/// unchanged. `tile` is the `mc_eff × cols` destination; on the first
/// panel of a `β = 0` call the kernels store it without reading it.
#[allow(clippy::too_many_arguments)]
fn gebp_block_resilient<T: Scalar, K: KernelSet<T>>(
    ops: &Operands<'_, T, K>,
    (kk, kc_eff): (usize, usize),
    (row0, mc_eff): (usize, usize),
    pa: &mut PackedA<T>,
    panel: &impl BPanel<T>,
    s0: usize,
    cols: usize,
    tile: &mut TileMut<'_, T>,
) -> Result<(), GemmError> {
    let Call {
        transa,
        alpha,
        beta,
        kernel,
        a_batch,
        ..
    } = ops.call;
    let mr = kernel.mr().max(1);
    let overwrite = kk == 0 && beta == T::ZERO;
    let mut chunk = mc_eff;
    let mut r = 0usize;
    while r < mc_eff {
        let rows = chunk.min(mc_eff - r);
        let runs = runs(ops.plan.m, row0 + r, rows);
        let runs = runs.map(|(entry, i0, n)| (&a_batch[entry], i0, n));
        match pa.try_pack_runs(runs, transa, kk, kc_eff) {
            Ok(()) => {
                let mut sub = tile.sub_tile(r, 0, rows, cols);
                gebp_slivers_with(kernel, alpha, overwrite, pa, panel, s0, cols, &mut sub);
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

/// One `kk` step of a cell against one stretch of its B columns: every
/// row task's block of A, packed into `pa` and multiplied into columns
/// `c0..c0 + cols` of the task's part of `dest`. `b` holds those columns
/// from its sliver `s0` on.
#[allow(clippy::too_many_arguments)]
fn gebp_tasks<T: Scalar, K: KernelSet<T>>(
    ops: &Operands<'_, T, K>,
    cell: &Cell,
    depth: (usize, usize),
    pa: &mut PackedA<T>,
    dest: &mut Dest<'_, '_, T>,
    b: &impl BPanel<T>,
    s0: usize,
    (c0, cols): (usize, usize),
) -> Result<(), GemmError> {
    for (r0, mc_eff) in cell.blocks(ops.plan.blocks.mc) {
        telemetry::set_cell(r0, cell.col0);
        if ops.contained {
            crate::faults::panic_in_job();
        }
        match dest {
            Dest::Staging(staging) => {
                let block = &mut staging[(r0 - cell.r0) * cell.ncols..][..mc_eff * cell.ncols];
                let mut whole = TileMut::from_slice(mc_eff, cell.ncols, mc_eff.max(1), block);
                let mut tile = whole.sub_tile(0, c0, mc_eff, cols);
                gebp_block_resilient(ops, depth, (r0, mc_eff), pa, b, s0, cols, &mut tile)?;
            }
            // the entries of C are separate matrices: the block is cut
            // where they meet, as the degraded pack cuts it into chunks
            Dest::Direct(c) => {
                for (entry, row0, rows) in runs(ops.plan.m, r0, mc_eff) {
                    let view = &mut c[entry];
                    let (all, ld) = (view.rows(), view.ld());
                    let mut whole = TileMut::from_slice(all, cell.ncols, ld, view.data_mut());
                    let mut tile = whole.sub_tile(row0, c0, rows, cols);
                    let run = (entry * ops.plan.m + row0, rows);
                    gebp_block_resilient(ops, depth, run, pa, b, s0, cols, &mut tile)?;
                }
            }
        }
    }
    Ok(())
}

/// Loops 2 and 3 of Figure 2 on one cell, the only place they are
/// written: `dest += α · op(A)[cell rows] · op(B)[:, cell columns]`,
/// depth block after depth block, so every element of C gets the same
/// kernel calls in the same `kk` order whatever the grid. B comes
/// from a [`PrepackedB`] tile when the call has one, from the cell's
/// own pack of its own columns when the call packs, and otherwise from
/// where the caller stored it; A is packed into `pa` block by block.
/// Allocation failures degrade to smaller packing chunks and surface
/// only when even the smallest cannot be had.
fn cell_product<T: Scalar, K: KernelSet<T>>(
    ops: &Operands<'_, T, K>,
    cell: &Cell,
    pa: &mut PackedA<T>,
    panel: &mut PackedB<T>,
    dest: &mut Dest<'_, '_, T>,
) -> Result<(), GemmError> {
    let nr = ops.call.kernel.nr().max(1);
    let j0 = ops.jj + cell.col0;
    let whole = (0, cell.ncols);
    let mut gepp = ops.gepp0;
    let mut kk = 0usize;
    while kk < ops.plan.k {
        let kc_eff = ops.plan.blocks.kc.min(ops.plan.k - kk);
        let depth = (kk, kc_eff);
        gepp += 1;
        telemetry::set_gepp(gepp);
        if let Some(pp) = ops.call.prepacked {
            let tile = pp.tile_range(ops.jj, kk, &[(cell.col0, cell.ncols)]);
            gebp_tasks(ops, cell, depth, pa, dest, &**tile, cell.col0 / nr, whole)?;
        } else if ops.plan.b_source == BSource::Packed {
            pack_panel_resilient(
                panel,
                ops.call.b,
                ops.call.transb,
                kk,
                j0,
                kc_eff,
                cell.ncols,
                nr,
                |c0, packed| gebp_tasks(ops, cell, depth, pa, dest, packed, 0, (c0, packed.nc())),
            )?;
        } else {
            let window = BWindow::new(ops.call.b, ops.call.transb, kk, j0, kc_eff, cell.ncols, nr);
            gebp_tasks(ops, cell, depth, pa, dest, &window, 0, whole)?;
        }
        kk += kc_eff;
    }
    Ok(())
}

/// Compute one cell on the calling thread, with that thread's buffers —
/// the one cell body: a serial call, workers, the helping caller, degree
/// 1, degraded mode and recovery all run it.
///
/// `staged` is the pool's normal way: copy the cell's part of C into a
/// private buffer, accumulate there, write it back as the last step — so
/// a cell that panics or fails has not touched C and can be replayed
/// from it. Unstaged, the cell accumulates straight on C, holding its
/// column chunk exclusively: the way of a serial call, whose one cell
/// shares C with nobody and is never replayed, and of recovery, which
/// needs no staging memory and after which there is no second replay.
fn run_cell<T: PoolScalar, K: KernelSet<T>>(
    ops: &Operands<'_, T, K>,
    cell: &Cell,
    staged: bool,
) -> Result<(), GemmError> {
    T::with_arena(|arena| {
        let mut slot = arena.take_slot(ops.call.kernel.mr());
        let mut panel = arena.take_panel(ops.call.kernel.nr());
        let BlockSlot { pa, staging } = &mut slot;
        let c = &ops.c_chunks[cell.chunk];
        let result = if staged {
            // (each guard is dropped with its statement)
            let staged_in = stage_in(ops, cell, staging, &read(c));
            staged_in
                .and_then(|()| cell_product(ops, cell, pa, &mut panel, &mut Dest::Staging(staging)))
                .map(|()| stage_out(ops, cell, staging, &mut write(c)))
        } else {
            let (mut c, beta) = (write(c), ops.call.beta);
            // (β = 0 needs no pass: the first panel's kernels store C)
            if beta != T::ZERO {
                for (entry, row0, rows) in runs(ops.plan.m, cell.r0, cell.r1 - cell.r0) {
                    c[entry].sub_mut(row0, 0, rows, cell.ncols).scale(beta);
                }
            }
            cell_product(ops, cell, pa, &mut panel, &mut Dest::Direct(&mut c))
        };
        arena.put_slot(slot);
        arena.put_panel(panel);
        result
    })
}

/// How a cell's run ended, as the caller's barrier learns it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Outcome {
    /// Computed and written back.
    Clean,
    /// Its thread panicked; staged, so C has not seen the cell.
    Panicked,
    /// Out of memory even for the smallest chunk; C has not seen it.
    OutOfMemory,
    /// The watchdog took it back before any thread began it.
    Revoked,
}

/// [`run_cell`], staged, with a panic contained into its [`Outcome`].
fn run_contained<T: PoolScalar, K: KernelSet<T>>(ops: &Operands<'_, T, K>, idx: usize) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| run_cell(ops, &ops.cells[idx], true))) {
        Ok(Ok(())) => Outcome::Clean,
        Ok(Err(_)) => Outcome::OutOfMemory,
        Err(_) => Outcome::Panicked,
    }
}

/// Epoch-barrier message: cell `idx` of the panel ended with `outcome`.
struct Done {
    idx: usize,
    outcome: Outcome,
}

/// Posts a claimed cell's [`Done`] when dropped — also when whatever
/// runs between the claim and the end of the job unwinds, so the barrier
/// can never wait on a cell nobody will report.
struct Report<'a> {
    to: &'a Sender<Done>,
    idx: usize,
    outcome: Outcome,
}

impl Drop for Report<'_> {
    fn drop(&mut self) {
        let _ = self.to.send(Done {
            idx: self.idx,
            outcome: self.outcome,
        });
    }
}

/// Per-cell claim state, owned by the pool (not borrowed from the
/// call): a job moves its cell `UNCLAIMED → CLAIMED` before it first
/// touches an operand, the caller's watchdog moves what is still
/// `UNCLAIMED` to `REVOKED`, and whoever loses that race leaves the
/// cell to the other.
const UNCLAIMED: u8 = 0;
const CLAIMED: u8 = 1;
const REVOKED: u8 = 2;

fn claim(state: &AtomicU8, to: u8) -> bool {
    // AcqRel/Acquire: the loser must see the winner's move, nothing else
    // is published through the state (results travel by channel)
    state
        .compare_exchange(UNCLAIMED, to, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
}

/// Jobs that found their cell taken back, or the whole call gone, and
/// touched nothing ([`PoolStatus::late_jobs`]).
static LATE_JOBS: AtomicU64 = AtomicU64::new(0);

/// Enqueue the job that computes cell `idx`. It reaches the operands
/// only inside [`Gate::with`], claims the cell there before anything
/// else, and posts exactly one [`Done`] if the claim succeeds. A job
/// that comes too late — its cell revoked at the watchdog deadline, or
/// the call returned and the gate closed — posts nothing and touches
/// nothing.
fn submit_cell<T: PoolScalar, K: KernelSet<T>>(
    pool: &WorkerPool,
    gate: &Gate<OperandsOf<T, K>>,
    states: &Arc<[AtomicU8]>,
    idx: usize,
    done: &Sender<Done>,
) {
    let (gate, states, done) = (gate.clone(), Arc::clone(states), done.clone());
    // The job records under the caller's trace id, so worker-side spans
    // and fault events land on the request that submitted the epoch.
    let trace = telemetry::current_trace();
    pool.submit(Box::new(move || {
        telemetry::with_trace(trace, || {
            crate::faults::slow_job_delay();
            let ran = gate.with(|ops| {
                if !claim(&states[idx], CLAIMED) {
                    return false;
                }
                let mut report = Report {
                    to: &done,
                    idx,
                    outcome: Outcome::Panicked,
                };
                crate::faults::stall_in_cell();
                report.outcome = run_contained(ops, idx);
                true
            });
            if ran != Some(true) {
                LATE_JOBS.fetch_add(1, Ordering::Relaxed);
            }
        });
    }));
}

/// Collect dones into `outcomes` until none is `pending`, running
/// queued jobs on this thread while waiting (so the epoch completes even
/// with zero workers). `true` if `deadline` passed first.
fn drain_epoch(
    pool: &WorkerPool,
    done_rx: &Receiver<Done>,
    outcomes: &mut [Option<Outcome>],
    pending: &mut usize,
    deadline: Option<Instant>,
) -> bool {
    while *pending > 0 {
        let done = match done_rx.try_recv() {
            Ok(done) => Some(done),
            // The caller holds a sender, so this cannot happen; treat
            // it as a stall rather than asserting.
            Err(TryRecvError::Disconnected) => return true,
            Err(TryRecvError::Empty) => {
                let wait = deadline.map(|dl| dl.saturating_duration_since(Instant::now()));
                if wait.is_some_and(|w| w.is_zero()) {
                    return true;
                }
                if pool.try_run_one() {
                    continue;
                }
                // Queue empty: the remaining jobs are with other threads,
                // which will post their dones; park until one arrives (or
                // the deadline passes). Only the park itself is barrier
                // time — jobs drained via try_run_one above record as
                // compute.
                let _parked = telemetry::span(TraceKind::Barrier);
                let polling = Instant::now();
                poll_ready(
                    done_rx,
                    wait.map_or(POLL_BEFORE_PARK, |w| w.min(POLL_BEFORE_PARK)),
                );
                match wait {
                    None => done_rx.recv().ok(),
                    Some(w) => done_rx
                        .recv_timeout(w.saturating_sub(polling.elapsed()))
                        .ok(),
                }
            }
        };
        if let Some(Done { idx, outcome }) = done {
            outcomes[idx] = Some(outcome);
            *pending -= 1;
        }
    }
    false
}

/// Cold path: recompute on this thread, straight on C, every cell whose
/// outcome so far is not clean — C has not seen such a cell, so the
/// replay makes the cell's kernel calls in the cell's order and the
/// result is bit-identical. A panic during the replay is
/// the double fault reported as [`GemmError::WorkerFault`] (C is then
/// unspecified, but the call finishes so the pool stays consistent); an
/// allocation failure even here ends the call.
fn settle<T: PoolScalar, K: KernelSet<T>>(
    ops: &Operands<'_, T, K>,
    outcomes: &mut [Option<Outcome>],
    worst: &mut Option<GemmError>,
) -> Result<(), GemmError> {
    for (cell, outcome) in ops.cells.iter().zip(outcomes) {
        let note = match outcome {
            None | Some(Outcome::Clean) => continue,
            Some(Outcome::Revoked) => "lost block recomputed serially after watchdog expiry",
            Some(Outcome::Panicked) => "worker panic contained; block recomputed serially",
            Some(Outcome::OutOfMemory) => "block out of memory; recomputed serially on C",
        };
        let _span = telemetry::span(TraceKind::Recovery);
        match catch_unwind(AssertUnwindSafe(|| run_cell(ops, cell, false))) {
            Ok(Ok(())) => {
                RT.faults_contained.fetch_add(1, Ordering::Relaxed);
                crate::trace::health_event(
                    crate::trace::HealthEventKind::FaultContained,
                    telemetry::current_trace(),
                    cell.r0 as u64,
                    note,
                );
            }
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                let (entry, row0) = (cell.r0 / ops.plan.m, cell.r0 % ops.plan.m);
                *worst = Some(GemmError::WorkerFault { entry, row0 });
            }
        }
        *outcome = Some(Outcome::Clean);
    }
    Ok(())
}

/// What one pooled call carries from panel to panel.
struct CallState {
    /// The shard installed by [`with_pool`], if any — an owned Arc, so a
    /// retiring shard stays alive for the duration of the call; the
    /// global pool otherwise.
    shard: Option<Arc<WorkerPool>>,
    dones: (Sender<Done>, Receiver<Done>),
    epoch_timeout: Option<Duration>,
    /// After a watchdog timeout the rest of the call runs on the caller:
    /// the pool may hold a stalled worker and a second stall would
    /// double the damage.
    degraded: bool,
    /// The soft error (timeout, double fault) reported once the call
    /// has completed; hard errors return immediately.
    worst: Option<GemmError>,
}

/// One epoch: every cell of `ops`' panel computed, by this thread and
/// up to `degree − 1` others (the plan's runtime), and this thread back
/// at the barrier with every fault settled.
fn run_panel<T: PoolScalar, K: KernelSet<T>>(
    ops: &Operands<'_, T, K>,
    call: &mut CallState,
) -> Result<(), GemmError> {
    let degree = ops.plan.runtime.degree();
    let pool = match call.shard.as_deref() {
        Some(shard) => shard,
        None => WorkerPool::global(),
    };
    let cells = ops.cells.len();
    // this thread keeps the first cell, or in degraded mode all of them
    let kept = if call.degraded { cells } else { 1 };
    if cells > kept {
        // Health check: respawn workers that died since the last epoch
        // (no-op fast path when everyone is alive).
        pool.ensure_workers(degree - 1);
    }
    if !call.degraded {
        let epochs = if cells > degree {
            &RT.dynamic_epochs
        } else {
            &RT.static_epochs
        };
        epochs.fetch_add(1, Ordering::Relaxed);
        if ops.c_chunks.len() > 1 {
            RT.grid_epochs.fetch_add(1, Ordering::Relaxed);
        }
    }
    let mut outcomes: Vec<Option<Outcome>> = vec![None; cells];
    crate::lease::scope::<OperandsOf<T, K>, _>(ops, |gate| {
        let deadline = call.epoch_timeout.map(|t| Instant::now() + t);
        let states: Arc<[AtomicU8]> = (0..cells).map(|_| AtomicU8::new(UNCLAIMED)).collect();
        for idx in kept..cells {
            submit_cell(pool, gate, &states, idx, &call.dones.0);
        }
        for (idx, outcome) in outcomes.iter_mut().enumerate().take(kept) {
            *outcome = Some(run_contained(ops, idx));
        }
        let mut pending = cells - kept;
        if drain_epoch(pool, &call.dones.1, &mut outcomes, &mut pending, deadline) {
            // The deadline passed. A cell some thread has begun cannot
            // be abandoned — that thread holds the operands — but every
            // other one is taken back, recomputed here while the begun
            // ones finish, and the rest of the call stays on this
            // thread. Everything from here on is watchdog aftermath.
            let _watchdog = telemetry::span(TraceKind::Watchdog);
            let mut missing = 0usize;
            for (state, outcome) in states.iter().zip(&mut outcomes) {
                if outcome.is_none() && claim(state, REVOKED) {
                    *outcome = Some(Outcome::Revoked);
                    missing += 1;
                }
            }
            pending -= missing;
            if missing > 0 {
                RT.timeouts.fetch_add(1, Ordering::Relaxed);
                crate::trace::health_event(
                    crate::trace::HealthEventKind::WatchdogFire,
                    telemetry::current_trace(),
                    missing as u64,
                    "epoch watchdog expired; missing blocks recomputed serially",
                );
                call.degraded = true;
                if call.worst.is_none() {
                    call.worst = Some(GemmError::EpochTimeout {
                        timeout_ms: call
                            .epoch_timeout
                            .map_or(0, |d| d.as_millis().min(u128::from(u64::MAX)) as u64),
                        missing_blocks: missing,
                        workers_alive: pool.workers(),
                    });
                }
            }
            settle(ops, &mut outcomes, &mut call.worst)?;
            drain_epoch(pool, &call.dones.1, &mut outcomes, &mut pending, None);
        }
        // the healthy epoch finds every outcome clean and does nothing here
        settle(ops, &mut outcomes, &mut call.worst)
    })
}

/// Layers 1–3 of Figure 2, the one walk: single GEMMs (a batch of one)
/// and shared-B batches, on the calling thread or dealt out over the
/// pool, as `plan` says.
///
/// Shapes must already be validated (all `A_i` are `m×k` under
/// `transa`, all `C_i` are `m×n`) and not degenerate: a call with
/// `α = 0` or an empty dimension is `β·C`, which the caller
/// ([`crate::gemm::gemm_driver`]) does itself. β is applied here, by each
/// cell to its own part of C, so no pass over all of C comes first.
/// A [`BSource::Prepacked`] plan's cells address `call.prepacked`, which
/// must have been built for exactly this `(transb, nr, kc, nc)` geometry.
///
/// Each `jj` panel is cut into the cells of the plan's grid, and a cell
/// is loops 2 and 3 on its own piece ([`run_cell`]). Under
/// [`Parallelism::Serial`] the grid is one cell, computed here — straight
/// on C unless it is a batch, whose blocks span entries only staged: no
/// pool, no barrier, and a panic unwinds into the caller. Under
/// [`Parallelism::Pool`] the panel is one *epoch*: this
/// thread submits all cells but the first as jobs that borrow the
/// operands through a [`Gate`], computes the first itself, helps drain
/// the queue, and waits at the barrier. It does no packing and no staging
/// that is not its own cell's.
///
/// On the pool faults are contained per cell (see the module docs):
/// `Ok(())` means C holds the bit-exact serial result, possibly via
/// recovery; [`GemmError::EpochTimeout`] means the same but cells not
/// begun by the plan's `epoch_timeout` were taken back; any other error —
/// on either runtime [`GemmError::AllocFailure`] when not even the
/// smallest packing chunk can be had — means C is unspecified.
pub(crate) fn gemm_walk<T: PoolScalar, K: KernelSet<T>>(
    plan: &Plan,
    call: Call<'_, T, K>,
    c_batch: &mut [MatrixViewMut<'_, T>],
) -> Result<(), GemmError> {
    debug_assert_eq!(call.a_batch.len(), c_batch.len());
    let Plan { m, n, k, batch, .. } = *plan;
    let BlockSizes { kc, mc, nc, .. } = plan.blocks;
    let nr = call.kernel.nr().max(1);

    let mut pooled = match plan.runtime {
        Parallelism::Serial => None,
        Parallelism::Pool(_) => Some(CallState {
            shard: current_pool_override(),
            dones: channel::unbounded(),
            epoch_timeout: plan.epoch_timeout,
            degraded: false,
            worst: None,
        }),
    };
    for (panel, jj) in (0..n).step_by(nc).enumerate() {
        let nc_eff = nc.min(n - jj);
        let grid = if nc_eff == nc.min(n) {
            plan.grid
        } else {
            plan.tail_grid
        };
        let (cells, col_chunks) = panel_cells(m * batch, nc_eff, mc, nr, grid);
        // every entry's window on the panel, dealt out chunk by chunk
        let mut c_chunks: Vec<Vec<MatrixViewMut<'_, T>>> = col_chunks
            .iter()
            .map(|_| Vec::with_capacity(c_batch.len()))
            .collect();
        for c in c_batch.iter_mut() {
            let mut rest = c.sub_mut(0, jj, m, nc_eff);
            for (views, &(_, ncols)) in c_chunks.iter_mut().zip(&col_chunks) {
                let (chunk, tail) = rest.split_cols(ncols);
                views.push(chunk);
                rest = tail;
            }
        }
        let ops = Operands {
            call,
            plan,
            jj,
            gepp0: (panel * k.div_ceil(kc)) as u64,
            contained: pooled.is_some(),
            cells,
            c_chunks: c_chunks.into_iter().map(RwLock::new).collect(),
        };
        match &mut pooled {
            // degree 1 cuts one cell. Only staged do a batch's blocks span
            // its entries, so a batch stages here too; if that fails, C is
            // untouched and the cell is computed straight on it, as
            // recovery does.
            None => {
                let cell = &ops.cells[0];
                if batch == 1 || run_cell(&ops, cell, true).is_err() {
                    run_cell(&ops, cell, false)?;
                }
            }
            Some(state) => run_panel(&ops, state)?,
        }
    }
    pooled.and_then(|state| state.worst).map_or(Ok(()), Err)
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
    fn the_grid_packs_the_fewest_words_per_cell() {
        let (mc, nr) = (56, 6);
        let grid = |m: usize, batch: usize, n: usize, mc: usize, degree: usize, pack_b: bool| {
            let tasks = row_tasks(m, batch, mc);
            cell_grid(tasks, m * batch, n, mc, nr, degree, pack_b)
        };
        // 512³ on two threads: all of A and half of B per cell ties half
        // of A and all of B, and the tie goes to the columns
        assert_eq!(grid(512, 1, 512, mc, 2, true), (1, 2));
        assert_eq!(grid(512, 1, 512, mc, 3, true), (1, 3));
        // a single mc block has only columns to split, packing or not
        for p in [2, 3, 5] {
            assert_eq!(grid(8, 1, 512, mc, p, false), (1, p));
            assert_eq!(grid(8, 1, 512, mc, p, true), (1, p));
        }
        // m >> n with fewer slivers than threads (an LU trailing update):
        // rows, though every cell then packs all of B
        assert_eq!(grid(4096, 1, 12, mc, 5, true), (5, 1));
        // a batch against a PrepackedB has no B pack to duplicate: entries
        assert_eq!(grid(16, 8, 512, mc, 2, false), (2, 1));
        assert_eq!(grid(16, 8, 512, mc, 2, true), (1, 2));
        // one cell per thread beats more, smaller cells run in two rounds
        assert_eq!(grid(1024, 1, 1024, 24, 8, true), (4, 2));
        // fewer cells than threads only when the shape has no more
        assert_eq!(grid(48, 1, 6, 64, 8, true), (1, 1));
        assert_eq!(grid(100, 1, 12, 56, 8, true), (2, 2));
        // one thread, one cell
        assert_eq!(grid(512, 4, 512, mc, 1, true), (1, 1));
        // a batch's rows stack: two 16-row entries are one block, and
        // seven 20-row entries at mc = 8 are 140 rows in 18 tasks, not the
        // 21 they would be per entry
        assert_eq!(row_tasks(16, 2, mc), 1);
        assert_eq!(grid(16, 2, 512, mc, 2, false), (1, 2));
        assert_eq!(row_tasks(20, 7, 8), 18);
    }

    /// Five 13-row entries stacked, in 8-row blocks.
    #[test]
    fn stacked_rows_are_cut_where_entries_meet() {
        let runs = |r0, rows| runs(13, r0, rows).collect::<Vec<_>>();
        assert_eq!(runs(0, 8), [(0, 0, 8)]);
        assert_eq!(runs(8, 8), [(0, 8, 5), (1, 0, 3)]);
        assert_eq!(runs(24, 8), [(1, 11, 2), (2, 0, 6)]);
        assert_eq!(runs(0, 39), [(0, 0, 13), (1, 0, 13), (2, 0, 13)]);
        assert_eq!(runs(64, 1), [(4, 12, 1)]);
        let cell = Cell {
            r0: 48,
            r1: 65,
            chunk: 0,
            col0: 0,
            ncols: 1,
        };
        let blocks: Vec<_> = cell.blocks(8).collect();
        assert_eq!(blocks, [(48, 8), (56, 8), (64, 1)]);
    }

    /// The 8×6 kernel blocked `(kc, mc, nc)` on `Pool(degree)`.
    fn on_pool((kc, mc, nc): (usize, usize, usize), degree: usize) -> crate::gemm::GemmConfig {
        crate::gemm::GemmConfig::for_kernel(crate::microkernel::MicroKernelKind::Mk8x6, 1)
            .with_blocks(kc, mc, nc)
            .with_parallelism(Parallelism::Pool(degree))
    }

    /// f64 pooled call on `a`, `b` into a copy of `c0`, bit pattern out.
    fn pooled(
        (transa, transb): (Transpose, Transpose),
        a: &[crate::matrix::Matrix],
        b: &crate::matrix::Matrix,
        c0: &crate::matrix::Matrix,
        blocks: (usize, usize, usize),
        degree: usize,
    ) -> Vec<Vec<u64>> {
        let mut c: Vec<_> = a.iter().map(|_| c0.clone()).collect();
        let a_views: Vec<_> = a.iter().map(crate::matrix::Matrix::view).collect();
        let mut c_views: Vec<_> = c.iter_mut().map(crate::matrix::Matrix::view_mut).collect();
        let cfg = on_pool(blocks, degree);
        let b = b.view();
        crate::gemm::gemm_driver(
            transa,
            transb,
            1.25,
            &a_views,
            &b,
            -0.5,
            &mut c_views,
            &cfg,
            None,
        )
        .expect("pooled gemm");
        drop(c_views);
        c.iter()
            .map(|c| c.as_slice().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn grid_cols_tiles_the_panel_in_whole_slivers() {
        // Every grid the pool can cut — rows, columns, both, ragged in
        // every direction, over several panels and batch entries — covers
        // each element of C exactly once: the result is the one-cell
        // (degree 1) result, bit for bit. A cell that started off a
        // sliver boundary, overlapped a neighbour or missed a ragged
        // edge would show.
        use crate::matrix::Matrix;
        let blocks = (16, 24, 30);
        for (m, n, k, batch) in [
            (70, 45, 33, 1),
            (8, 75, 40, 1),
            (100, 11, 20, 1),
            (17, 40, 9, 3),
        ] {
            let a: Vec<Matrix> = (0..batch).map(|i| Matrix::random(m, k, 400 + i)).collect();
            let b = Matrix::random(k, n, 410);
            let c0 = Matrix::random(m, n, 411);
            let no = (Transpose::No, Transpose::No);
            let want = pooled(no, &a, &b, &c0, blocks, 1);
            for degree in [2, 3, 5, 8] {
                assert_eq!(
                    pooled(no, &a, &b, &c0, blocks, degree),
                    want,
                    "{m}x{n}x{k} x{batch} at degree {degree}"
                );
            }
        }
        // and the chunks themselves start on sliver boundaries
        for (n, c) in [(96, 4), (100, 4), (12, 8), (5, 3)] {
            let chunks = partition_rows(n, 6, c);
            assert!(chunks.iter().all(|&(col0, _)| col0 % 6 == 0));
            assert_eq!(chunks.iter().map(|&(_, w)| w).sum::<usize>(), n);
            assert_eq!(chunks.len(), c.min(n.div_ceil(6)));
        }
    }

    #[test]
    fn drain_epoch_times_out_without_dones() {
        // Deterministic watchdog check: one outstanding cell whose done
        // never arrives must trip the deadline, not hang.
        let pool = WorkerPool::global();
        let (_tx, rx) = channel::unbounded::<Done>();
        let mut outcomes = vec![None];
        let mut pending = 1;
        let deadline = Instant::now() + Duration::from_millis(25);
        assert!(drain_epoch(
            pool,
            &rx,
            &mut outcomes,
            &mut pending,
            Some(deadline)
        ));
        assert!(Instant::now() >= deadline);
        assert_eq!((pending, &outcomes), (1, &vec![None]));
    }

    #[test]
    fn drain_epoch_separates_failed_slots() {
        // Dones arrive in completion order; each lands on its own cell
        // with its own outcome, and the barrier opens at the last one.
        let pool = WorkerPool::global();
        let (tx, rx) = channel::unbounded::<Done>();
        for (idx, outcome) in [(2, Outcome::Panicked), (0, Outcome::Clean)] {
            tx.send(Done { idx, outcome })
                .map_err(|_| "send failed")
                .unwrap();
        }
        // cell 1 is this thread's own, settled before the barrier
        let mut outcomes = vec![None, Some(Outcome::Clean), None];
        let mut pending = 2;
        assert!(!drain_epoch(pool, &rx, &mut outcomes, &mut pending, None));
        assert_eq!(pending, 0);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::Clean),
                Some(Outcome::Clean),
                Some(Outcome::Panicked)
            ]
        );
    }

    #[test]
    fn a_claim_and_a_revocation_exclude_each_other() {
        let state = AtomicU8::new(UNCLAIMED);
        assert!(claim(&state, CLAIMED));
        assert!(!claim(&state, REVOKED), "a begun cell was taken back");
        assert!(!claim(&state, CLAIMED), "a cell was begun twice");
        let state = AtomicU8::new(UNCLAIMED);
        assert!(claim(&state, REVOKED));
        assert!(!claim(&state, CLAIMED), "a revoked cell was begun");
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

        let (m, n, k) = (70, 45, 33);
        let a = Matrix::random(m, k, 301);
        let b = Matrix::random(k, n, 302);
        let cfg = on_pool((16, 24, 18), 3);
        let run = |shard: Option<&Arc<WorkerPool>>| -> Matrix {
            let mut c = Matrix::zeros(m, n);
            let mut go = || {
                let no = Transpose::No;
                crate::gemm::try_gemm(
                    no,
                    no,
                    1.0,
                    &a.view(),
                    &b.view(),
                    1.0,
                    &mut c.view_mut(),
                    &cfg,
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
