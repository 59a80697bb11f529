//! The span stream: per-thread counters, one per-thread ring of records,
//! and model-vs-measured attribution (DESIGN.md §11).
//!
//! The paper's method is *attribution*: its model
//! `T ≤ Fμ + (1+κ)Wπ·ψ(γ)` predicts where cycles go. This module is the
//! one recorder of where they actually went, in three tiers:
//!
//! 1. **Counters** — per-thread monotone totals: FLOPs retired, bytes
//!    packed (A and B separately), bytes of B read in place, GEBP blocks
//!    executed, caller steals, arena hits vs fresh allocations. Recorded
//!    at the single choke points of each quantity ([`crate::gebp::gebp`]
//!    for FLOPs, blocks and in-place B, [`crate::pack`] for packed
//!    bytes), so totals are exact to the last operation for every
//!    runtime (Serial/Pool).
//! 2. **Records** — one [`TraceEvent`] per span or point event, in the
//!    recording thread's lane: an overwrite-oldest ring of constant
//!    length. Its [`TraceKind`] is an execution phase timed on the hot
//!    paths (whose exact per-lane totals also accumulate) or a step of a
//!    service request's lifecycle; it carries the lane's current trace id
//!    (0 outside the service; pool jobs inherit their caller's) and
//!    GEPP/cell context. The hot path touches one thread-local and
//!    thread-owned atomics: no allocation, no locks.
//! 3. **Derived attribution** — [`GemmReport`] turns a [`Snapshot`]
//!    into achieved GFLOPS, achieved γ = F/W, pack/compute/wait
//!    fractions, and compares them against
//!    `perfmodel::model::{time_bound, perf_lower_bound}` for the same
//!    blocking, flagging runs whose measured efficiency falls below the
//!    model's lower bound (requires `DGEMM_PEAK_GFLOPS` to anchor the
//!    peak).
//!
//! Everything else reads the stream: [`snapshot`],
//! [`crate::service::GemmService::trace_of`], the chrome exporter and
//! the service's per-request pack/compute histograms.
//!
//! Recording sites are compiled under the `telemetry` cargo feature (on
//! by default); without it every one is an `#[inline(always)]` no-op and
//! the stream reads empty. The *pool lifecycle* counters
//! ([`RuntimeSnapshot`]) are always compiled — `pool::status()` sources
//! them and must work in every build.
//!
//! ## Semantics worth knowing
//!
//! - Counters count **work performed**, not unique data: fault recovery
//!   replays packing and compute, so a contained fault inflates byte
//!   and FLOP totals by the replayed work (exactly the cost the
//!   operator wants to see).
//! - Packed-byte totals are **buffer bytes** including the zero padding
//!   to `mr`/`nr` sliver boundaries — the same quantity `pack.rs`
//!   allocates and the kernels stream.
//! - `packed_b_bytes` means bytes *written into a packed panel*. A serial
//!   call with a single `mc` block packs none ([`crate::gemm`] reads B
//!   where the caller stored it, with no `PackB` span); its kernels'
//!   reads are `b_in_place_bytes`, unpadded `kc·cols` elements per GEBP.
//!   Every B element a kernel consumed came through one of the two.
//! - [`reset`] zeroes the per-thread counters and rings but *not* the
//!   lifetime runtime counters: `pool::status()` reports totals since
//!   process start.
//! - A thread's lane is recycled after the thread exits; totals and
//!   records are preserved (they describe the process, not the OS
//!   thread).
//!
//! Env control: `DGEMM_TELEMETRY=summary|json|off` (default `off`)
//! selects what [`emit`] prints to stderr; `json` also prints one
//! chrome-trace object per resolved service request. Any other value is
//! a [`GemmError::BadConfig`] from [`crate::gemm::GemmConfig::auto`].

#![forbid(unsafe_code)]

pub use perfmodel::cacheblock::BlockSizes;

use crate::GemmError;
use perfmodel::model::{
    efficiency_lower_bound, perf_lower_bound, time_bound, MachineCosts, OverlapFactor,
};
use perfmodel::ratio::GebpTraffic;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Number of execution phases: the first kinds of [`TraceKind::ALL`],
/// the ones the exact per-lane time counters index.
pub const PHASES: usize = 6;

/// What a record of the span stream is: one of the [`PHASES`] execution
/// phases of a GEMM call (spans timed on the hot paths), or a step of a
/// service request's lifecycle (recorded by [`crate::service`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Packing an `mc×kc` block of A into sliver layout.
    PackA,
    /// Packing a `kc×nc` panel of B into sliver layout.
    PackB,
    /// GEBP compute (layers 4–7) on packed data.
    Compute,
    /// Caller parked at the epoch barrier waiting for worker dones.
    Barrier,
    /// Settling an epoch after the watchdog deadline expired.
    Watchdog,
    /// Serial bit-identical recovery of a faulted block.
    Recovery,
    /// The request arrived at `submit` (point event).
    Submitted,
    /// Admission control accepted the request (point event).
    Admitted,
    /// Shed at admission: global queue bound (point; terminal).
    ShedOverload,
    /// Shed at admission: tenant quota (point; terminal).
    ShedQuota,
    /// Refused: shapes, shutdown, cancellation, exhausted retries
    /// (point event).
    Rejected,
    /// Time between admission and scheduler pickup (span; `dur_ns` is
    /// the queue wait).
    Queued,
    /// Folded into a coalesced batch (`arg0` = batch ID — the group
    /// leader's trace ID — and `arg1` = batch size; point event).
    Coalesced,
    /// Handed to an execution shard (`arg0` = shard index, `arg1` = 1
    /// for the pooled runtime, 0 for serial; point event).
    Dispatched,
    /// The batch execution the request rode in (span; wall clock of the
    /// whole group attempt chain).
    Executed,
    /// One retry of the group after a recoverable pool fault
    /// (`arg0` = attempt number; point event).
    Retry,
    /// The group degraded to the serial runtime (point event).
    Degrade,
    /// Per-request serial recovery after a contained panic (point).
    SerialRecovery,
    /// The request resolved (`arg0`: 0 ok, 1 overloaded, 2 deadline,
    /// 3 rejected; point event).
    Resolved,
}

impl TraceKind {
    /// Every kind in schema order: the execution phases first.
    pub const ALL: [TraceKind; 19] = [
        TraceKind::PackA,
        TraceKind::PackB,
        TraceKind::Compute,
        TraceKind::Barrier,
        TraceKind::Watchdog,
        TraceKind::Recovery,
        TraceKind::Submitted,
        TraceKind::Admitted,
        TraceKind::ShedOverload,
        TraceKind::ShedQuota,
        TraceKind::Rejected,
        TraceKind::Queued,
        TraceKind::Coalesced,
        TraceKind::Dispatched,
        TraceKind::Executed,
        TraceKind::Retry,
        TraceKind::Degrade,
        TraceKind::SerialRecovery,
        TraceKind::Resolved,
    ];

    /// Stable lowercase label (used by the JSON schemas).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::PackA => "pack_a",
            TraceKind::PackB => "pack_b",
            TraceKind::Compute => "compute",
            TraceKind::Barrier => "barrier",
            TraceKind::Watchdog => "watchdog",
            TraceKind::Recovery => "recovery",
            TraceKind::Submitted => "submitted",
            TraceKind::Admitted => "admitted",
            TraceKind::ShedOverload => "shed_overload",
            TraceKind::ShedQuota => "shed_quota",
            TraceKind::Rejected => "rejected",
            TraceKind::Queued => "queued",
            TraceKind::Coalesced => "coalesced",
            TraceKind::Dispatched => "dispatched",
            TraceKind::Executed => "executed",
            TraceKind::Retry => "retry",
            TraceKind::Degrade => "degrade",
            TraceKind::SerialRecovery => "serial_recovery",
            TraceKind::Resolved => "resolved",
        }
    }

    /// Position in [`TraceKind::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Nanoseconds since the process-wide monotonic epoch (first use): the
/// one clock every record, the journal and [`crate::trace::uptime_ms`]
/// are stamped on.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Always-on pool lifecycle counters.
//
// They live here rather than in `WorkerPool` so `pool::status()` and the
// telemetry snapshot read one counter system. They are deliberately
// *outside* the `telemetry` feature: the fault-tolerance observability
// must survive a no-default-features build.
// ---------------------------------------------------------------------

pub(crate) struct RuntimeCounters {
    /// Jobs enqueued over the pool's lifetime.
    pub(crate) tasks: AtomicU64,
    /// Epochs with more cells than threads (threads race for cells).
    pub(crate) dynamic_epochs: AtomicU64,
    /// Epochs with at most one cell per thread.
    pub(crate) static_epochs: AtomicU64,
    /// Workers that exited their loop.
    pub(crate) deaths: AtomicU64,
    /// Replacement workers spawned for dead ones.
    pub(crate) respawns: AtomicU64,
    /// Worker spawn attempts that failed.
    pub(crate) spawn_failures: AtomicU64,
    /// Cells recomputed by the caller after a worker panic or loss.
    pub(crate) faults_contained: AtomicU64,
    /// Epochs in which the watchdog deadline took cells back.
    pub(crate) timeouts: AtomicU64,
    /// Dispatch decisions that chose the serial runtime.
    pub(crate) dispatch_serial: AtomicU64,
    /// Dispatch decisions that chose the pool runtime.
    pub(crate) dispatch_pool: AtomicU64,
    /// Dispatch decisions whose chosen runtime measured slower than
    /// the alternative's calibrated prediction (model mispredicts).
    pub(crate) dispatch_mispredicts: AtomicU64,
    /// Epochs whose grid split the panel's columns.
    pub(crate) grid_epochs: AtomicU64,
}

pub(crate) static RT: RuntimeCounters = RuntimeCounters {
    tasks: AtomicU64::new(0),
    dynamic_epochs: AtomicU64::new(0),
    static_epochs: AtomicU64::new(0),
    deaths: AtomicU64::new(0),
    respawns: AtomicU64::new(0),
    spawn_failures: AtomicU64::new(0),
    faults_contained: AtomicU64::new(0),
    timeouts: AtomicU64::new(0),
    dispatch_serial: AtomicU64::new(0),
    dispatch_pool: AtomicU64::new(0),
    dispatch_mispredicts: AtomicU64::new(0),
    grid_epochs: AtomicU64::new(0),
};

// ---------------------------------------------------------------------
// Always-on pack-cache counters.
//
// Like `RT`, these stay outside the `telemetry` feature: the cache-
// semantics tests pin hit/miss/evict accounting under
// `--no-default-features` too. Unlike `RT` they are *interval*
// counters: [`reset`] zeroes them, so a measured region's cache
// behavior reads out directly.
// ---------------------------------------------------------------------

pub(crate) struct CacheCounters {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) invalidations: AtomicU64,
    pub(crate) bytes_saved: AtomicU64,
}

pub(crate) static PACK_CACHE: CacheCounters = CacheCounters {
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    evictions: AtomicU64::new(0),
    invalidations: AtomicU64::new(0),
    bytes_saved: AtomicU64::new(0),
};

pub(crate) fn cache_hit(bytes_saved: u64) {
    PACK_CACHE.hits.fetch_add(1, Ordering::Relaxed);
    PACK_CACHE
        .bytes_saved
        .fetch_add(bytes_saved, Ordering::Relaxed);
}

pub(crate) fn cache_miss() {
    PACK_CACHE.misses.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn cache_evict(n: u64) {
    PACK_CACHE.evictions.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn cache_invalidate(n: u64) {
    PACK_CACHE.invalidations.fetch_add(n, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Always-on service-layer counters.
//
// Process-wide totals across every `crate::service::GemmService`
// instance (each service also keeps per-instance copies for its own
// scrapeable snapshot). Like `RT` they survive a no-default-features
// build and are never zeroed by [`reset`]: the serving robustness
// contract — every admitted request resolves exactly once — is audited
// against these.
// ---------------------------------------------------------------------

pub(crate) struct ServiceCounters {
    pub(crate) admitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) shed_overload: AtomicU64,
    pub(crate) shed_quota: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) deadline_misses: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) coalesced_batches: AtomicU64,
    pub(crate) coalesced_requests: AtomicU64,
    pub(crate) panics_contained: AtomicU64,
}

impl ServiceCounters {
    /// A zeroed counter block (`const` so it also backs the `SVC`
    /// static and per-service-instance mirrors).
    pub(crate) const fn new() -> ServiceCounters {
        ServiceCounters {
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            coalesced_batches: AtomicU64::new(0),
            coalesced_requests: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
        }
    }
}

pub(crate) static SVC: ServiceCounters = ServiceCounters::new();

// ---------------------------------------------------------------------
// Always-on weight-store counters.
//
// Process-wide totals for the on-disk pre-packed weight store
// ([`crate::store`], DESIGN.md §17). Like `SVC` they survive a
// no-default-features build and are never zeroed by [`reset`]: a
// fleet audits warm-start health (every boot should load, verify and
// attach; load_failures > 0 means corrupt blobs on disk) against
// process-lifetime totals.
// ---------------------------------------------------------------------

pub(crate) struct StoreCounters {
    pub(crate) loads: AtomicU64,
    pub(crate) load_failures: AtomicU64,
    pub(crate) verifies: AtomicU64,
    pub(crate) verify_failures: AtomicU64,
    pub(crate) attaches: AtomicU64,
    pub(crate) bytes_loaded: AtomicU64,
}

pub(crate) static STORE: StoreCounters = StoreCounters {
    loads: AtomicU64::new(0),
    load_failures: AtomicU64::new(0),
    verifies: AtomicU64::new(0),
    verify_failures: AtomicU64::new(0),
    attaches: AtomicU64::new(0),
    bytes_loaded: AtomicU64::new(0),
};

pub(crate) fn store_load(bytes: u64) {
    STORE.loads.fetch_add(1, Ordering::Relaxed);
    STORE.bytes_loaded.fetch_add(bytes, Ordering::Relaxed);
}

pub(crate) fn store_load_failure() {
    STORE.load_failures.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn store_verify(ok: bool) {
    STORE.verifies.fetch_add(1, Ordering::Relaxed);
    if !ok {
        STORE.verify_failures.fetch_add(1, Ordering::Relaxed);
    }
}

pub(crate) fn store_attach() {
    STORE.attaches.fetch_add(1, Ordering::Relaxed);
}

/// Weight-store activity since process start (see [`crate::store`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Blobs decoded successfully (header + checksum validated).
    pub loads: u64,
    /// Blob decodes rejected with [`crate::GemmError::BadStore`].
    pub load_failures: u64,
    /// Source-digest verifications performed at attach time.
    pub verifies: u64,
    /// Verifications whose digest did not match the live operand.
    pub verify_failures: u64,
    /// Loaded blobs seeded into a [`crate::prepack::PackCache`].
    pub attaches: u64,
    /// Total payload bytes of successfully decoded blobs.
    pub bytes_loaded: u64,
}

fn store_snapshot() -> StoreSnapshot {
    StoreSnapshot {
        loads: STORE.loads.load(Ordering::Relaxed),
        load_failures: STORE.load_failures.load(Ordering::Relaxed),
        verifies: STORE.verifies.load(Ordering::Relaxed),
        verify_failures: STORE.verify_failures.load(Ordering::Relaxed),
        attaches: STORE.attaches.load(Ordering::Relaxed),
        bytes_loaded: STORE.bytes_loaded.load(Ordering::Relaxed),
    }
}

/// Service-layer activity since process start, across every
/// [`crate::service::GemmService`] instance (see DESIGN.md §15).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Requests accepted past admission control.
    pub admitted: u64,
    /// Admitted requests resolved with a successful result.
    pub completed: u64,
    /// Requests shed at admission because the queue was full (or
    /// health-shrunk).
    pub shed_overload: u64,
    /// Requests shed at admission by a tenant's queue quota.
    pub shed_quota: u64,
    /// Requests resolved with [`crate::service::ServiceError::Rejected`]
    /// (shutdown, cancellation, invalid shapes, exhausted retries).
    pub rejected: u64,
    /// Requests resolved with `DeadlineExceeded`.
    pub deadline_misses: u64,
    /// Execution retries after a recoverable pool fault.
    pub retries: u64,
    /// Request groups executed serially because a shard was unhealthy
    /// (graceful degradation), plus watchdog-recovered epochs served.
    pub degraded: u64,
    /// Coalesced `batch` executions (group size ≥ 2).
    pub coalesced_batches: u64,
    /// Requests served through a coalesced batch.
    pub coalesced_requests: u64,
    /// Service-layer panics contained by the scheduler's catch_unwind.
    pub panics_contained: u64,
}

fn service_snapshot() -> ServiceSnapshot {
    ServiceSnapshot {
        admitted: SVC.admitted.load(Ordering::Relaxed),
        completed: SVC.completed.load(Ordering::Relaxed),
        shed_overload: SVC.shed_overload.load(Ordering::Relaxed),
        shed_quota: SVC.shed_quota.load(Ordering::Relaxed),
        rejected: SVC.rejected.load(Ordering::Relaxed),
        deadline_misses: SVC.deadline_misses.load(Ordering::Relaxed),
        retries: SVC.retries.load(Ordering::Relaxed),
        degraded: SVC.degraded.load(Ordering::Relaxed),
        coalesced_batches: SVC.coalesced_batches.load(Ordering::Relaxed),
        coalesced_requests: SVC.coalesced_requests.load(Ordering::Relaxed),
        panics_contained: SVC.panics_contained.load(Ordering::Relaxed),
    }
}

/// Pack-cache activity since the last [`reset`] (process start if
/// never reset), across every per-type [`crate::prepack::PackCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups served from a cached pre-pack.
    pub hits: u64,
    /// Lookups that packed fresh panels (or failed to allocate them).
    pub misses: u64,
    /// Entries evicted to respect a capacity bound.
    pub evictions: u64,
    /// Entries dropped by `invalidate` / `bump_generation`.
    pub invalidations: u64,
    /// Packed-B bytes whose re-packing the cache avoided.
    pub bytes_saved: u64,
}

fn cache_snapshot() -> CacheSnapshot {
    CacheSnapshot {
        hits: PACK_CACHE.hits.load(Ordering::Relaxed),
        misses: PACK_CACHE.misses.load(Ordering::Relaxed),
        evictions: PACK_CACHE.evictions.load(Ordering::Relaxed),
        invalidations: PACK_CACHE.invalidations.load(Ordering::Relaxed),
        bytes_saved: PACK_CACHE.bytes_saved.load(Ordering::Relaxed),
    }
}

fn cache_reset() {
    PACK_CACHE.hits.store(0, Ordering::Relaxed);
    PACK_CACHE.misses.store(0, Ordering::Relaxed);
    PACK_CACHE.evictions.store(0, Ordering::Relaxed);
    PACK_CACHE.invalidations.store(0, Ordering::Relaxed);
    PACK_CACHE.bytes_saved.store(0, Ordering::Relaxed);
}

/// Pool-runtime lifecycle totals **since process start** ([`reset`]
/// does not touch them; `pool::status()` is defined in these terms).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeSnapshot {
    /// Jobs enqueued over the pool's lifetime: one per cell of an
    /// epoch's grid, except the cell the caller keeps.
    pub tasks: u64,
    /// Epochs (barriers: one per `jj` panel of a pooled call) whose grid
    /// had more cells than threads, so threads raced for cells.
    pub dynamic_epochs: u64,
    /// Epochs whose grid had at most one cell per thread.
    pub static_epochs: u64,
    /// Workers that exited their loop.
    pub deaths: u64,
    /// Replacement workers spawned for dead ones.
    pub respawns: u64,
    /// Worker spawn attempts that failed.
    pub spawn_failures: u64,
    /// Cells recomputed by the caller after a worker panic or loss.
    pub faults_contained: u64,
    /// Epochs in which the watchdog deadline took cells back.
    pub timeouts: u64,
    /// Dispatch decisions that chose the serial runtime
    /// (see [`crate::dispatch`]).
    pub dispatch_serial: u64,
    /// Dispatch decisions that chose the pool runtime.
    pub dispatch_pool: u64,
    /// Dispatch decisions whose chosen runtime measured slower than
    /// the alternative's calibrated prediction (model mispredicts).
    pub dispatch_mispredicts: u64,
    /// Epochs whose grid split the panel's columns.
    pub grid_epochs: u64,
}

impl RuntimeSnapshot {
    /// Layer-3 epochs served by the pool (dynamic + static).
    #[must_use]
    pub fn epochs_served(&self) -> u64 {
        self.dynamic_epochs + self.static_epochs
    }
}

pub(crate) fn runtime_snapshot() -> RuntimeSnapshot {
    RuntimeSnapshot {
        tasks: RT.tasks.load(Ordering::Relaxed),
        dynamic_epochs: RT.dynamic_epochs.load(Ordering::Relaxed),
        static_epochs: RT.static_epochs.load(Ordering::Relaxed),
        deaths: RT.deaths.load(Ordering::Relaxed),
        respawns: RT.respawns.load(Ordering::Relaxed),
        spawn_failures: RT.spawn_failures.load(Ordering::Relaxed),
        faults_contained: RT.faults_contained.load(Ordering::Relaxed),
        timeouts: RT.timeouts.load(Ordering::Relaxed),
        dispatch_serial: RT.dispatch_serial.load(Ordering::Relaxed),
        dispatch_pool: RT.dispatch_pool.load(Ordering::Relaxed),
        dispatch_mispredicts: RT.dispatch_mispredicts.load(Ordering::Relaxed),
        grid_epochs: RT.grid_epochs.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Public snapshot types.
// ---------------------------------------------------------------------

/// One record of the span stream, as read back from a lane's ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The service request the record belongs to (0 outside the
    /// service).
    pub trace: u64,
    /// What the record is.
    pub kind: TraceKind,
    /// Kind-specific argument (see [`TraceKind`]; 0 for phases).
    pub arg0: u64,
    /// Kind-specific argument (see [`TraceKind`]; 0 for phases).
    pub arg1: u64,
    /// Start, nanoseconds on the process-wide monotonic clock.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for point events).
    pub dur_ns: u64,
    /// 1-based index, within its call, of the `(jj, kk)` step current
    /// when the record was written (`⌈k/kc⌉` per `jj` panel); 0 if unset.
    pub gepp: u64,
    /// First row of the `mc`-block current when the record was written,
    /// counted over a batch's rows stacked.
    pub block_row0: u64,
    /// First column, within its `jj` panel, of the grid cell current
    /// when the record was written (0 when the cell spans the panel).
    pub block_col0: u64,
    /// The lane (recording thread) the record was read from.
    pub lane: usize,
}

/// Telemetry totals of one recording lane (≈ one thread; lanes are
/// recycled when threads exit, so a lane accumulates the totals of
/// every thread that occupied it since the last [`reset`]).
#[derive(Clone, Debug, Default)]
pub struct ThreadSnapshot {
    /// Thread name of the most recent occupant (e.g. `dgemm-pool-3`).
    pub name: String,
    /// Useful FLOPs retired (`2·mc·nc·kc` per GEBP, unpadded).
    pub flops: u64,
    /// Bytes written into packed-A buffers (padded sliver layout).
    pub packed_a_bytes: u64,
    /// Bytes written into packed-B buffers (padded sliver layout).
    pub packed_b_bytes: u64,
    /// Bytes of B the kernels read from the caller's matrix without a
    /// pack (`kc·cols` elements per GEBP, unpadded).
    pub b_in_place_bytes: u64,
    /// GEBP block invocations executed on this lane.
    pub blocks: u64,
    /// Queued jobs this lane ran while parked at an epoch barrier.
    pub steals: u64,
    /// Arena buffer requests served from the free list.
    pub arena_hits: u64,
    /// Arena buffer requests that constructed a fresh buffer.
    pub arena_fresh: u64,
    /// Accumulated nanoseconds per phase, indexed as the first
    /// [`PHASES`] kinds of [`TraceKind::ALL`].
    pub phase_ns: [u64; PHASES],
    /// Completed spans per phase, indexed as `phase_ns`.
    pub phase_hits: [u64; PHASES],
    /// The surviving records of the lane's ring, oldest first.
    pub trace: Vec<TraceEvent>,
}

impl ThreadSnapshot {
    /// Accumulated nanoseconds in `phase` (0 for a lifecycle kind).
    #[must_use]
    pub fn phase_time(&self, phase: TraceKind) -> u64 {
        self.phase_ns.get(phase.index()).copied().unwrap_or(0)
    }

    /// `(pack, compute, wait)` fractions of this lane's accounted time
    /// (pack-A + pack-B + compute + barrier; watchdog/recovery nest the
    /// other phases and are excluded from the denominator). `None` when
    /// the lane recorded no time.
    #[must_use]
    pub fn fractions(&self) -> Option<(f64, f64, f64)> {
        let pack = self.phase_time(TraceKind::PackA) + self.phase_time(TraceKind::PackB);
        let compute = self.phase_time(TraceKind::Compute);
        let wait = self.phase_time(TraceKind::Barrier);
        let denom = pack + compute + wait;
        if denom == 0 {
            return None;
        }
        let d = denom as f64;
        Some((pack as f64 / d, compute as f64 / d, wait as f64 / d))
    }
}

/// A point-in-time copy of every telemetry counter: per-lane totals
/// plus the always-on pool lifecycle counters. Obtain with
/// [`snapshot`]; aggregate with the `total_*` helpers.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// One entry per recording lane (empty when the `telemetry` feature
    /// is disabled).
    pub threads: Vec<ThreadSnapshot>,
    /// Pool lifecycle totals since process start.
    pub runtime: RuntimeSnapshot,
    /// Pack-cache activity since the last [`reset`].
    pub cache: CacheSnapshot,
    /// Service-layer totals since process start.
    pub service: ServiceSnapshot,
    /// Weight-store totals since process start.
    pub store: StoreSnapshot,
}

impl Snapshot {
    /// FLOPs retired across all lanes.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.threads.iter().map(|t| t.flops).sum()
    }

    /// Packed-A bytes across all lanes.
    #[must_use]
    pub fn total_packed_a_bytes(&self) -> u64 {
        self.threads.iter().map(|t| t.packed_a_bytes).sum()
    }

    /// Packed-B bytes across all lanes.
    #[must_use]
    pub fn total_packed_b_bytes(&self) -> u64 {
        self.threads.iter().map(|t| t.packed_b_bytes).sum()
    }

    /// Bytes of B read in place across all lanes.
    #[must_use]
    pub fn total_b_in_place_bytes(&self) -> u64 {
        self.threads.iter().map(|t| t.b_in_place_bytes).sum()
    }

    /// GEBP blocks executed across all lanes.
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        self.threads.iter().map(|t| t.blocks).sum()
    }

    /// Barrier-wait steals across all lanes.
    #[must_use]
    pub fn total_steals(&self) -> u64 {
        self.threads.iter().map(|t| t.steals).sum()
    }

    /// Arena free-list hits across all lanes.
    #[must_use]
    pub fn total_arena_hits(&self) -> u64 {
        self.threads.iter().map(|t| t.arena_hits).sum()
    }

    /// Fresh arena buffer constructions across all lanes.
    #[must_use]
    pub fn total_arena_fresh(&self) -> u64 {
        self.threads.iter().map(|t| t.arena_fresh).sum()
    }

    /// Accumulated nanoseconds in `phase` across all lanes.
    #[must_use]
    pub fn total_phase_ns(&self, phase: TraceKind) -> u64 {
        self.threads.iter().map(|t| t.phase_time(phase)).sum()
    }
}

/// Whether recording sites are compiled in (the `telemetry` feature).
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

/// Copy every counter, span total and lane ring into a [`Snapshot`].
///
/// Reads are relaxed: a snapshot taken while GEMMs are in flight is a
/// consistent-enough view (each counter is individually monotone), and
/// one taken with the library quiescent is exact.
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        threads: record::thread_snapshots(),
        runtime: runtime_snapshot(),
        cache: cache_snapshot(),
        service: service_snapshot(),
        store: store_snapshot(),
    }
}

/// Zero the per-thread counters, span totals, lane rings (request
/// records included) and the pack-cache interval counters
/// ([`CacheSnapshot`]).
///
/// The pool lifecycle counters ([`RuntimeSnapshot`]) are *not* reset:
/// `pool::status()` reports totals since process start. Call before a
/// measured region; pair with [`snapshot`] after it.
pub fn reset() {
    #[cfg(test)]
    let _gate = reset_gate();
    record::reset_slots();
    cache_reset();
}

/// The unit tests share one process and these counters: a test that
/// reads back what it just recorded holds this gate while it does, and
/// so does [`reset`], so no sibling's reset lands in between.
#[cfg(test)]
pub(crate) fn reset_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Recording primitives (feature-gated hot path) and the stream's
// crate-internal readers.
// ---------------------------------------------------------------------

pub(crate) use record::{
    add_flops, add_packed_a_bytes, add_packed_b_bytes, count_arena_fresh, count_arena_hit,
    count_block, count_steal, current_trace, events_for, heads, phase_ns_since, record, set_cell,
    set_gepp, span, with_trace,
};

/// Record a point event of `trace`'s lifecycle, stamped now, on the
/// calling thread's lane.
pub(crate) fn event(trace: u64, kind: TraceKind, arg0: u64, arg1: u64) {
    record(trace, kind, now_ns(), 0, [arg0, arg1]);
}

#[cfg(feature = "telemetry")]
mod record {
    use super::{now_ns, ThreadSnapshot, TraceEvent, TraceKind, PHASES};
    use std::cell::RefCell;
    use std::sync::atomic::{fence, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, PoisonError};

    /// Records kept per lane, oldest overwritten: several GEPP sweeps of
    /// a large GEMM, or the last hundred or so request chains on a
    /// service's scheduler thread, at 80 KiB per lane.
    const RING_LEN: usize = 1024;

    /// A record as the ring stores it: trace, kind, arg0, arg1, start,
    /// duration, gepp, row0, col0.
    const WORDS: usize = 9;

    #[derive(Default)]
    struct Entry {
        /// Write index + 1 once `words` hold a whole record, 0 while
        /// they are being written: a reader that sees the same nonzero
        /// value before and after copying them has copied one record.
        seq: AtomicU64,
        words: [AtomicU64; WORDS],
    }

    #[derive(Default)]
    pub(super) struct Slot {
        name: Mutex<String>,
        flops: AtomicU64,
        packed_a_bytes: AtomicU64,
        packed_b_bytes: AtomicU64,
        b_in_place_bytes: AtomicU64,
        blocks: AtomicU64,
        steals: AtomicU64,
        arena_hits: AtomicU64,
        arena_fresh: AtomicU64,
        phase_ns: [AtomicU64; PHASES],
        phase_hits: [AtomicU64; PHASES],
        /// Records written since the last reset; record `i` lives at
        /// `ring[i % RING_LEN]` until record `i + RING_LEN` replaces it.
        head: AtomicU64,
        ring: Vec<Entry>,
    }

    impl Slot {
        fn new(name: String) -> Self {
            Slot {
                name: Mutex::new(name),
                ring: (0..RING_LEN).map(|_| Entry::default()).collect(),
                ..Slot::default()
            }
        }

        fn zero(&self) {
            let counters = [
                &self.flops,
                &self.packed_a_bytes,
                &self.packed_b_bytes,
                &self.b_in_place_bytes,
                &self.blocks,
                &self.steals,
                &self.arena_hits,
                &self.arena_fresh,
                &self.head,
            ];
            let phases = self.phase_ns.iter().chain(&self.phase_hits);
            let seqs = self.ring.iter().map(|e| &e.seq);
            for c in counters.into_iter().chain(phases).chain(seqs) {
                c.store(0, Ordering::Relaxed);
            }
        }

        /// Append one record (owner thread only). The Release fence keeps
        /// the 0 ahead of the words and the Release store publishes them;
        /// `read` pairs each with an Acquire.
        fn push(&self, words: [u64; WORDS]) {
            let i = self.head.fetch_add(1, Ordering::Relaxed);
            let e = &self.ring[i as usize % RING_LEN];
            e.seq.store(0, Ordering::Relaxed);
            fence(Ordering::Release);
            for (w, v) in e.words.iter().zip(words) {
                w.store(v, Ordering::Relaxed);
            }
            e.seq.store(i + 1, Ordering::Release);
        }

        /// The whole record at ring position `at`, if there is one, with
        /// its write index.
        fn read(&self, at: usize, lane: usize) -> Option<(u64, TraceEvent)> {
            let e = &self.ring[at];
            let seq = e.seq.load(Ordering::Acquire);
            let w: [u64; WORDS] = std::array::from_fn(|k| e.words[k].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if seq == 0 || e.seq.load(Ordering::Relaxed) != seq {
                return None;
            }
            let event = TraceEvent {
                trace: w[0],
                kind: *TraceKind::ALL.get(w[1] as usize)?,
                arg0: w[2],
                arg1: w[3],
                start_ns: w[4],
                dur_ns: w[5],
                gepp: w[6],
                block_row0: w[7],
                block_col0: w[8],
                lane,
            };
            Some((seq - 1, event))
        }

        /// Every whole record in the ring, in ring order.
        fn records(&self, lane: usize) -> impl Iterator<Item = TraceEvent> + '_ {
            (0..RING_LEN).filter_map(move |at| self.read(at, lane).map(|(_, e)| e))
        }
    }

    struct Registry {
        slots: Vec<Arc<Slot>>,
        /// Lanes whose occupant thread exited, available for reuse so
        /// short-lived caller threads (a request handler spawned per
        /// connection, a test's worker) don't grow the registry without
        /// bound.
        free: Vec<usize>,
    }

    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        slots: Vec::new(),
        free: Vec::new(),
    });

    fn lanes() -> Vec<Arc<Slot>> {
        REGISTRY
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .slots
            .clone()
    }

    /// A thread's recording state: its slot and what it tags records
    /// with. Only the owner thread reads or writes the tags.
    struct Lane {
        slot: Arc<Slot>,
        index: usize,
        /// The trace id spans are recorded under (0 = none).
        trace: u64,
        /// The current GEPP step and grid cell: gepp, row0, col0.
        ctx: [u64; 3],
    }

    impl Lane {
        fn record(&self, trace: u64, kind: TraceKind, start_ns: u64, dur_ns: u64, args: [u64; 2]) {
            let [gepp, row0, col0] = self.ctx;
            let kind = kind.index() as u64;
            self.slot.push([
                trace, kind, args[0], args[1], start_ns, dur_ns, gepp, row0, col0,
            ]);
        }
    }

    impl Drop for Lane {
        fn drop(&mut self) {
            let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
            reg.free.push(self.index);
        }
    }

    fn acquire() -> Lane {
        let name = std::thread::current()
            .name()
            .map_or_else(|| "unnamed".to_owned(), str::to_owned);
        let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        let (slot, index) = if let Some(index) = reg.free.pop() {
            let slot = Arc::clone(&reg.slots[index]);
            drop(reg);
            *slot.name.lock().unwrap_or_else(PoisonError::into_inner) = name;
            (slot, index)
        } else {
            let slot = Arc::new(Slot::new(name));
            reg.slots.push(Arc::clone(&slot));
            (slot, reg.slots.len() - 1)
        };
        Lane {
            slot,
            index,
            trace: 0,
            ctx: [0; 3],
        }
    }

    thread_local! {
        static LANE: RefCell<Option<Lane>> = const { RefCell::new(None) };
    }

    /// Run `f` on this thread's lane, acquiring one on first use.
    /// Silently skips recording during thread teardown (the TLS value
    /// may already be destroyed) — losing a span at exit beats aborting.
    #[inline]
    fn with_lane<R>(f: impl FnOnce(&mut Lane) -> R) -> Option<R> {
        LANE.try_with(|cell| Some(f(cell.try_borrow_mut().ok()?.get_or_insert_with(acquire))))
            .ok()
            .flatten()
    }

    #[inline]
    pub(crate) fn add_flops(n: u64) {
        with_lane(|l| l.slot.flops.fetch_add(n, Ordering::Relaxed));
    }

    #[inline]
    pub(crate) fn add_packed_a_bytes(n: u64) {
        with_lane(|l| l.slot.packed_a_bytes.fetch_add(n, Ordering::Relaxed));
    }

    #[inline]
    pub(crate) fn add_packed_b_bytes(n: u64) {
        with_lane(|l| l.slot.packed_b_bytes.fetch_add(n, Ordering::Relaxed));
    }

    /// One GEBP block retired: `n` flops, the block count and the bytes
    /// of B its kernels read in place, in a single lane access (this is
    /// the hottest recording site).
    #[inline]
    pub(crate) fn count_block(n: u64, in_place: u64) {
        with_lane(|l| {
            let s = &l.slot;
            s.flops.fetch_add(n, Ordering::Relaxed);
            s.blocks.fetch_add(1, Ordering::Relaxed);
            s.b_in_place_bytes.fetch_add(in_place, Ordering::Relaxed);
        });
    }

    #[inline]
    pub(crate) fn count_steal() {
        with_lane(|l| l.slot.steals.fetch_add(1, Ordering::Relaxed));
    }

    #[inline]
    pub(crate) fn count_arena_hit() {
        with_lane(|l| l.slot.arena_hits.fetch_add(1, Ordering::Relaxed));
    }

    #[inline]
    pub(crate) fn count_arena_fresh() {
        with_lane(|l| l.slot.arena_fresh.fetch_add(1, Ordering::Relaxed));
    }

    /// Tag subsequent records with the call's running count of
    /// `(jj, kk)` steps.
    #[inline]
    pub(crate) fn set_gepp(seq: u64) {
        with_lane(|l| l.ctx[0] = seq);
    }

    /// Tag subsequent records with the current grid cell: the `mc`-block's
    /// first stacked row and the cell's first column within its `jj` panel.
    #[inline]
    pub(crate) fn set_cell(row0: usize, col0: usize) {
        with_lane(|l| l.ctx = [l.ctx[0], row0 as u64, col0 as u64]);
    }

    /// The trace id this thread's spans are recorded under (0 = none).
    /// Reads only: a thread that never recorded gets no lane from it.
    pub(crate) fn current_trace() -> u64 {
        LANE.try_with(|c| c.try_borrow().ok()?.as_ref().map(|l| l.trace))
            .ok()
            .flatten()
            .unwrap_or(0)
    }

    /// Run `f` with this thread's spans recorded under `trace`; the
    /// previous id is restored on exit, panic included.
    pub(crate) fn with_trace<R>(trace: u64, f: impl FnOnce() -> R) -> R {
        struct Restore(u64);
        impl Drop for Restore {
            fn drop(&mut self) {
                with_lane(|l| l.trace = self.0);
            }
        }
        let prev = with_lane(|l| std::mem::replace(&mut l.trace, trace));
        let _restore = Restore(prev.unwrap_or(0));
        f()
    }

    /// Write one record of `trace` on this thread's lane.
    pub(crate) fn record(trace: u64, kind: TraceKind, start_ns: u64, dur_ns: u64, args: [u64; 2]) {
        with_lane(|l| l.record(trace, kind, start_ns, dur_ns, args));
    }

    /// RAII phase timer: created at phase entry, records on drop.
    #[must_use]
    pub(crate) struct SpanGuard {
        kind: TraceKind,
        start: u64,
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let dur = now_ns().saturating_sub(self.start);
            with_lane(|l| {
                let idx = self.kind.index();
                if idx < PHASES {
                    l.slot.phase_ns[idx].fetch_add(dur, Ordering::Relaxed);
                    l.slot.phase_hits[idx].fetch_add(1, Ordering::Relaxed);
                }
                l.record(l.trace, self.kind, self.start, dur, [0, 0]);
            });
        }
    }

    /// Open a phase span on the calling thread.
    #[inline]
    pub(crate) fn span(kind: TraceKind) -> SpanGuard {
        SpanGuard {
            kind,
            start: now_ns(),
        }
    }

    /// Every surviving record of `trace`, from every lane, oldest first.
    pub(crate) fn events_for(trace: u64) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = lanes()
            .iter()
            .enumerate()
            .flat_map(|(lane, s)| s.records(lane).filter(|e| e.trace == trace))
            .collect();
        out.sort_by_key(|e| (e.start_ns, e.kind.index()));
        out
    }

    /// Where every lane's ring stands now, by lane: the start of a
    /// window [`phase_ns_since`] reads back.
    pub(crate) fn heads() -> Vec<u64> {
        lanes()
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed))
            .collect()
    }

    /// Nanoseconds per execution phase that any lane recorded under
    /// `trace` since `from`. Only the window's records are read, so the
    /// cost is the lanes plus what they recorded since, not the rings.
    pub(crate) fn phase_ns_since(from: &[u64], trace: u64) -> [u64; PHASES] {
        let mut ns = [0; PHASES];
        for (lane, s) in lanes().iter().enumerate() {
            let end = s.head.load(Ordering::Relaxed);
            let oldest = end.saturating_sub(RING_LEN as u64);
            let start = from.get(lane).copied().unwrap_or(0).max(oldest);
            for i in start..end {
                if let Some((seq, e)) = s.read(i as usize % RING_LEN, lane) {
                    if seq == i && e.trace == trace && e.kind.index() < PHASES {
                        ns[e.kind.index()] += e.dur_ns;
                    }
                }
            }
        }
        ns
    }

    pub(super) fn thread_snapshots() -> Vec<ThreadSnapshot> {
        lanes()
            .iter()
            .enumerate()
            .map(|(lane, s)| {
                let mut trace: Vec<TraceEvent> = s.records(lane).collect();
                trace.sort_by_key(|e| e.start_ns);
                ThreadSnapshot {
                    name: s
                        .name
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .clone(),
                    flops: s.flops.load(Ordering::Relaxed),
                    packed_a_bytes: s.packed_a_bytes.load(Ordering::Relaxed),
                    packed_b_bytes: s.packed_b_bytes.load(Ordering::Relaxed),
                    b_in_place_bytes: s.b_in_place_bytes.load(Ordering::Relaxed),
                    blocks: s.blocks.load(Ordering::Relaxed),
                    steals: s.steals.load(Ordering::Relaxed),
                    arena_hits: s.arena_hits.load(Ordering::Relaxed),
                    arena_fresh: s.arena_fresh.load(Ordering::Relaxed),
                    phase_ns: std::array::from_fn(|i| s.phase_ns[i].load(Ordering::Relaxed)),
                    phase_hits: std::array::from_fn(|i| s.phase_hits[i].load(Ordering::Relaxed)),
                    trace,
                }
            })
            .collect()
    }

    pub(super) fn reset_slots() {
        for slot in lanes() {
            slot.zero();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn ring_overwrites_oldest() {
            // More spans than RING_LEN on one thread: the ring holds the
            // newest RING_LEN, totals hold everything.
            let _gate = super::super::reset_gate();
            reset_slots();
            for _ in 0..RING_LEN + 64 {
                drop(span(TraceKind::Compute));
            }
            let snaps = thread_snapshots();
            let me = snaps
                .iter()
                .find(|t| t.phase_hits[TraceKind::Compute.index()] >= (RING_LEN + 64) as u64)
                .expect("this thread's lane");
            assert!(me.trace.len() <= RING_LEN);
            assert!(!me.trace.is_empty());
        }

        #[test]
        fn spans_carry_context() {
            let _gate = super::super::reset_gate();
            set_gepp(7);
            set_cell(112, 48);
            drop(span(TraceKind::PackA));
            let snaps = thread_snapshots();
            assert!(snaps
                .iter()
                .any(|t| t.trace.iter().any(|e| e.kind == TraceKind::PackA
                    && e.gepp == 7
                    && e.block_row0 == 112
                    && e.block_col0 == 48)));
        }
    }
}

#[cfg(not(feature = "telemetry"))]
mod record {
    //! No-op recording: every site compiles to nothing, and the readers
    //! find an empty stream.
    use super::{ThreadSnapshot, TraceEvent, TraceKind, PHASES};

    #[inline(always)]
    pub(crate) fn add_flops(_n: u64) {}
    #[inline(always)]
    pub(crate) fn add_packed_a_bytes(_n: u64) {}
    #[inline(always)]
    pub(crate) fn add_packed_b_bytes(_n: u64) {}
    #[inline(always)]
    pub(crate) fn count_block(_n: u64, _b_in_place_bytes: u64) {}
    #[inline(always)]
    pub(crate) fn count_steal() {}
    #[inline(always)]
    pub(crate) fn count_arena_hit() {}
    #[inline(always)]
    pub(crate) fn count_arena_fresh() {}
    #[inline(always)]
    pub(crate) fn set_gepp(_seq: u64) {}
    #[inline(always)]
    pub(crate) fn set_cell(_row0: usize, _col0: usize) {}
    #[inline(always)]
    pub(crate) fn current_trace() -> u64 {
        0
    }
    #[inline(always)]
    pub(crate) fn with_trace<R>(_trace: u64, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    pub(crate) fn record(_trace: u64, _kind: TraceKind, _start: u64, _dur: u64, _args: [u64; 2]) {}

    /// Zero-sized stand-in for the enabled build's RAII timer.
    pub(crate) struct SpanGuard;

    #[inline(always)]
    pub(crate) fn span(_kind: TraceKind) -> SpanGuard {
        SpanGuard
    }

    pub(crate) fn events_for(_trace: u64) -> Vec<TraceEvent> {
        Vec::new()
    }

    pub(crate) fn heads() -> Vec<u64> {
        Vec::new()
    }

    pub(crate) fn phase_ns_since(_from: &[u64], _trace: u64) -> [u64; PHASES] {
        [0; PHASES]
    }

    pub(super) fn thread_snapshots() -> Vec<ThreadSnapshot> {
        Vec::new()
    }

    pub(super) fn reset_slots() {}

    #[cfg(test)]
    mod tests {
        #[test]
        fn disabled_span_guard_is_zero_sized() {
            assert_eq!(core::mem::size_of::<super::SpanGuard>(), 0);
        }
    }
}

// ---------------------------------------------------------------------
// Derived attribution.
// ---------------------------------------------------------------------

/// Calibrated overlap-factor slope for the paper's machine — the
/// `ψ(γ) = 1/(1 + c·γ)` family `ext_model_validation` fits.
const PSI_C: f64 = 0.4;

/// Attribution of one measured run: achieved GFLOPS and γ from the
/// counters, pack/compute/wait split from the spans, and the
/// `perfmodel` predictions for the same blocking next to them.
#[derive(Clone, Debug)]
pub struct GemmReport {
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// How many identical GEMM calls the measured interval covered.
    pub calls: u64,
    /// Configured parallel degree.
    pub threads: usize,
    /// Measured wall-clock seconds for all `calls`.
    pub elapsed_s: f64,
    /// FLOPs: counted when telemetry recorded any, else `2·m·n·k·calls`.
    pub flops: u64,
    /// Whether `flops` came from counters (false = analytic fallback).
    pub flops_counted: bool,
    /// Achieved GFLOPS over the measured interval.
    pub gflops: f64,
    /// Counted packed-A bytes.
    pub packed_a_bytes: u64,
    /// Counted packed-B bytes.
    pub packed_b_bytes: u64,
    /// Counted bytes of B the kernels read in place, without a pack.
    pub b_in_place_bytes: u64,
    /// Pack-cache hits over the interval.
    pub pack_cache_hits: u64,
    /// Pack-cache misses over the interval.
    pub pack_cache_misses: u64,
    /// Packed-B bytes the cache kept off the packing path: hits serve
    /// already-packed panels, so `packed_b_bytes` shrinks by exactly
    /// this much relative to the uncached run.
    pub pack_b_bytes_saved: u64,
    /// Achieved γ = F/W: counted FLOPs per packed word actually moved
    /// through the packing paths. `None` without byte counts.
    pub gamma_measured: Option<f64>,
    /// The model's exact GEBP γ for the configured blocking
    /// (`GebpTraffic::gamma`, eq. (16) numerics).
    pub gamma_model: f64,
    /// Fraction of accounted time spent packing (A + B), all lanes.
    pub pack_frac: f64,
    /// Fraction of accounted time in GEBP compute, all lanes.
    pub compute_frac: f64,
    /// Fraction of accounted time parked at epoch barriers, all lanes.
    pub wait_frac: f64,
    /// Equation (4) time bound for the counted F and packed W, in
    /// cycles (MachineCosts::xgene_cycles units).
    pub model_time_cycles: f64,
    /// Equation (6) performance lower bound at `gamma_model`, in flops
    /// per cycle.
    pub model_flops_per_cycle: f64,
    /// Equation (6) efficiency lower bound (fraction of peak) at
    /// `gamma_model`.
    pub model_efficiency_bound: f64,
    /// `gflops / DGEMM_PEAK_GFLOPS` when that env var is set.
    pub measured_efficiency: Option<f64>,
    /// `Some(true)` when measured efficiency fell below the model's
    /// lower bound — the run left model-promised performance on the
    /// table. Requires `DGEMM_PEAK_GFLOPS`.
    pub below_model_bound: Option<bool>,
}

impl GemmReport {
    /// Build the attribution report for a measured interval.
    ///
    /// `dims` is one call's `(m, n, k)`; `calls` how many identical
    /// calls ran between [`reset`] and [`snapshot`]; `elapsed` the
    /// wall-clock for all of them; `blocks` the blocking in effect
    /// (source of the model γ).
    #[must_use]
    pub fn from_run(
        dims: (usize, usize, usize),
        calls: u64,
        threads: usize,
        elapsed: Duration,
        blocks: &BlockSizes,
        snap: &Snapshot,
    ) -> GemmReport {
        let (m, n, k) = dims;
        let elapsed_s = elapsed.as_secs_f64();
        let counted = snap.total_flops();
        let flops_counted = counted > 0;
        let flops = if flops_counted {
            counted
        } else {
            2 * (m as u64) * (n as u64) * (k as u64) * calls
        };
        let gflops = if elapsed_s > 0.0 {
            flops as f64 / elapsed_s / 1e9
        } else {
            0.0
        };

        let packed_a_bytes = snap.total_packed_a_bytes();
        let packed_b_bytes = snap.total_packed_b_bytes();
        // γ is computed from the packed words *actually moved*: cache
        // hits skip the PackB choke point entirely, so an amortized
        // stream reports the higher effective γ the cache buys.
        let packed_words = (packed_a_bytes + packed_b_bytes) as f64 / 8.0;
        let gamma_measured =
            (flops_counted && packed_words > 0.0).then(|| flops as f64 / packed_words);

        let BlockSizes {
            mr, nr, kc, mc, nc, ..
        } = *blocks;
        let gamma_model = GebpTraffic::gamma(mr, nr, kc, mc.min(m.max(1)), nc.min(n.max(1)));

        let pack = snap.total_phase_ns(TraceKind::PackA) + snap.total_phase_ns(TraceKind::PackB);
        let compute = snap.total_phase_ns(TraceKind::Compute);
        let wait = snap.total_phase_ns(TraceKind::Barrier);
        let denom = (pack + compute + wait) as f64;
        let (pack_frac, compute_frac, wait_frac) = if denom > 0.0 {
            (
                pack as f64 / denom,
                compute as f64 / denom,
                wait as f64 / denom,
            )
        } else {
            (0.0, 0.0, 0.0)
        };

        let costs = MachineCosts::xgene_cycles();
        let psi = OverlapFactor::Rational { c: PSI_C };
        let model_time_cycles = time_bound(flops as f64, packed_words, &costs, &psi);
        let (model_flops_per_cycle, model_efficiency_bound) = if gamma_model > 0.0 {
            (
                perf_lower_bound(gamma_model, &costs, &psi),
                efficiency_lower_bound(gamma_model, &costs, &psi),
            )
        } else {
            (0.0, 0.0)
        };

        // Reports are infallible, so an invalid peak reads as unset here;
        // `Config::auto` is where it is reported.
        let measured_efficiency = peak_gflops_from_env().ok().flatten().map(|p| gflops / p);
        let below_model_bound = measured_efficiency.map(|e| e < model_efficiency_bound);

        GemmReport {
            m,
            n,
            k,
            calls,
            threads,
            elapsed_s,
            flops,
            flops_counted,
            gflops,
            packed_a_bytes,
            packed_b_bytes,
            b_in_place_bytes: snap.total_b_in_place_bytes(),
            pack_cache_hits: snap.cache.hits,
            pack_cache_misses: snap.cache.misses,
            pack_b_bytes_saved: snap.cache.bytes_saved,
            gamma_measured,
            gamma_model,
            pack_frac,
            compute_frac,
            wait_frac,
            model_time_cycles,
            model_flops_per_cycle,
            model_efficiency_bound,
            measured_efficiency,
            below_model_bound,
        }
    }

    /// One-line human summary: GFLOPS, γ (measured vs model) and the
    /// pack/compute/wait split.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let gamma = self
            .gamma_measured
            .map_or_else(|| "n/a".to_owned(), |g| format!("{g:.2}"));
        let eff = match (self.measured_efficiency, self.below_model_bound) {
            (Some(e), Some(true)) => format!(
                " | eff {:.1}% < model bound {:.1}% (BELOW MODEL BOUND)",
                e * 100.0,
                self.model_efficiency_bound * 100.0
            ),
            (Some(e), _) => format!(
                " | eff {:.1}% >= model bound {:.1}%",
                e * 100.0,
                self.model_efficiency_bound * 100.0
            ),
            _ => format!(
                " | model eff bound {:.1}%",
                self.model_efficiency_bound * 100.0
            ),
        };
        let cache = if self.pack_cache_hits + self.pack_cache_misses > 0 {
            format!(
                " | cache {}h/{}m saved {} B",
                self.pack_cache_hits, self.pack_cache_misses, self.pack_b_bytes_saved
            )
        } else {
            String::new()
        };
        format!(
            "telemetry: {}x{}x{} x{} t{} | {:.2} GFLOPS | gamma {} (model {:.2}) | pack {:.1}% compute {:.1}% wait {:.1}%{}{}",
            self.m,
            self.n,
            self.k,
            self.calls,
            self.threads,
            self.gflops,
            gamma,
            self.gamma_model,
            self.pack_frac * 100.0,
            self.compute_frac * 100.0,
            self.wait_frac * 100.0,
            cache,
            eff,
        )
    }

    /// Schema-stable JSON (`"schema": "dgemm-telem-v1"`), one object.
    ///
    /// Keys are emitted in a fixed order; absent measurements are
    /// `null`. `crates/bench` writes one of these per bench group into
    /// `results/TELEM_*.json`.
    #[must_use]
    pub fn to_json(&self, snap: &Snapshot) -> String {
        fn opt(v: Option<f64>) -> String {
            v.map_or_else(|| "null".to_owned(), |x| format!("{x:.6}"))
        }
        fn opt_bool(v: Option<bool>) -> String {
            v.map_or_else(|| "null".to_owned(), |b| b.to_string())
        }
        let mut threads_json = String::new();
        for (i, t) in snap.threads.iter().enumerate() {
            if i > 0 {
                threads_json.push(',');
            }
            threads_json.push_str(&format!(
                "{{\"name\":\"{}\",\"flops\":{},\"packed_a_bytes\":{},\"packed_b_bytes\":{},\
                 \"b_in_place_bytes\":{},\
                 \"blocks\":{},\"steals\":{},\"arena_hits\":{},\"arena_fresh\":{},{}}}",
                crate::util::json_escape(&t.name),
                t.flops,
                t.packed_a_bytes,
                t.packed_b_bytes,
                t.b_in_place_bytes,
                t.blocks,
                t.steals,
                t.arena_hits,
                t.arena_fresh,
                TraceKind::ALL[..PHASES]
                    .iter()
                    .map(|p| format!("\"{}_ns\":{}", p.label(), t.phase_time(*p)))
                    .collect::<Vec<_>>()
                    .join(","),
            ));
        }
        let rt = &snap.runtime;
        let cc = &snap.cache;
        let sv = &snap.service;
        format!(
            "{{\"schema\":\"dgemm-telem-v1\",\"m\":{},\"n\":{},\"k\":{},\"calls\":{},\
             \"threads\":{},\"elapsed_s\":{:.6},\"flops\":{},\"flops_counted\":{},\
             \"gflops\":{:.6},\"packed_a_bytes\":{},\"packed_b_bytes\":{},\
             \"b_in_place_bytes\":{},\"pack_b_bytes_saved\":{},\
             \"gamma_measured\":{},\"gamma_model\":{:.6},\"pack_frac\":{:.6},\
             \"compute_frac\":{:.6},\"wait_frac\":{:.6},\"model_time_cycles\":{:.3},\
             \"model_flops_per_cycle\":{:.6},\"model_efficiency_bound\":{:.6},\
             \"measured_efficiency\":{},\"below_model_bound\":{},\
             \"pack_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"invalidations\":{},\"bytes_saved\":{}}},\
             \"runtime\":{{\"tasks\":{},\"dynamic_epochs\":{},\"static_epochs\":{},\
             \"deaths\":{},\"respawns\":{},\"spawn_failures\":{},\"faults_contained\":{},\
             \"timeouts\":{},\"dispatch_serial\":{},\"dispatch_pool\":{},\
             \"dispatch_mispredicts\":{},\"grid_epochs\":{}}},\
             \"service\":{{\"admitted\":{},\"completed\":{},\"shed_overload\":{},\
             \"shed_quota\":{},\"rejected\":{},\"deadline_misses\":{},\"retries\":{},\
             \"degraded\":{},\"coalesced_batches\":{},\"coalesced_requests\":{},\
             \"panics_contained\":{}}},\"threads_detail\":[{}]}}",
            self.m,
            self.n,
            self.k,
            self.calls,
            self.threads,
            self.elapsed_s,
            self.flops,
            self.flops_counted,
            self.gflops,
            self.packed_a_bytes,
            self.packed_b_bytes,
            self.b_in_place_bytes,
            self.pack_b_bytes_saved,
            opt(self.gamma_measured),
            self.gamma_model,
            self.pack_frac,
            self.compute_frac,
            self.wait_frac,
            self.model_time_cycles,
            self.model_flops_per_cycle,
            self.model_efficiency_bound,
            opt(self.measured_efficiency),
            opt_bool(self.below_model_bound),
            cc.hits,
            cc.misses,
            cc.evictions,
            cc.invalidations,
            cc.bytes_saved,
            rt.tasks,
            rt.dynamic_epochs,
            rt.static_epochs,
            rt.deaths,
            rt.respawns,
            rt.spawn_failures,
            rt.faults_contained,
            rt.timeouts,
            rt.dispatch_serial,
            rt.dispatch_pool,
            rt.dispatch_mispredicts,
            rt.grid_epochs,
            sv.admitted,
            sv.completed,
            sv.shed_overload,
            sv.shed_quota,
            sv.rejected,
            sv.deadline_misses,
            sv.retries,
            sv.degraded,
            sv.coalesced_batches,
            sv.coalesced_requests,
            sv.panics_contained,
            threads_json,
        )
    }
}

/// What the library prints, from `DGEMM_TELEMETRY`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Print nothing (the default).
    #[default]
    Off,
    /// [`emit`] prints [`GemmReport::summary_line`] to stderr.
    Summary,
    /// [`emit`] prints [`GemmReport::to_json`] to stderr, and the
    /// service prints each resolved request's records as one
    /// [`crate::trace::chrome_trace_json`] object.
    Json,
}

/// Parse `DGEMM_TELEMETRY`: unset or empty is [`TelemetryMode::Off`];
/// `off`, `summary` and `json`, in any case, select a mode; anything
/// else is a [`GemmError::BadConfig`].
pub fn mode_from_env() -> Result<TelemetryMode, GemmError> {
    let mode = crate::env::TELEMETRY.parse(|v| match v.to_ascii_lowercase().as_str() {
        "" | "off" => Some(TelemetryMode::Off),
        "summary" => Some(TelemetryMode::Summary),
        "json" => Some(TelemetryMode::Json),
        _ => None,
    })?;
    Ok(mode.unwrap_or_default())
}

/// Parse `DGEMM_PEAK_GFLOPS`, the machine peak a report's
/// `measured_efficiency` divides by: unset or empty is `None`, a positive
/// finite number is that peak, anything else is a [`GemmError::BadConfig`].
pub(crate) fn peak_gflops_from_env() -> Result<Option<f64>, GemmError> {
    let peak = crate::env::PEAK_GFLOPS.parse(|v| match v {
        "" => Some(None),
        v => v
            .parse::<f64>()
            .ok()
            .filter(|p| *p > 0.0 && p.is_finite())
            .map(Some),
    })?;
    Ok(peak.flatten())
}

/// Print `report` to stderr in the mode `DGEMM_TELEMETRY` selects
/// (no-op when off, unset or unparsable — [`crate::gemm::GemmConfig::auto`]
/// is where a bad value is reported). Library code never prints
/// unprompted; this is the explicit faucet examples and benches open.
pub fn emit(report: &GemmReport, snap: &Snapshot) {
    match mode_from_env() {
        Ok(TelemetryMode::Summary) => eprintln!("{}", report.summary_line()),
        Ok(TelemetryMode::Json) => eprintln!("{}", report.to_json(snap)),
        Ok(TelemetryMode::Off) | Err(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_and_indices_are_stable() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        // The exact counters index the execution phases, which lead.
        assert_eq!(TraceKind::ALL[..PHASES].last(), Some(&TraceKind::Recovery));
        assert_eq!(TraceKind::PackA.label(), "pack_a");
        assert_eq!(TraceKind::Barrier.label(), "barrier");
    }

    #[test]
    fn report_falls_back_to_analytic_flops() {
        let snap = Snapshot::default();
        let blocks = BlockSizes::custom(8, 6, 64, 24, 48);
        let r = GemmReport::from_run(
            (32, 32, 32),
            4,
            2,
            Duration::from_millis(10),
            &blocks,
            &snap,
        );
        assert!(!r.flops_counted);
        assert_eq!(r.flops, 2 * 32 * 32 * 32 * 4);
        assert!(r.gflops > 0.0);
        assert!(r.gamma_measured.is_none());
        assert!(r.gamma_model > 0.0);
        let line = r.summary_line();
        assert!(line.contains("GFLOPS"), "{line}");
        let json = r.to_json(&snap);
        assert!(json.starts_with("{\"schema\":\"dgemm-telem-v1\""), "{json}");
        assert!(json.contains("\"gamma_measured\":null"), "{json}");
    }

    #[test]
    fn json_escapes_thread_names() {
        let mut snap = Snapshot::default();
        snap.threads.push(ThreadSnapshot {
            name: "we\"ird\\name".to_owned(),
            ..ThreadSnapshot::default()
        });
        let blocks = BlockSizes::custom(8, 6, 64, 24, 48);
        let r = GemmReport::from_run((8, 8, 8), 1, 1, Duration::from_millis(1), &blocks, &snap);
        let json = r.to_json(&snap);
        assert!(json.contains("we\\\"ird\\\\name"), "{json}");
    }

    #[test]
    fn mode_parsing() {
        // Exercise the match arms directly (env mutation races with
        // other tests; auto_config_reads_environment owns that risk).
        assert_eq!(TelemetryMode::default(), TelemetryMode::Off);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn enabled_reports_feature() {
        assert!(enabled());
    }
}
