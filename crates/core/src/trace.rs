//! Request-scoped tracing, latency histograms and the health-event
//! journal (DESIGN.md §16).
//!
//! [`crate::telemetry`] answers "where did *this process's* cycles go";
//! this module answers the serving-side question — "where did *this
//! request's* milliseconds go". Three cooperating pieces:
//!
//! 1. **Trace spans** — every [`crate::service::GemmService`] ticket is
//!    assigned a process-unique trace ID at submission and accumulates a
//!    timestamped lifecycle chain (submitted → admitted/shed → queued →
//!    coalesced → dispatched → pack/compute → retry/degrade → resolved)
//!    in one bounded, process-global, lock-free ring. The pack/compute
//!    entries are *bridged* from the PR-3 phase spans: a thread-local
//!    current-trace context travels from the service scheduler through
//!    [`crate::pool`] job closures to the workers, so a worker's
//!    `Phase::Compute` span lands on the request that caused it.
//! 2. **Latency histograms** — log2-bucketed, atomic, fixed-size
//!    [`LatencyHistogram`]s with p50/p90/p99 extraction. The service
//!    keys them by `(tenant, perfmodel shape-class)` for total latency,
//!    queue wait, compute and pack time; `status_json()` and the
//!    `/metrics` endpoint ([`crate::metricsd`]) render them.
//! 3. **Health journal** — a bounded, typed event log (shed, retry,
//!    quarantine, watchdog-fire, degrade-to-serial, contained faults,
//!    injected faults) carrying a cause string and the trace ID that was
//!    current at emission, replacing the count-only view of the degrade
//!    ladder. Always compiled (cold paths only), like the `SVC`
//!    counters.
//!
//! ## Feature gating and overhead
//!
//! Span recording (the ring, the thread-local context, the phase
//! bridge) is compiled under the `trace` cargo feature (on by default);
//! disabled, every recording call is an `#[inline(always)]` no-op and
//! the context guards are zero-sized — the PR-3 bar. When compiled in,
//! `DGEMM_TRACE=off|ring|json` selects runtime behaviour (default
//! `ring`): `off` records nothing, `ring` records into the bounded ring
//! (scrape via [`crate::service::GemmService::trace_of`] or the chrome
//! exporter), `json` additionally prints one chrome-trace JSON object
//! per resolved request to stderr. A process that never touches the
//! service layer pays one thread-local read per phase span — within
//! noise. The ring holds `DGEMM_TRACE_RING` entries (default 8192,
//! clamped to 256..=1048576, rounded up to a power of two; ~64 B each)
//! and overwrites oldest — the drop policy is *overwrite*, never block.
//!
//! The histograms, the health journal and the monotonic process clock
//! ([`uptime_ms`]) are always compiled: they are touched only at
//! request resolution and fault sites, exactly like the always-on
//! service counters, and the scrape surface must work in every build.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------
// Process-wide monotonic clock (always compiled).
// ---------------------------------------------------------------------

/// Nanoseconds since the process-wide monotonic epoch (first use).
/// Shared by the telemetry spans and the trace ring so bridged phase
/// spans and lifecycle spans are directly comparable.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Milliseconds since the process-wide monotonic epoch. Exported in
/// `status_json()` so scrapers have a staleness/restart signal.
#[must_use]
pub fn uptime_ms() -> u64 {
    now_ns() / 1_000_000
}

// ---------------------------------------------------------------------
// Trace identifiers and runtime mode.
// ---------------------------------------------------------------------

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique trace ID (never 0; 0 means "no trace").
/// Always available — ticket IDs exist even in `--no-default-features`
/// builds; only span *recording* is feature-gated.
#[must_use]
pub fn next_trace_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// What the trace layer does at runtime (`DGEMM_TRACE`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing (also the only mode when the `trace` feature is
    /// compiled out).
    Off,
    /// Record spans into the bounded ring (the default).
    #[default]
    Ring,
    /// Ring recording plus one chrome-trace JSON object per resolved
    /// request printed to stderr.
    Json,
}

/// The runtime trace mode: `DGEMM_TRACE=off|ring|json`, read once per
/// process (default `ring`; unrecognized values fall back to `ring`).
/// Always [`TraceMode::Off`] when the `trace` feature is compiled out.
#[must_use]
pub fn mode() -> TraceMode {
    if !enabled() {
        return TraceMode::Off;
    }
    static MODE: OnceLock<TraceMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("DGEMM_TRACE") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "off" | "0" => TraceMode::Off,
            "json" => TraceMode::Json,
            _ => TraceMode::Ring,
        },
        Err(_) => TraceMode::Ring,
    })
}

/// Whether span recording is compiled in (the `trace` cargo feature).
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "trace")
}

// ---------------------------------------------------------------------
// Span taxonomy.
// ---------------------------------------------------------------------

/// Number of distinct [`TraceKind`]s (the length of [`TraceKind::ALL`]).
pub const TRACE_KINDS: usize = 19;

/// One step of a request's lifecycle (or a bridged execution phase).
///
/// Lifecycle kinds are recorded by [`crate::service`]; the phase kinds
/// (`PackA`..`Recovery`) are bridged from [`crate::telemetry`] spans on
/// whichever thread carried the request's context at the time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
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
    /// Bridged [`crate::telemetry::Phase::PackA`] span.
    PackA,
    /// Bridged [`crate::telemetry::Phase::PackB`] span.
    PackB,
    /// Bridged [`crate::telemetry::Phase::Compute`] span.
    Compute,
    /// Bridged [`crate::telemetry::Phase::Barrier`] span.
    Barrier,
    /// Bridged [`crate::telemetry::Phase::Watchdog`] span.
    Watchdog,
    /// Bridged [`crate::telemetry::Phase::Recovery`] span.
    Recovery,
}

impl TraceKind {
    /// Every kind, in stable schema order (`index` order).
    pub const ALL: [TraceKind; TRACE_KINDS] = [
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
        TraceKind::PackA,
        TraceKind::PackB,
        TraceKind::Compute,
        TraceKind::Barrier,
        TraceKind::Watchdog,
        TraceKind::Recovery,
    ];

    /// Stable lowercase label (used by the JSON exporters).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
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
            TraceKind::PackA => "pack_a",
            TraceKind::PackB => "pack_b",
            TraceKind::Compute => "compute",
            TraceKind::Barrier => "barrier",
            TraceKind::Watchdog => "watchdog",
            TraceKind::Recovery => "recovery",
        }
    }

    /// Position in [`TraceKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        TraceKind::ALL
            .iter()
            .position(|k| *k == self)
            .unwrap_or_default()
    }

    /// The bridged-phase kind for a telemetry phase index
    /// ([`crate::telemetry::Phase::ALL`] order).
    #[must_use]
    pub(crate) fn from_phase_index(idx: usize) -> Option<TraceKind> {
        TraceKind::ALL.get(TraceKind::PackA.index() + idx).copied()
    }
}

/// One recorded trace event, decoded from the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEventRec {
    /// The request's trace ID.
    pub trace: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific argument (see [`TraceKind`] docs).
    pub arg0: u64,
    /// Kind-specific argument (see [`TraceKind`] docs).
    pub arg1: u64,
    /// Event start, nanoseconds on the process monotonic clock.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for point events).
    pub dur_ns: u64,
}

/// Render a set of trace events as a chrome-trace (`trace_events`)
/// JSON object, openable in Perfetto / `chrome://tracing`. Spans become
/// `ph:"X"` complete events, points become `ph:"i"` instants; the trace
/// ID is the `tid`, so one request reads as one timeline row.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEventRec]) -> String {
    let mut s = String::with_capacity(64 + events.len() * 96);
    s.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let ts_us = e.start_ns as f64 / 1e3;
        if e.dur_ns > 0 {
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"dgemm\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"arg0\":{},\"arg1\":{}}}}}",
                e.kind.label(),
                ts_us,
                e.dur_ns as f64 / 1e3,
                e.trace,
                e.arg0,
                e.arg1,
            ));
        } else {
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"dgemm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"arg0\":{},\"arg1\":{}}}}}",
                e.kind.label(),
                ts_us,
                e.trace,
                e.arg0,
                e.arg1,
            ));
        }
    }
    s.push_str("]}");
    s
}

// ---------------------------------------------------------------------
// Log2-bucketed latency histograms (always compiled; cold paths only).
// ---------------------------------------------------------------------

/// Number of finite histogram buckets; bucket `i` has upper edge
/// `2^i` µs (1 µs .. ~134 s), larger samples land in the overflow
/// (`+Inf`) bucket.
pub const HIST_BUCKETS: usize = 28;

/// A fixed-size, lock-free, log2-bucketed latency histogram in
/// microseconds. Bucket `i` counts samples `v` with
/// `2^(i-1) < v <= 2^i` (bucket 0 takes `v <= 1`); samples above
/// `2^(HIST_BUCKETS-1)` land in the overflow bucket. Recording is one
/// relaxed `fetch_add` per field — safe to call from any thread.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    overflow: AtomicU64,
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        // `[const { ... }; N]` array-of-atomics initialization.
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            overflow: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket index a microsecond value lands in, or
    /// `HIST_BUCKETS` for the overflow bucket.
    #[must_use]
    pub fn bucket_index(us: u64) -> usize {
        if us <= 1 {
            0
        } else {
            let idx = (64 - (us - 1).leading_zeros()) as usize;
            idx.min(HIST_BUCKETS)
        }
    }

    /// Upper edge (µs) of finite bucket `i`: `2^i`.
    #[must_use]
    pub fn bucket_edge(i: usize) -> u64 {
        1u64 << i.min(63)
    }

    /// Record one sample (microseconds).
    pub fn record_us(&self, us: u64) {
        let idx = Self::bucket_index(us);
        if idx < HIST_BUCKETS {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, microseconds.
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts for the finite buckets.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Samples above the last finite bucket edge.
    #[must_use]
    pub fn overflow_count(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// The upper bucket edge (µs) under which fraction `q` of samples
    /// fall — the histogram's quantile estimate, always an upper bound
    /// on the true quantile (within one log2 bucket). `None` when empty
    /// or when the quantile lands in the overflow bucket.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for i in 0..HIST_BUCKETS {
            cum += self.buckets[i].load(Ordering::Relaxed);
            if cum >= target {
                return Some(Self::bucket_edge(i));
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Health-event journal (always compiled; cold paths only).
// ---------------------------------------------------------------------

/// Number of distinct [`HealthEventKind`]s.
pub const HEALTH_KINDS: usize = 8;

/// A typed entry in the structured health journal — the degrade
/// ladder's events with causes, replacing the count-only view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HealthEventKind {
    /// A request was shed at admission (overload or quota).
    Shed,
    /// A group execution was retried after a recoverable pool fault.
    Retry,
    /// A shard entered quarantine (cooldown before pooled retry).
    Quarantine,
    /// The epoch watchdog expired and the caller recovered serially.
    WatchdogFire,
    /// A group ran on the serial runtime because its shard was
    /// unhealthy (graceful degradation).
    DegradeSerial,
    /// The pool contained a worker fault by recomputing a block.
    FaultContained,
    /// The service contained a panic with per-request serial recovery.
    PanicContained,
    /// A deterministic fault-injection site fired (`fault-injection`
    /// builds only).
    FaultInjected,
}

impl HealthEventKind {
    /// Every kind, in stable schema order.
    pub const ALL: [HealthEventKind; HEALTH_KINDS] = [
        HealthEventKind::Shed,
        HealthEventKind::Retry,
        HealthEventKind::Quarantine,
        HealthEventKind::WatchdogFire,
        HealthEventKind::DegradeSerial,
        HealthEventKind::FaultContained,
        HealthEventKind::PanicContained,
        HealthEventKind::FaultInjected,
    ];

    /// Stable lowercase label (JSON schema and `/metrics` label value).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HealthEventKind::Shed => "shed",
            HealthEventKind::Retry => "retry",
            HealthEventKind::Quarantine => "quarantine",
            HealthEventKind::WatchdogFire => "watchdog_fire",
            HealthEventKind::DegradeSerial => "degrade_serial",
            HealthEventKind::FaultContained => "fault_contained",
            HealthEventKind::PanicContained => "panic_contained",
            HealthEventKind::FaultInjected => "fault_injected",
        }
    }

    fn index(self) -> usize {
        HealthEventKind::ALL
            .iter()
            .position(|k| *k == self)
            .unwrap_or_default()
    }
}

/// One journal entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthEvent {
    /// Monotone sequence number since process start (never reused, so
    /// scrapers can detect gaps after ring overwrite).
    pub seq: u64,
    /// Emission time, nanoseconds on the process monotonic clock.
    pub ts_ns: u64,
    /// What happened.
    pub kind: HealthEventKind,
    /// The trace ID current on the emitting thread (0 = none).
    pub trace: u64,
    /// Kind-specific detail (shard index, retry attempt, missing-block
    /// count, ...).
    pub detail: u64,
    /// Human-readable cause, a static string (no allocation on the
    /// emission path beyond the journal slot itself).
    pub cause: &'static str,
}

/// Journal entries kept; older entries are dropped (their monotone
/// `seq` reveals the gap).
const JOURNAL_LEN: usize = 512;

struct Journal {
    seq: u64,
    ring: VecDeque<HealthEvent>,
}

static JOURNAL: Mutex<Journal> = Mutex::new(Journal {
    seq: 0,
    ring: VecDeque::new(),
});

/// Monotone per-kind totals since process start (survive journal
/// overwrite; the `/metrics` counters).
static HEALTH_COUNTS: [AtomicU64; HEALTH_KINDS] = [const { AtomicU64::new(0) }; HEALTH_KINDS];

/// Append a typed event to the health journal. `trace` 0 means "no
/// request context". Cold paths only (fault handling, shedding,
/// degradation) — takes a mutex.
pub(crate) fn health_event(kind: HealthEventKind, trace: u64, detail: u64, cause: &'static str) {
    HEALTH_COUNTS[kind.index()].fetch_add(1, Ordering::Relaxed);
    let mut j = JOURNAL.lock().unwrap_or_else(PoisonError::into_inner);
    let seq = j.seq;
    j.seq += 1;
    if j.ring.len() >= JOURNAL_LEN {
        j.ring.pop_front();
    }
    j.ring.push_back(HealthEvent {
        seq,
        ts_ns: now_ns(),
        kind,
        trace,
        detail,
        cause,
    });
}

/// The surviving tail of the health journal, oldest first.
#[must_use]
pub fn health_events() -> Vec<HealthEvent> {
    let j = JOURNAL.lock().unwrap_or_else(PoisonError::into_inner);
    j.ring.iter().copied().collect()
}

/// Monotone per-kind event totals since process start, in
/// [`HealthEventKind::ALL`] order (unlike the journal ring, these never
/// forget).
#[must_use]
pub(crate) fn health_counts() -> [(HealthEventKind, u64); HEALTH_KINDS] {
    std::array::from_fn(|i| {
        (
            HealthEventKind::ALL[i],
            HEALTH_COUNTS[i].load(Ordering::Relaxed),
        )
    })
}

// ---------------------------------------------------------------------
// Span recording (feature-gated hot path).
// ---------------------------------------------------------------------

pub use rec::events_for;
pub(crate) use rec::{adopt, bridge_phase, capture, current_id, record_event, record_span};

#[cfg(feature = "trace")]
pub(crate) use rec::TraceCtx;

#[cfg(not(feature = "trace"))]
pub(crate) use rec::TraceCtx;

#[cfg(feature = "trace")]
mod rec {
    use super::{now_ns, TraceEventRec, TraceKind, TraceMode};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};

    /// Per-request phase accumulators: exact pack/compute nanoseconds
    /// bridged from telemetry spans across every thread that carried
    /// this request's context. Feeds the per-request histograms without
    /// scanning the ring.
    #[derive(Debug, Default)]
    pub(crate) struct PhaseAcc {
        pack_ns: AtomicU64,
        compute_ns: AtomicU64,
    }

    /// The request context a thread carries: trace ID plus the shared
    /// phase accumulator. Cloning is one `Arc` bump.
    #[derive(Clone, Debug)]
    pub(crate) struct TraceCtx {
        pub(crate) id: u64,
        acc: Arc<PhaseAcc>,
    }

    impl TraceCtx {
        /// A fresh context for trace `id`.
        pub(crate) fn new(id: u64) -> Self {
            TraceCtx {
                id,
                acc: Arc::new(PhaseAcc::default()),
            }
        }

        /// Accumulated bridged pack time (A + B), nanoseconds.
        pub(crate) fn pack_ns(&self) -> u64 {
            self.acc.pack_ns.load(Ordering::Relaxed)
        }

        /// Accumulated bridged GEBP compute time, nanoseconds.
        pub(crate) fn compute_ns(&self) -> u64 {
            self.acc.compute_ns.load(Ordering::Relaxed)
        }
    }

    thread_local! {
        static CURRENT: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
    }

    /// Install `ctx` as the thread's current trace for the guard's
    /// lifetime (restores the previous context on drop, panic-safe).
    pub(crate) struct TraceScope {
        prev: Option<TraceCtx>,
    }

    impl Drop for TraceScope {
        fn drop(&mut self) {
            let prev = self.prev.take();
            let _ = CURRENT.try_with(|c| {
                if let Ok(mut cur) = c.try_borrow_mut() {
                    *cur = prev;
                }
            });
        }
    }

    /// Enter `ctx` on the calling thread.
    pub(crate) fn enter(ctx: &TraceCtx) -> TraceScope {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx.clone()));
        TraceScope { prev }
    }

    /// Snapshot the calling thread's current context (for shipping into
    /// a pool job closure).
    pub(crate) fn capture() -> Option<TraceCtx> {
        CURRENT
            .try_with(|c| c.try_borrow().ok().and_then(|cur| cur.clone()))
            .ok()
            .flatten()
    }

    /// Adopt a captured context on a worker thread for the guard's
    /// lifetime. `None` installs nothing and the guard is inert.
    pub(crate) fn adopt(ctx: Option<TraceCtx>) -> Option<TraceScope> {
        ctx.as_ref().map(enter)
    }

    /// The trace ID current on this thread (0 = none).
    pub(crate) fn current_id() -> u64 {
        capture().map_or(0, |c| c.id)
    }

    // -- the ring ------------------------------------------------------

    #[derive(Default)]
    struct Slot {
        /// Write index + 1 (0 = never written). Stored last, `Release`.
        stamp: AtomicU64,
        trace: AtomicU64,
        kind: AtomicU64,
        arg0: AtomicU64,
        arg1: AtomicU64,
        start_ns: AtomicU64,
        dur_ns: AtomicU64,
    }

    struct Ring {
        slots: Vec<Slot>,
        head: AtomicU64,
    }

    fn ring() -> &'static Ring {
        static RING: OnceLock<Ring> = OnceLock::new();
        RING.get_or_init(|| {
            let n = std::env::var("DGEMM_TRACE_RING")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(8192)
                .clamp(256, 1 << 20)
                .next_power_of_two();
            Ring {
                slots: (0..n).map(|_| Slot::default()).collect(),
                head: AtomicU64::new(0),
            }
        })
    }

    fn push(trace: u64, kind: TraceKind, arg0: u64, arg1: u64, start_ns: u64, dur_ns: u64) {
        let r = ring();
        let idx = r.head.fetch_add(1, Ordering::Relaxed);
        let slot = &r.slots[(idx as usize) & (r.slots.len() - 1)];
        slot.trace.store(trace, Ordering::Relaxed);
        slot.kind.store(kind.index() as u64, Ordering::Relaxed);
        slot.arg0.store(arg0, Ordering::Relaxed);
        slot.arg1.store(arg1, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.stamp.store(idx + 1, Ordering::Release);
    }

    fn scan(mut keep: impl FnMut(&TraceEventRec) -> bool) -> Vec<TraceEventRec> {
        let r = ring();
        let mut out = Vec::new();
        for slot in &r.slots {
            if slot.stamp.load(Ordering::Acquire) == 0 {
                continue;
            }
            let kind_idx = slot.kind.load(Ordering::Relaxed) as usize;
            let Some(kind) = TraceKind::ALL.get(kind_idx).copied() else {
                continue;
            };
            let e = TraceEventRec {
                trace: slot.trace.load(Ordering::Relaxed),
                kind,
                arg0: slot.arg0.load(Ordering::Relaxed),
                arg1: slot.arg1.load(Ordering::Relaxed),
                start_ns: slot.start_ns.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
            };
            if keep(&e) {
                out.push(e);
            }
        }
        out.sort_by_key(|e| (e.start_ns, e.kind.index()));
        out
    }

    // -- recording entry points ---------------------------------------

    /// Record a point event at "now" for `trace`.
    #[inline]
    pub(crate) fn record_event(trace: u64, kind: TraceKind, arg0: u64, arg1: u64) {
        if trace == 0 || super::mode() == TraceMode::Off {
            return;
        }
        push(trace, kind, arg0, arg1, now_ns(), 0);
    }

    /// Record a completed span for `trace`.
    #[inline]
    pub(crate) fn record_span(
        trace: u64,
        kind: TraceKind,
        start_ns: u64,
        dur_ns: u64,
        arg0: u64,
        arg1: u64,
    ) {
        if trace == 0 || super::mode() == TraceMode::Off {
            return;
        }
        push(trace, kind, arg0, arg1, start_ns, dur_ns);
    }

    /// Bridge one telemetry phase span onto the thread's current trace
    /// (no-op without a current context — the common, non-service
    /// path pays exactly one thread-local read).
    #[inline]
    pub(crate) fn bridge_phase(phase_idx: usize, start_ns: u64, dur_ns: u64) {
        let Some(ctx) = capture() else { return };
        match phase_idx {
            // PackA, PackB
            0 | 1 => {
                ctx.acc.pack_ns.fetch_add(dur_ns, Ordering::Relaxed);
            }
            // Compute
            2 => {
                ctx.acc.compute_ns.fetch_add(dur_ns, Ordering::Relaxed);
            }
            _ => {}
        }
        if super::mode() == TraceMode::Off {
            return;
        }
        if let Some(kind) = TraceKind::from_phase_index(phase_idx) {
            push(ctx.id, kind, 0, 0, start_ns, dur_ns);
        }
    }

    /// Every surviving ring event for one trace, oldest first.
    #[must_use]
    pub fn events_for(trace: u64) -> Vec<TraceEventRec> {
        if trace == 0 {
            return Vec::new();
        }
        scan(|e| e.trace == trace)
    }
}

#[cfg(not(feature = "trace"))]
mod rec {
    //! No-op recording: every site compiles to nothing; guards are
    //! zero-sized.
    use super::{TraceEventRec, TraceKind};

    /// Zero-sized stand-in carrying only the trace ID.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct TraceCtx {
        pub(crate) id: u64,
    }

    impl TraceCtx {
        pub(crate) fn new(id: u64) -> Self {
            TraceCtx { id }
        }

        pub(crate) fn pack_ns(&self) -> u64 {
            0
        }

        pub(crate) fn compute_ns(&self) -> u64 {
            0
        }
    }

    /// Zero-sized stand-in for the enabled build's context guard.
    pub(crate) struct TraceScope;

    #[inline(always)]
    pub(crate) fn capture() -> Option<TraceCtx> {
        None
    }

    #[inline(always)]
    pub(crate) fn adopt(_ctx: Option<TraceCtx>) -> Option<TraceScope> {
        None
    }

    #[inline(always)]
    pub(crate) fn current_id() -> u64 {
        0
    }

    #[inline(always)]
    pub(crate) fn record_event(_trace: u64, _kind: TraceKind, _arg0: u64, _arg1: u64) {}

    #[inline(always)]
    pub(crate) fn record_span(
        _trace: u64,
        _kind: TraceKind,
        _start_ns: u64,
        _dur_ns: u64,
        _arg0: u64,
        _arg1: u64,
    ) {
    }

    #[inline(always)]
    pub(crate) fn bridge_phase(_phase_idx: usize, _start_ns: u64, _dur_ns: u64) {}

    /// Always empty without the `trace` feature.
    #[must_use]
    pub fn events_for(_trace: u64) -> Vec<TraceEventRec> {
        Vec::new()
    }
}

/// Print one chrome-trace JSON object for `trace` to stderr (the
/// `DGEMM_TRACE=json` per-request emission; no-op in other modes or
/// when the trace recorded nothing).
pub(crate) fn emit_json(trace: u64) {
    if mode() != TraceMode::Json {
        return;
    }
    let events = events_for(trace);
    if !events.is_empty() {
        eprintln!("{}", chrome_trace_json(&events));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_and_labels_are_stable() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(TraceKind::Submitted.label(), "submitted");
        assert_eq!(TraceKind::Resolved.label(), "resolved");
        // Phase bridging: telemetry phase order maps onto PackA..Recovery.
        assert_eq!(TraceKind::from_phase_index(0), Some(TraceKind::PackA));
        assert_eq!(TraceKind::from_phase_index(2), Some(TraceKind::Compute));
        assert_eq!(TraceKind::from_phase_index(5), Some(TraceKind::Recovery));
        assert_eq!(TraceKind::from_phase_index(6), None);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn histogram_buckets_are_exact_log2() {
        // v <= 1 -> bucket 0; 2^(i-1) < v <= 2^i -> bucket i.
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 2);
        assert_eq!(LatencyHistogram::bucket_index(5), 3);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(LatencyHistogram::bucket_index(1025), 11);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            HIST_BUCKETS,
            "huge samples land in the overflow bucket"
        );
    }

    #[test]
    fn histogram_quantiles_are_bucket_edge_bounded() {
        let h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 100, 1000, 5000] {
            h.record_us(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum_us(), 6106);
        // p50: the 3rd sample (3 µs) lives in bucket 2, edge 4.
        assert_eq!(h.quantile_us(0.5), Some(4));
        // p100: 5000 µs lives in bucket 13, edge 8192.
        assert_eq!(h.quantile_us(1.0), Some(8192));
        // Every quantile is >= the true value and within one bucket.
        assert!(h.quantile_us(0.99).unwrap_or(0) >= 5000);
    }

    #[test]
    fn health_journal_records_and_counts() {
        let before = health_counts()[HealthEventKind::Quarantine.index()].1;
        health_event(HealthEventKind::Quarantine, 42, 3, "test cause");
        let events = health_events();
        let mine = events
            .iter()
            .rev()
            .find(|e| e.kind == HealthEventKind::Quarantine && e.trace == 42)
            .copied();
        let e = mine.unwrap_or_else(|| panic!("journal lost the event: {events:?}"));
        assert_eq!(e.detail, 3);
        assert_eq!(e.cause, "test cause");
        let after = health_counts()[HealthEventKind::Quarantine.index()].1;
        assert!(after > before);
    }

    #[test]
    fn chrome_trace_renders_spans_and_instants() {
        let events = [
            TraceEventRec {
                trace: 7,
                kind: TraceKind::Queued,
                arg0: 0,
                arg1: 0,
                start_ns: 1000,
                dur_ns: 2000,
            },
            TraceEventRec {
                trace: 7,
                kind: TraceKind::Resolved,
                arg0: 0,
                arg1: 0,
                start_ns: 3000,
                dur_ns: 0,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"name\":\"queued\""), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ring_records_and_scopes_nest() {
        // Default mode is Ring unless the environment says otherwise;
        // skip under DGEMM_TRACE=off.
        if mode() == TraceMode::Off {
            return;
        }
        let id = next_trace_id();
        let ctx = TraceCtx::new(id);
        {
            let _g = adopt(Some(ctx));
            assert_eq!(current_id(), id);
            let inner = TraceCtx::new(next_trace_id());
            {
                let _g2 = adopt(Some(inner.clone()));
                assert_eq!(current_id(), inner.id);
            }
            assert_eq!(current_id(), id, "scope restores the outer context");
            record_event(id, TraceKind::Submitted, 0, 0);
            record_span(id, TraceKind::Queued, now_ns(), 5, 0, 0);
        }
        assert_eq!(current_id(), 0);
        let events = events_for(id);
        assert!(
            events.iter().any(|e| e.kind == TraceKind::Submitted),
            "{events:?}"
        );
        assert!(
            events.iter().any(|e| e.kind == TraceKind::Queued),
            "{events:?}"
        );
        // events_for filters strictly by trace id.
        assert!(events.iter().all(|e| e.trace == id));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn bridge_accumulates_pack_and_compute() {
        let ctx = TraceCtx::new(next_trace_id());
        {
            let _g = adopt(Some(ctx.clone()));
            bridge_phase(0, now_ns(), 100); // PackA
            bridge_phase(1, now_ns(), 50); // PackB
            bridge_phase(2, now_ns(), 1000); // Compute
            bridge_phase(3, now_ns(), 77); // Barrier: not accumulated
        }
        assert_eq!(ctx.pack_ns(), 150);
        assert_eq!(ctx.compute_ns(), 1000);
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn disabled_guards_are_zero_sized_and_empty() {
        assert_eq!(core::mem::size_of::<rec::TraceScope>(), 0);
        assert_eq!(mode(), TraceMode::Off);
        assert!(events_for(1).is_empty());
    }
}
