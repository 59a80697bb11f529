//! Request-serving observability around the span stream (DESIGN.md §11):
//! trace IDs, process uptime, latency histograms, the health-event
//! journal and the chrome-trace renderer. Spans themselves — a worker's
//! `Compute` as much as a request's `Queued` — are records in
//! [`crate::telemetry`]'s per-thread stream, tagged with the trace ID
//! current on the recording thread.
//!
//! - **Trace IDs** — one per [`crate::service::GemmService`] ticket
//!   ([`next_trace_id`]). The scheduler records a request's work under
//!   it and pool jobs inherit it, so
//!   [`crate::service::GemmService::trace_of`] reads the lifecycle and
//!   the phase spans it caused from one stream; [`chrome_trace_json`]
//!   renders that chain for Perfetto.
//! - **Latency histograms** — log2-bucketed, atomic [`LatencyHistogram`]s
//!   with p50/p90/p99 extraction, which the service keys by `(tenant,
//!   shape-class)` for total latency, queue wait, compute and pack time.
//! - **Health journal** — a bounded, typed event log (shed, retry,
//!   quarantine, watchdog-fire, degrade, contained and injected faults)
//!   with a cause and the trace ID current at emission.
//!
//! All of it is compiled in every build: it is touched only at request
//! boundaries and fault sites, and the scrape surface must work with
//! recording compiled out.

#![forbid(unsafe_code)]

use crate::json::Value;
use crate::telemetry::{now_ns, TraceEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Milliseconds since the process-wide monotonic epoch. Exported in
/// `status_json()` so scrapers have a staleness/restart signal.
#[must_use]
pub fn uptime_ms() -> u64 {
    now_ns() / 1_000_000
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique trace ID (never 0; 0 means "no trace").
/// Always available — ticket IDs exist in every build; only span
/// *recording* is feature-gated.
#[must_use]
pub fn next_trace_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Whether span recording is compiled in ([`crate::telemetry::enabled`]).
#[must_use]
pub fn enabled() -> bool {
    crate::telemetry::enabled()
}

/// Render records as a chrome-trace (`trace_events`) JSON object,
/// openable in Perfetto / `chrome://tracing`. Spans become `ph:"X"`
/// complete events, points become `ph:"i"` instants; the trace ID is the
/// `pid` and the recording lane the `tid`, so one request reads as one
/// process whose rows are the threads that worked on it.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let events = events.iter().map(|e| {
        let event = Value::obj()
            .field("name", e.kind.label())
            .field("cat", "dgemm");
        let event = if e.dur_ns > 0 {
            event.field("ph", "X").field("dur", e.dur_ns as f64 / 1e3)
        } else {
            event.field("ph", "i").field("s", "t")
        };
        event
            .field("ts", e.start_ns as f64 / 1e3)
            .field("pid", e.trace)
            .field("tid", e.lane)
            .field(
                "args",
                Value::obj().field("arg0", e.arg0).field("arg1", e.arg1),
            )
    });
    Value::obj()
        .field("traceEvents", Value::Arr(events.collect()))
        .to_string()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{TraceKind, PHASES};

    #[test]
    fn kind_indices_and_labels_are_stable() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        // The request lifecycle follows the execution phases.
        assert_eq!(TraceKind::ALL[PHASES], TraceKind::Submitted);
        assert_eq!(TraceKind::ALL.last(), Some(&TraceKind::Resolved));
        assert_eq!(TraceKind::Submitted.label(), "submitted");
        assert_eq!(TraceKind::Resolved.label(), "resolved");
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
        let queued = TraceEvent {
            trace: 7,
            kind: TraceKind::Queued,
            arg0: 0,
            arg1: 0,
            start_ns: 1000,
            dur_ns: 2000,
            gepp: 0,
            block_row0: 0,
            block_col0: 0,
            lane: 3,
        };
        let resolved = TraceEvent {
            kind: TraceKind::Resolved,
            start_ns: 3000,
            dur_ns: 0,
            ..queued
        };
        let json = chrome_trace_json(&[queued, resolved]);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"name\":\"queued\""), "{json}");
        assert!(json.contains("\"pid\":7,\"tid\":3"), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }

    /// A request's lifecycle records and the phase spans recorded while
    /// its ID is current land in one stream, and a nested ID is undone
    /// on exit.
    #[cfg(feature = "telemetry")]
    #[test]
    fn ring_records_and_scopes_nest() {
        use crate::telemetry::{self, current_trace, with_trace};
        let _gate = telemetry::reset_gate();
        let id = next_trace_id();
        with_trace(id, || {
            assert_eq!(current_trace(), id);
            let inner = next_trace_id();
            with_trace(inner, || assert_eq!(current_trace(), inner));
            assert_eq!(current_trace(), id, "the scope restores the outer id");
            telemetry::event(id, TraceKind::Submitted, 0, 0);
            telemetry::record(id, TraceKind::Queued, now_ns(), 5, [0, 0]);
            drop(telemetry::span(TraceKind::Compute));
        });
        assert_eq!(current_trace(), 0);
        let events = telemetry::events_for(id);
        for kind in [TraceKind::Submitted, TraceKind::Queued, TraceKind::Compute] {
            assert!(
                events.iter().any(|e| e.kind == kind),
                "{kind:?}: {events:?}"
            );
        }
        // events_for filters strictly by trace id.
        assert!(events.iter().all(|e| e.trace == id));
    }
}
