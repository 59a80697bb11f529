//! Admission-controlled GEMM serving layer (DESIGN.md §15).
//!
//! The library layers below this module answer "how fast can one call
//! be"; a serving process asks a different question — "what happens to
//! call N+1 when N callers are already inside". This module puts a
//! bounded, tenant-fair queue in front of [`crate::gemm`]/
//! [`crate::batch`] and makes the overload behaviour explicit:
//!
//! * **Admission control** — every submission is either admitted or
//!   answered immediately with a typed [`ServiceError`]; the bound
//!   shrinks when the worker pool looks unhealthy (watchdog timeouts,
//!   dead workers) so a struggling pool sheds load instead of
//!   accumulating it.
//! * **Deadlines and cancellation** — each admitted request carries an
//!   optional deadline and a cooperative cancel flag; both resolve the
//!   request with a typed error instead of silently dropping it.
//! * **Coalescing** — same-tenant requests against the *same* weight
//!   matrix are folded into one [`crate::batch::gemm_batch_prepacked`]
//!   execution on that weight's packed `op(B)`, which the tenant holds
//!   among its `cache_entries` most recently used weights (one tenant's
//!   weights cannot evict another's).
//! * **Graceful degradation** — recoverable pool faults are retried
//!   with backoff; an unhealthy shard degrades to the bit-identical
//!   serial path rather than failing the caller. Watchdog-expired
//!   epochs are *served* (the recovery contract keeps `C` bit-exact)
//!   while the shard is quarantined.
//!
//! The invariant the whole module is built around, and that the chaos
//! suite audits: **every admitted request resolves exactly once**, with
//! either a bit-correct result or a typed error. There is no async
//! runtime underneath — a [`Ticket`] is a one-shot channel receiver and
//! the scheduler is one named thread, so the layer works (and is
//! testable) in a plain threaded process.

#![forbid(unsafe_code)]

use crate::batch::{gemm_batch_prepacked, gemm_batch_shared_b};
use crate::env;
use crate::faults;
use crate::gemm::GemmConfig;
use crate::json::Value;
use crate::matrix::{Matrix, MatrixView, MatrixViewMut};
use crate::metricsd::{self, MetricsServer, MetricsSource};
use crate::pool::{self, Parallelism, WorkerPool};
use crate::prepack::PrepackedB;
use crate::store;
use crate::telemetry::{self, ServiceCounters, TelemetryMode, TraceEvent, TraceKind, PHASES, SVC};
use crate::trace::{self, HealthEventKind, LatencyHistogram};
use crate::{GemmError, Transpose};
use crossbeam::channel::{unbounded, Receiver, Sender};
use perfmodel::tuning::ShapeClass;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Typed answer for a request the service will not (or could not)
/// compute. Callers always get *an* answer; this enum is the complete
/// set of non-result answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// Shed at admission: the service queue (or the submitting tenant's
    /// quota slice of it) is full. Retry later, ideally with backoff.
    Overloaded {
        /// Requests queued against the limit that was hit.
        queue_depth: usize,
        /// The limit that was hit (global bound or tenant quota; the
        /// global bound shrinks while the pool is unhealthy).
        limit: usize,
    },
    /// The request's deadline expired before a result was produced.
    DeadlineExceeded {
        /// The deadline budget the request was admitted with.
        budget_ms: u64,
    },
    /// The request was refused for a reason other than load: shutdown,
    /// cooperative cancellation, invalid shapes, or a pool fault that
    /// survived every retry and the serial fallback.
    Rejected(&'static str),
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceError::Overloaded { queue_depth, limit } => {
                write!(
                    f,
                    "service overloaded: {queue_depth} queued against limit {limit}"
                )
            }
            ServiceError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline of {budget_ms} ms exceeded before completion")
            }
            ServiceError::Rejected(why) => write!(f, "request rejected: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Serving-layer knobs. [`ServiceConfig::from_env`] reads the
/// `DGEMM_SERVICE_*` environment variables documented in the README;
/// absent variables keep the defaults below and garbage values are
/// typed [`GemmError::BadConfig`] errors, never silent fallbacks.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Global admission bound on queued requests (`DGEMM_SERVICE_QUEUE`,
    /// default 256, must be ≥ 1). While the pool is unhealthy the
    /// effective bound is a quarter of this (at least 1).
    pub queue_limit: usize,
    /// Per-tenant bound on queued requests (`DGEMM_SERVICE_TENANT_QUOTA`,
    /// default = `queue_limit`, must be ≥ 1).
    pub tenant_quota: usize,
    /// Default deadline applied to every submission
    /// (`DGEMM_SERVICE_DEADLINE_MS`, 0 or absent = none).
    pub deadline: Option<Duration>,
    /// Dedicated pool shards owned by this service
    /// (`DGEMM_SERVICE_SHARDS`, default 1). `0` routes execution to the
    /// process-global pool instead of dedicated shards.
    pub shards: usize,
    /// Bounded retries after a recoverable pool fault
    /// (`DGEMM_SERVICE_RETRIES`, default 2).
    pub max_retries: u32,
    /// Maximum requests folded into one coalesced batch
    /// (`DGEMM_SERVICE_COALESCE`, default 8; 1 disables coalescing).
    pub coalesce: usize,
    /// How many weights each tenant holds packed panels for, the least
    /// recently used dropped first (`DGEMM_SERVICE_CACHE_ENTRIES`,
    /// default 8; 0 holds none, and every group packs per call).
    pub cache_entries: usize,
    /// How long a shard stays quarantined (serial execution) after a
    /// watchdog timeout or contained fault before it is retried.
    pub unhealthy_cooldown: Duration,
    /// Directory of pre-packed weight blobs (`DGEMM_WEIGHT_STORE`,
    /// absent = no warm start). Every readable blob whose geometry
    /// matches this service's GEMM config is loaded at boot onto the
    /// *shelf*; a request against a weight its tenant holds no panels
    /// for attaches a shelved blob whose source digest matches the
    /// weight instead of packing — zero `packed_b_bytes` on the warm
    /// path, and again after the tenant dropped the weight.
    pub weight_store: Option<std::path::PathBuf>,
    /// The GEMM configuration executions run under. Dedicated shards
    /// are honoured by routing [`Parallelism::Pool`] epochs to the
    /// shard via [`pool::with_pool`].
    pub gemm: GemmConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_limit: 256,
            tenant_quota: 256,
            deadline: None,
            shards: 1,
            max_retries: 2,
            coalesce: 8,
            cache_entries: 8,
            unhealthy_cooldown: Duration::from_millis(250),
            weight_store: None,
            gemm: GemmConfig::default()
                .with_parallelism(Parallelism::Pool(WorkerPool::max_workers())),
        }
    }
}

impl ServiceConfig {
    /// Build a config from the `DGEMM_SERVICE_*` environment (and
    /// [`GemmConfig::auto`] for the execution side). Unset variables
    /// keep defaults; unparsable ones are typed errors.
    pub fn from_env() -> Result<Self, GemmError> {
        let count = |v: &str| v.parse::<u64>().ok();
        let positive = |v: &str| count(v).filter(|&n| n > 0);
        let gemm = GemmConfig::auto()?;
        let d = ServiceConfig::default();
        let queue_limit = env::SERVICE_QUEUE
            .parse(positive)?
            .map_or(d.queue_limit, |q| q as usize);
        Ok(ServiceConfig {
            queue_limit,
            tenant_quota: env::SERVICE_TENANT_QUOTA
                .parse(positive)?
                .map_or(queue_limit, |q| q as usize),
            deadline: env::SERVICE_DEADLINE_MS
                .parse(count)?
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
            shards: env::SERVICE_SHARDS
                .parse(count)?
                .map_or(d.shards, |s| s as usize),
            max_retries: env::SERVICE_RETRIES
                .parse(count)?
                .map_or(d.max_retries, |r| r as u32),
            coalesce: env::SERVICE_COALESCE
                .parse(positive)?
                .map_or(d.coalesce, |c| c as usize),
            cache_entries: env::SERVICE_CACHE_ENTRIES
                .parse(count)?
                .map_or(d.cache_entries, |e| e as usize),
            weight_store: env::WEIGHT_STORE
                .value()?
                .filter(|dir| !dir.is_empty())
                .map(std::path::PathBuf::from),
            gemm,
            ..d
        })
    }
}

/// One admitted request, owned by the scheduler until it resolves.
struct Request {
    tenant: String,
    alpha: f64,
    a: Arc<Matrix>,
    transb: Transpose,
    b: Arc<Matrix>,
    deadline: Option<Instant>,
    budget_ms: u64,
    cancelled: Arc<AtomicBool>,
    tx: Sender<Result<Matrix, ServiceError>>,
    /// Trace identity (also the ticket ID) and the monotonic submit
    /// timestamp every latency figure is anchored to.
    trace: u64,
    submitted_ns: u64,
}

impl Request {
    /// Coalescing key: same weight matrix (by `Arc` identity, which is
    /// ABA-proof while both sides hold the `Arc`), same `op`, same
    /// scaling, same input shape. Tenancy is implied — groups are only
    /// formed inside one tenant's queue.
    fn coalesces_with(&self, other: &Request) -> bool {
        Arc::ptr_eq(&self.b, &other.b)
            && self.transb == other.transb
            && self.alpha.to_bits() == other.alpha.to_bits()
            && self.a.rows() == other.a.rows()
            && self.a.cols() == other.a.cols()
    }
}

/// Handle for one admitted request: a one-shot receiver plus a
/// cooperative cancel flag. Exactly one [`Result`] will arrive on it,
/// even across injected faults, pool deaths and service shutdown.
pub struct Ticket {
    rx: Receiver<Result<Matrix, ServiceError>>,
    cancelled: Arc<AtomicBool>,
    id: u64,
}

impl core::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ticket")
            .field("id", &self.id)
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// This request's trace ID: pass it to
    /// [`GemmService::trace_of`] for the recorded span chain. Stable
    /// for the life of the ticket and process-unique.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the request resolves. Consumes the ticket — the
    /// resolution is delivered exactly once.
    pub fn wait(self) -> Result<Matrix, ServiceError> {
        match self.rx.recv() {
            Ok(r) => r,
            // Unreachable by construction (the scheduler drains before
            // exiting), kept as a typed answer rather than a panic.
            Err(_) => Err(ServiceError::Rejected("service dropped the request")),
        }
    }

    /// Ask the service to abandon this request. Cooperative: a request
    /// already executing finishes; one still queued resolves with
    /// [`ServiceError::Rejected`]. Waiting after a cancel is still
    /// guaranteed to return.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }
}

/// One weight a tenant holds panels for: the weight's `Arc`, the
/// `op(B)` selector and the panels, packed under the service's config or
/// attached from the shelf. The entry is found by the `Arc`'s identity,
/// which holding it keeps sound: the allocation cannot be freed and
/// handed to another matrix while the entry lives.
type TenantWeight = (Arc<Matrix>, Transpose, Arc<PrepackedB>);

/// One execution shard: a dedicated pool (or `None` for the global
/// pool) plus its quarantine clock.
struct Shard {
    pool: Option<Arc<WorkerPool>>,
    unhealthy_until: Mutex<Option<Instant>>,
}

struct QueueState {
    /// Per-tenant FIFO queues.
    queues: HashMap<String, VecDeque<Request>>,
    /// Round-robin order of tenants with queued work.
    rr: VecDeque<String>,
    /// Total queued requests across tenants.
    depth: usize,
    shutdown: bool,
}

/// Per-(tenant, shape-class) request latency histograms: end-to-end
/// latency, queue wait, compute and pack time (the latter two read from
/// the group's phase spans; for a coalesced group every member observes
/// the shared batch's phase totals).
#[derive(Debug, Default)]
struct RequestHists {
    total: LatencyHistogram,
    queue: LatencyHistogram,
    compute: LatencyHistogram,
    pack: LatencyHistogram,
}

impl RequestHists {
    /// The four metrics in stable schema order.
    fn metrics(&self) -> [(&'static str, &LatencyHistogram); 4] {
        [
            ("total", &self.total),
            ("queue", &self.queue),
            ("compute", &self.compute),
            ("pack", &self.pack),
        ]
    }
}

/// One warm-start blob loaded at boot, awaiting its weight matrix: the
/// reconstructed panels plus the source digest used to prove, at attach
/// time, that a submitted weight is bit-identical to what was packed
/// offline (identity can't be pointer-based across processes).
struct ShelfEntry {
    panels: Arc<PrepackedB>,
    digest: u64,
}

/// Per-instance weight-store counters (process-wide totals live in
/// [`crate::telemetry::Snapshot::store`]).
struct StoreCounters {
    loads: AtomicU64,
    load_failures: AtomicU64,
    attaches: AtomicU64,
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<QueueState>,
    work: Condvar,
    shards: Vec<Shard>,
    rr_shard: AtomicUsize,
    /// Each tenant's weights, least recently used first, at most
    /// `cfg.cache_entries` of them.
    tenants: Mutex<HashMap<String, VecDeque<TenantWeight>>>,
    /// Warm-start blobs loaded from `cfg.weight_store` at boot.
    shelf: Vec<ShelfEntry>,
    store_counters: StoreCounters,
    /// Per-instance mirror of the process-wide [`SVC`] counters,
    /// exported by [`GemmService::status_json`].
    counters: ServiceCounters,
    /// Latency histograms keyed by `(tenant, shape-class label)`.
    hists: Mutex<HashMap<(String, String), Arc<RequestHists>>>,
    /// Snapshot ordering for scrapers: bumped by every `status_json` /
    /// `/metrics` render.
    snapshot_seq: AtomicU64,
}

/// Load every blob under `dir` onto the shelf, in filename order so a
/// boot is deterministic. Unreadable or corrupt blobs are counted
/// ([`GemmError::BadStore`] internally) and skipped — a bad blob on
/// disk must degrade to live packing, never block boot.
fn load_shelf(dir: &std::path::Path, counters: &StoreCounters) -> Vec<ShelfEntry> {
    let mut paths: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect(),
        Err(_) => {
            // An unreadable directory is one failed "load"; the boot
            // proceeds cold (live packing) rather than failing.
            counters.load_failures.fetch_add(1, Ordering::Relaxed);
            crate::telemetry::store_load_failure();
            return Vec::new();
        }
    };
    paths.sort();
    let mut shelf = Vec::new();
    for path in paths {
        match store::load::<f64>(&path) {
            Ok(blob) => {
                counters.loads.fetch_add(1, Ordering::Relaxed);
                shelf.push(ShelfEntry {
                    panels: blob.panels,
                    digest: blob.source_digest,
                });
            }
            Err(_) => {
                counters.load_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    shelf
}

/// The admission-controlled serving front-end. See the module docs for
/// the ladder it implements; construction spawns the scheduler thread
/// and (with `cfg.shards > 0`) the dedicated pool shards; drop (or
/// [`GemmService::shutdown`]) drains every queued request to a typed
/// resolution before returning.
pub struct GemmService {
    inner: Arc<Inner>,
    scheduler: Option<thread::JoinHandle<()>>,
}

impl GemmService {
    /// Start a service with explicit knobs.
    pub fn new(cfg: ServiceConfig) -> Self {
        let shards = if cfg.shards == 0 {
            vec![Shard {
                pool: None,
                unhealthy_until: Mutex::new(None),
            }]
        } else {
            (0..cfg.shards)
                .map(|i| Shard {
                    pool: Some(WorkerPool::new_shard(&format!("svc{i}"))),
                    unhealthy_until: Mutex::new(None),
                })
                .collect()
        };
        let store_counters = StoreCounters {
            loads: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
            attaches: AtomicU64::new(0),
        };
        let shelf = match &cfg.weight_store {
            Some(dir) => load_shelf(dir, &store_counters),
            None => Vec::new(),
        };
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(QueueState {
                queues: HashMap::new(),
                rr: VecDeque::new(),
                depth: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            shards,
            rr_shard: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
            shelf,
            store_counters,
            counters: ServiceCounters::new(),
            hists: Mutex::new(HashMap::new()),
            snapshot_seq: AtomicU64::new(0),
        });
        let sched = Arc::clone(&inner);
        let scheduler = thread::Builder::new()
            .name("dgemm-service-sched".into())
            .spawn(move || scheduler_main(sched))
            .unwrap_or_else(|e| panic!("failed to spawn dgemm service scheduler: {e}"));
        GemmService {
            inner,
            scheduler: Some(scheduler),
        }
    }

    /// Start a service configured from the `DGEMM_SERVICE_*` (and
    /// `DGEMM_*`) environment.
    pub fn from_env() -> Result<Self, GemmError> {
        Ok(GemmService::new(ServiceConfig::from_env()?))
    }

    /// Submit `C := alpha · A · op(B)` for tenant `tenant` under the
    /// service's default deadline. `A` must be stored `m×k`
    /// (non-transposed), matching the batch-coalescing contract.
    ///
    /// Returns a [`Ticket`] when admitted; a typed [`ServiceError`]
    /// when shed or refused. Either way the caller has an answer.
    pub fn submit(
        &self,
        tenant: &str,
        alpha: f64,
        a: Arc<Matrix>,
        transb: Transpose,
        b: Arc<Matrix>,
    ) -> Result<Ticket, ServiceError> {
        self.submit_with_deadline(tenant, alpha, a, transb, b, self.inner.cfg.deadline)
    }

    /// [`GemmService::submit`] with an explicit per-request deadline
    /// (`None` = unbounded), overriding the service default.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        alpha: f64,
        a: Arc<Matrix>,
        transb: Transpose,
        b: Arc<Matrix>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        let inner = &*self.inner;
        let trace_id = trace::next_trace_id();
        let submitted_ns = telemetry::now_ns();
        telemetry::event(trace_id, TraceKind::Submitted, 0, 0);
        let (m, k) = (a.rows(), a.cols());
        let (bk, n) = transb.apply_dims(b.rows(), b.cols());
        if k != bk {
            inner.count(|c| &c.rejected);
            telemetry::event(trace_id, TraceKind::Rejected, 0, 0);
            return Err(ServiceError::Rejected(
                "inner dimensions of A and op(B) disagree",
            ));
        }
        if m == 0 || n == 0 || k == 0 {
            inner.count(|c| &c.rejected);
            telemetry::event(trace_id, TraceKind::Rejected, 0, 0);
            return Err(ServiceError::Rejected("empty matrix dimensions"));
        }
        let limit = inner.effective_queue_limit();
        let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.shutdown {
            drop(st);
            inner.count(|c| &c.rejected);
            telemetry::event(trace_id, TraceKind::Rejected, 0, 0);
            return Err(ServiceError::Rejected("service is shut down"));
        }
        if st.depth >= limit {
            let depth = st.depth;
            drop(st);
            inner.count(|c| &c.shed_overload);
            telemetry::event(
                trace_id,
                TraceKind::ShedOverload,
                depth as u64,
                limit as u64,
            );
            trace::health_event(
                HealthEventKind::Shed,
                trace_id,
                depth as u64,
                "global queue bound hit at admission",
            );
            return Err(ServiceError::Overloaded {
                queue_depth: depth,
                limit,
            });
        }
        let occupancy = st.queues.get(tenant).map_or(0, VecDeque::len);
        if occupancy >= inner.cfg.tenant_quota {
            drop(st);
            inner.count(|c| &c.shed_quota);
            telemetry::event(
                trace_id,
                TraceKind::ShedQuota,
                occupancy as u64,
                inner.cfg.tenant_quota as u64,
            );
            trace::health_event(
                HealthEventKind::Shed,
                trace_id,
                occupancy as u64,
                "tenant quota hit at admission",
            );
            return Err(ServiceError::Overloaded {
                queue_depth: occupancy,
                limit: inner.cfg.tenant_quota,
            });
        }
        let (tx, rx) = unbounded();
        let cancelled = Arc::new(AtomicBool::new(false));
        let req = Request {
            tenant: tenant.to_string(),
            alpha,
            a,
            transb,
            b,
            deadline: deadline.map(|d| Instant::now() + d),
            budget_ms: deadline.map_or(0, |d| d.as_millis() as u64),
            cancelled: Arc::clone(&cancelled),
            tx,
            trace: trace_id,
            submitted_ns,
        };
        let queue = st.queues.entry(tenant.to_string()).or_default();
        let was_empty = queue.is_empty();
        queue.push_back(req);
        if was_empty {
            st.rr.push_back(tenant.to_string());
        }
        st.depth += 1;
        drop(st);
        inner.count(|c| &c.admitted);
        telemetry::event(trace_id, TraceKind::Admitted, 0, 0);
        inner.work.notify_one();
        Ok(Ticket {
            rx,
            cancelled,
            id: trace_id,
        })
    }

    /// Requests currently queued (admitted, not yet executing).
    pub fn queue_depth(&self) -> usize {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .depth
    }

    /// Scrapeable `dgemm-telem-v1` snapshot of *this* service instance:
    /// queue depth, shed/retry/degrade counters, per-tenant occupancy
    /// and cache bytes, per-shard pool health.
    pub fn status_json(&self) -> String {
        self.inner.status_json()
    }

    /// The `/metrics` body for this instance: Prometheus text
    /// exposition format (counters, gauges and the per-tenant /
    /// shape-class latency histograms). What
    /// [`GemmService::serve_metrics`] serves; exposed directly so tests
    /// and embedders can scrape without a socket.
    pub fn metrics_text(&self) -> String {
        self.inner.prometheus_text()
    }

    /// The recorded span chain for a ticket ([`Ticket::id`]), oldest
    /// first — the request debug API: its lifecycle records and the
    /// phase spans any thread recorded for it, each with the lane it
    /// came from. Records survive in their lanes' rings until
    /// overwritten or [`crate::telemetry::reset`]; empty when the
    /// `telemetry` feature is off.
    pub fn trace_of(&self, ticket_id: u64) -> Vec<TraceEvent> {
        telemetry::events_for(ticket_id)
    }

    /// Bind a [`crate::metricsd`] scrape endpoint on `addr` (e.g.
    /// `"127.0.0.1:9464"`; port 0 picks a free port) serving this
    /// instance's `/metrics` and `/status`. The endpoint lives until
    /// the returned handle drops and holds its own reference to the
    /// service internals, so it stays scrapeable (final counters)
    /// even after the service shuts down.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<MetricsServer> {
        let source: Arc<dyn MetricsSource> = Arc::new(ScrapeSource(Arc::clone(&self.inner)));
        MetricsServer::spawn(addr, source)
    }

    /// [`GemmService::serve_metrics`] bound to `DGEMM_METRICS_ADDR`;
    /// `Ok(None)` when the variable is unset or empty.
    pub fn serve_metrics_from_env(&self) -> std::io::Result<Option<MetricsServer>> {
        match metricsd::addr_from_env()? {
            Some(addr) => Ok(Some(self.serve_metrics(&addr)?)),
            None => Ok(None),
        }
    }

    /// Stop admitting, drain every queued request to a resolution, wind
    /// down the shards, and return. Equivalent to dropping the service.
    pub fn shutdown(self) {}
}

/// The [`MetricsSource`] adapter handed to [`crate::metricsd`]: holds
/// its own `Arc<Inner>` so the scrape surface outlives the service
/// handle.
struct ScrapeSource(Arc<Inner>);

impl MetricsSource for ScrapeSource {
    fn metrics_text(&self) -> String {
        self.0.prometheus_text()
    }

    fn status_json(&self) -> String {
        self.0.status_json()
    }
}

impl Drop for GemmService {
    fn drop(&mut self) {
        {
            let mut st = self
                .inner
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        // Shards wind down when their last `Arc` drops with `Inner`.
    }
}

impl Inner {
    /// Bump one counter on both the process-wide [`SVC`] totals and
    /// this instance's scrapeable mirror.
    fn count(&self, sel: fn(&ServiceCounters) -> &AtomicU64) {
        sel(&SVC).fetch_add(1, Ordering::Relaxed);
        sel(&self.counters).fetch_add(1, Ordering::Relaxed);
    }

    fn count_n(&self, sel: fn(&ServiceCounters) -> &AtomicU64, n: u64) {
        sel(&SVC).fetch_add(n, Ordering::Relaxed);
        sel(&self.counters).fetch_add(n, Ordering::Relaxed);
    }

    /// The admission bound, shrunk to a quarter while any shard is
    /// unhealthy — load-shedding driven by pool health and watchdog
    /// signals, not just queue depth.
    fn effective_queue_limit(&self) -> usize {
        let unhealthy = (0..self.shards.len()).any(|i| self.shard_unhealthy(i));
        if unhealthy {
            (self.cfg.queue_limit / 4).max(1)
        } else {
            self.cfg.queue_limit
        }
    }

    /// A shard is unhealthy while its quarantine cooldown runs, or when
    /// its pool has started workers but none remain alive.
    fn shard_unhealthy(&self, idx: usize) -> bool {
        let shard = &self.shards[idx];
        {
            let mut until = shard
                .unhealthy_until
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match *until {
                Some(t) if Instant::now() < t => return true,
                Some(_) => *until = None,
                None => {}
            }
        }
        let st = match &shard.pool {
            Some(p) => p.status(),
            None => pool::status(),
        };
        st.workers_started > 0 && st.workers_alive == 0
    }

    fn quarantine(&self, idx: usize) {
        *self.shards[idx]
            .unhealthy_until
            .lock()
            .unwrap_or_else(PoisonError::into_inner) =
            Some(Instant::now() + self.cfg.unhealthy_cooldown);
    }

    /// The latency histograms for `req`'s `(tenant, shape-class)` key.
    fn hists_for(&self, req: &Request) -> Arc<RequestHists> {
        let (_, n) = req.transb.apply_dims(req.b.rows(), req.b.cols());
        let class = ShapeClass::of(req.a.rows(), n, req.a.cols()).label();
        let mut map = self.hists.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry((req.tenant.clone(), class)).or_default())
    }

    /// Record one request's queue/compute/pack observations and its
    /// `Executed` span (the group-attempt wall clock). Compute and pack
    /// are the group's phase spans, `phase_ns` (indexed as
    /// [`TraceKind::ALL`]); without them (recording compiled out, or a
    /// reset mid-group) compute falls back to the attempt wall clock.
    fn observe_request(
        &self,
        req: &Request,
        dequeue_ns: u64,
        exec_start_ns: u64,
        exec_ns: u64,
        phase_ns: &[u64; PHASES],
    ) {
        telemetry::record(
            req.trace,
            TraceKind::Executed,
            exec_start_ns,
            exec_ns,
            [0, 0],
        );
        let h = self.hists_for(req);
        h.queue
            .record_us(dequeue_ns.saturating_sub(req.submitted_ns) / 1_000);
        let compute_ns = phase_ns[TraceKind::Compute.index()];
        h.compute.record_us(if compute_ns > 0 {
            compute_ns / 1_000
        } else {
            exec_ns / 1_000
        });
        let pack_ns = phase_ns[TraceKind::PackA.index()] + phase_ns[TraceKind::PackB.index()];
        h.pack.record_us(pack_ns / 1_000);
    }

    /// Deliver the one-and-only resolution for `req`, counting the
    /// outcome. Consumes the request: exactly-once by construction.
    /// Also the tail of the trace chain: records the `Resolved` event,
    /// the end-to-end latency histogram sample, and (in
    /// `DGEMM_TELEMETRY=json` mode) prints the request's chrome-trace
    /// line.
    fn resolve(&self, req: Request, result: Result<Matrix, ServiceError>) {
        let outcome: u64 = match &result {
            Ok(_) => {
                self.count(|c| &c.completed);
                0
            }
            Err(ServiceError::Overloaded { .. }) => {
                self.count(|c| &c.shed_overload);
                1
            }
            Err(ServiceError::DeadlineExceeded { .. }) => {
                self.count(|c| &c.deadline_misses);
                2
            }
            Err(ServiceError::Rejected(_)) => {
                self.count(|c| &c.rejected);
                3
            }
        };
        self.hists_for(&req)
            .total
            .record_us(telemetry::now_ns().saturating_sub(req.submitted_ns) / 1_000);
        telemetry::event(req.trace, TraceKind::Resolved, outcome, 0);
        if telemetry::mode_from_env() == Ok(TelemetryMode::Json) {
            let events = telemetry::events_for(req.trace);
            if !events.is_empty() {
                eprintln!("{}", trace::chrome_trace_json(&events));
            }
        }
        // A caller that dropped its ticket just discards the result.
        let _ = req.tx.send(result);
    }

    /// Pop the next round-robin tenant's head request plus every queued
    /// request of that tenant that coalesces with it (bounded by
    /// `cfg.coalesce`).
    fn take_group(&self, st: &mut QueueState) -> Vec<Request> {
        // depth > 0 implies a queued tenant with a non-empty queue; the
        // defensive empty returns keep a broken invariant from
        // panicking the scheduler (the loop just re-checks depth).
        let Some(tenant) = st.rr.pop_front() else {
            return Vec::new();
        };
        let Some(queue) = st.queues.get_mut(&tenant) else {
            return Vec::new();
        };
        let Some(head) = queue.pop_front() else {
            return Vec::new();
        };
        let mut group = vec![head];
        if self.cfg.coalesce > 1 {
            let mut rest = std::mem::take(queue);
            while let Some(req) = rest.pop_front() {
                if group.len() < self.cfg.coalesce && group[0].coalesces_with(&req) {
                    group.push(req);
                } else {
                    queue.push_back(req);
                }
            }
        }
        if !queue.is_empty() {
            st.rr.push_back(tenant);
        }
        st.depth -= group.len();
        group
    }

    /// `b`'s panels as `op(B) = transb` for `tenant`, under the service's
    /// packing geometry: the tenant's own, else a shelved blob whose
    /// source digest matches `b` (an attach; the shelf's `Arc` is shared),
    /// else a fresh pack. A weight new to the tenant drops its least
    /// recently used one when it holds `cache_entries` already. `None`
    /// when tenants hold no panels or the pack failed to allocate: the
    /// group then packs per call.
    ///
    /// The process-wide pack-cache counters move as for one cache per
    /// tenant: panels the tenant holds or attaches are a hit that saved
    /// their bytes, a pack is a miss, a dropped weight an invalidation.
    fn tenant_panels(
        &self,
        tenant: &str,
        b: &Arc<Matrix>,
        transb: Transpose,
    ) -> Option<Arc<PrepackedB>> {
        if self.cfg.cache_entries == 0 {
            return None;
        }
        let held = |w: &TenantWeight| Arc::ptr_eq(&w.0, b) && w.1 == transb;
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let weights = tenants.entry(tenant.to_owned()).or_default();
        if let Some(entry) = weights
            .iter()
            .position(held)
            .and_then(|i| weights.remove(i))
        {
            let panels = Arc::clone(&entry.2);
            weights.push_back(entry);
            telemetry::cache_hit(panels.bytes() as u64);
            return Some(panels);
        }
        // Verifying a blob reads `b` and packing writes its panels: the
        // status readers do not wait for either.
        drop(tenants);
        let panels = if let Some(panels) = self.attach_from_shelf(b, transb) {
            telemetry::cache_hit(panels.bytes() as u64);
            panels
        } else {
            telemetry::cache_miss();
            let built = PrepackedB::from_matrix_op(&self.cfg.gemm, transb, &b.view());
            Arc::new(built.ok()?)
        };
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let weights = tenants.entry(tenant.to_owned()).or_default();
        if weights.len() >= self.cfg.cache_entries {
            weights.pop_front();
            telemetry::cache_invalidate(1);
        }
        weights.push_back((Arc::clone(b), transb, Arc::clone(&panels)));
        Some(panels)
    }

    /// The shelved blob that covers `op(b) = transb` under the service's
    /// packing geometry and whose source digest is `b`'s, counted as an
    /// attach. `b` is digested once, read-only (no pack telemetry),
    /// however many blobs cover it; `verify_failures` counts a `b` that
    /// some blob covered but none matched, not the scan past other
    /// tenants' weights.
    fn attach_from_shelf(&self, b: &Matrix, transb: Transpose) -> Option<Arc<PrepackedB>> {
        let nr = self.cfg.gemm.kernel.nr();
        let (kc, nc) = (self.cfg.gemm.blocks.kc, self.cfg.gemm.blocks.nc);
        let (k, n) = transb.apply_dims(b.rows(), b.cols());
        let covers = |e: &&ShelfEntry| e.panels.matches(k, n, transb, nr, kc, nc);
        let mut digest = None;
        for entry in self.shelf.iter().filter(covers) {
            let digest =
                *digest.get_or_insert_with(|| store::matrix_digest(&b.view(), transb, kc, nc));
            if entry.digest == digest {
                crate::telemetry::store_verify(true);
                self.store_counters.attaches.fetch_add(1, Ordering::Relaxed);
                crate::telemetry::store_attach();
                return Some(Arc::clone(&entry.panels));
            }
        }
        if digest.is_some() {
            crate::telemetry::store_verify(false);
        }
        None
    }

    /// Run one coalesced group end to end: deadline/cancel triage, the
    /// retry-with-backoff / degrade-to-serial ladder, panic containment
    /// with per-request serial recovery — and resolve every member
    /// exactly once. Runs under the leader's trace id (see
    /// [`scheduler_main`]).
    fn execute_group(&self, group: Vec<Request>) {
        // Injection site: the queue stalls between dequeue and triage,
        // so a stall can push queued requests past their deadlines.
        faults::service_stall_delay();
        let dequeue_ns = telemetry::now_ns();
        for req in &group {
            let waited = dequeue_ns.saturating_sub(req.submitted_ns);
            telemetry::record(
                req.trace,
                TraceKind::Queued,
                req.submitted_ns,
                waited,
                [0, 0],
            );
        }
        let now = Instant::now();
        let mut live: Vec<Request> = Vec::with_capacity(group.len());
        for req in group {
            if req.cancelled.load(Ordering::Acquire) {
                self.resolve(req, Err(ServiceError::Rejected("cancelled by caller")));
            } else if req.deadline.is_some_and(|d| now >= d) {
                let budget_ms = req.budget_ms;
                self.resolve(req, Err(ServiceError::DeadlineExceeded { budget_ms }));
            } else {
                live.push(req);
            }
        }
        if live.is_empty() {
            return;
        }
        if live.len() >= 2 {
            self.count(|c| &c.coalesced_batches);
            self.count_n(|c| &c.coalesced_requests, live.len() as u64);
            let batch_id = live[0].trace;
            for req in &live {
                telemetry::event(req.trace, TraceKind::Coalesced, batch_id, live.len() as u64);
            }
        }
        let (_, n) = live[0]
            .transb
            .apply_dims(live[0].b.rows(), live[0].b.cols());
        let mut outs: Vec<Matrix> = live.iter().map(|r| Matrix::zeros(r.a.rows(), n)).collect();
        let heads = telemetry::heads();
        let exec_start_ns = telemetry::now_ns();
        let result = catch_unwind(AssertUnwindSafe(|| self.run_group(&live, &mut outs)));
        let exec_ns = telemetry::now_ns().saturating_sub(exec_start_ns);
        // The group's pack and compute: what any lane recorded under the
        // leader's id since the group started (every member observes the
        // shared batch's totals).
        let phase_ns = telemetry::phase_ns_since(&heads, telemetry::current_trace());
        for req in &live {
            self.observe_request(req, dequeue_ns, exec_start_ns, exec_ns, &phase_ns);
        }
        match result {
            Ok(Ok(())) => {
                for (req, c) in live.into_iter().zip(outs) {
                    self.resolve(req, Ok(c));
                }
            }
            Ok(Err(_)) => {
                for req in live {
                    self.resolve(
                        req,
                        Err(ServiceError::Rejected(
                            "pool fault persisted through retries and serial fallback",
                        )),
                    );
                }
            }
            Err(_) => {
                // Injection site aftermath (or a genuine scheduler-side
                // panic): contain it and recover each member with an
                // independent, serial, bit-identical execution so one
                // poisoned group member cannot take down its peers.
                self.count(|c| &c.panics_contained);
                trace::health_event(
                    HealthEventKind::PanicContained,
                    live.first().map_or(0, |r| r.trace),
                    live.len() as u64,
                    "group execution panicked; per-request serial recovery",
                );
                for req in live {
                    self.recover_serially(req);
                }
            }
        }
    }

    /// The retry/degrade ladder for one group. On `Ok(())` every matrix
    /// in `outs` holds the bit-exact result (including the served
    /// watchdog-recovery case).
    fn run_group(&self, live: &[Request], outs: &mut [Matrix]) -> Result<(), GemmError> {
        // Injection site: a panic in the middle of a coalesced batch.
        faults::panic_in_service();
        let shard_idx = self.rr_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let Request {
            ref tenant,
            alpha,
            transb,
            ref b,
            ..
        } = live[0];
        let mut attempt: u32 = 0;
        loop {
            let degrade = self.shard_unhealthy(shard_idx);
            if degrade {
                self.count(|c| &c.degraded);
                trace::health_event(
                    HealthEventKind::DegradeSerial,
                    live[0].trace,
                    shard_idx as u64,
                    "shard unhealthy: group degraded to the serial runtime",
                );
                for req in live {
                    telemetry::event(req.trace, TraceKind::Degrade, shard_idx as u64, 0);
                }
            }
            if attempt == 0 {
                let pooled = u64::from(self.shards[shard_idx].pool.is_some() && !degrade);
                for req in live {
                    telemetry::event(req.trace, TraceKind::Dispatched, shard_idx as u64, pooled);
                }
            }
            // B is the tenant's panels or packed per call, never looked
            // up in the process-wide cache. An α = 0 group reads no B.
            let cfg = if degrade {
                self.cfg.gemm.with_parallelism(Parallelism::Serial)
            } else {
                self.cfg.gemm
            }
            .with_pack_cache(false);
            let panels = (alpha != 0.0)
                .then(|| self.tenant_panels(tenant, b, transb))
                .flatten();
            let a_views: Vec<MatrixView<'_>> = live.iter().map(|r| r.a.view()).collect();
            let mut c_views: Vec<MatrixViewMut<'_>> =
                outs.iter_mut().map(Matrix::view_mut).collect();
            let mut run = || match &panels {
                Some(panels) => {
                    gemm_batch_prepacked(alpha, &a_views, panels, 0.0, &mut c_views, &cfg)
                }
                None => {
                    gemm_batch_shared_b(alpha, &a_views, transb, &b.view(), 0.0, &mut c_views, &cfg)
                }
            };
            let result = match (&self.shards[shard_idx].pool, degrade) {
                (Some(p), false) => pool::with_pool(p, run),
                _ => run(),
            };
            drop(c_views);
            match result {
                Ok(()) => return Ok(()),
                // The watchdog contract (DESIGN.md §12): the caller
                // recomputed the missing blocks serially, so `C` is
                // bit-exact. Serve it, quarantine the shard.
                Err(GemmError::EpochTimeout { .. }) => {
                    self.quarantine(shard_idx);
                    self.count(|c| &c.degraded);
                    trace::health_event(
                        HealthEventKind::Quarantine,
                        live[0].trace,
                        shard_idx as u64,
                        "epoch watchdog expired; recovered result served, shard quarantined",
                    );
                    for req in live {
                        telemetry::event(req.trace, TraceKind::Degrade, shard_idx as u64, 1);
                    }
                    return Ok(());
                }
                Err(GemmError::WorkerFault { .. } | GemmError::AllocFailure { .. })
                    if attempt < self.cfg.max_retries =>
                {
                    attempt += 1;
                    self.count(|c| &c.retries);
                    trace::health_event(
                        HealthEventKind::Retry,
                        live[0].trace,
                        u64::from(attempt),
                        "recoverable pool fault; backoff retry",
                    );
                    for req in live {
                        telemetry::event(req.trace, TraceKind::Retry, u64::from(attempt), 0);
                    }
                    self.quarantine(shard_idx);
                    trace::health_event(
                        HealthEventKind::Quarantine,
                        live[0].trace,
                        shard_idx as u64,
                        "shard quarantined after recoverable fault",
                    );
                    // WorkerFault leaves C unspecified: re-zero before
                    // the retry so β = 0 semantics still hold.
                    for c in outs.iter_mut() {
                        c.as_mut_slice().fill(0.0);
                    }
                    thread::sleep(Duration::from_millis(1 << attempt.min(4)));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Last-ditch per-request recovery after a contained panic: an
    /// independent serial execution, itself panic-contained. Resolves
    /// the request either way.
    fn recover_serially(&self, req: Request) {
        let (_, n) = req.transb.apply_dims(req.b.rows(), req.b.cols());
        let mut c = Matrix::zeros(req.a.rows(), n);
        let cfg = self
            .cfg
            .gemm
            .with_parallelism(Parallelism::Serial)
            .with_pack_cache(false);
        // Recovery computes one request at a time, so its spans land on
        // the member's own trace, not the failed batch leader's.
        let result = telemetry::with_trace(req.trace, || {
            catch_unwind(AssertUnwindSafe(|| {
                let a_views = [req.a.view()];
                let mut c_views = [c.view_mut()];
                gemm_batch_shared_b(
                    req.alpha,
                    &a_views,
                    req.transb,
                    &req.b.view(),
                    0.0,
                    &mut c_views,
                    &cfg,
                )
            }))
        });
        self.count(|c| &c.degraded);
        telemetry::event(req.trace, TraceKind::SerialRecovery, 0, 0);
        match result {
            Ok(Ok(())) => self.resolve(req, Ok(c)),
            _ => self.resolve(
                req,
                Err(ServiceError::Rejected(
                    "execution panicked even in serial recovery",
                )),
            ),
        }
    }

    /// The queue depth, each tenant's queued count and whether the
    /// service is shutting down, read under one lock.
    fn queues(&self) -> (usize, Vec<(String, usize)>, bool) {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let occ = st.queues.iter().map(|(t, q)| (t.clone(), q.len()));
        (st.depth, occ.collect(), st.shutdown)
    }

    /// Every tenant with a queue or held weights, by name: its name,
    /// queued requests, and the bytes and count of its held panels.
    fn tenant_rows(&self, occupancy: &[(String, usize)]) -> Vec<(String, usize, usize, usize)> {
        let tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let mut names: Vec<&String> = occupancy.iter().map(|(t, _)| t).collect();
        names.extend(tenants.keys());
        names.sort();
        names.dedup();
        let row = |name: &String| {
            let queued = occupancy.iter().find(|(t, _)| t == name);
            let held = |w: &VecDeque<TenantWeight>| (w.iter().map(|e| e.2.bytes()).sum(), w.len());
            let (bytes, entries) = tenants.get(name).map_or((0, 0), held);
            (name.clone(), queued.map_or(0, |(_, q)| *q), bytes, entries)
        };
        names.into_iter().map(row).collect()
    }

    /// Each shard's label, pool status and health.
    fn shard_rows(&self) -> Vec<(String, pool::PoolStatus, bool)> {
        let row = |(i, shard): (usize, &Shard)| match &shard.pool {
            Some(p) => (format!("svc{i}"), p.status(), self.shard_unhealthy(i)),
            None => ("global".to_owned(), pool::status(), self.shard_unhealthy(i)),
        };
        self.shards.iter().enumerate().map(row).collect()
    }

    fn status_json(&self) -> String {
        let (depth, occupancy, shutdown) = self.queues();
        let ld = Ordering::Relaxed;
        // Warm-start health (additive dgemm-telem-v1 fields): this
        // instance's shelf plus its load/attach outcomes; `verifies` /
        // `verify_failures` are process-wide (telemetry snapshot).
        let snap = crate::telemetry::snapshot();
        let store = Value::obj()
            .field("configured", self.cfg.weight_store.is_some())
            .field("shelf", self.shelf.len())
            .field("loads", self.store_counters.loads.load(ld))
            .field("load_failures", self.store_counters.load_failures.load(ld))
            .field("attaches", self.store_counters.attaches.load(ld))
            .field("verifies", snap.store.verifies)
            .field("verify_failures", snap.store.verify_failures);
        let tenants =
            self.tenant_rows(&occupancy)
                .into_iter()
                .map(|(name, queued, bytes, entries)| {
                    Value::obj()
                        .field("name", name)
                        .field("queued", queued)
                        .field("cache_bytes", bytes)
                        .field("cache_entries", entries)
                });
        let shards = self.shard_rows().into_iter().map(|(label, st, unhealthy)| {
            Value::obj()
                .field("label", label)
                .field("workers_alive", st.workers_alive)
                .field("deaths", st.deaths)
                .field("respawns", st.respawns)
                .field("spawn_failures", st.spawn_failures)
                .field("unhealthy", unhealthy)
        });
        let mut histograms = Vec::new();
        for ((tenant, shape), h) in self.sorted_hists() {
            for (metric, hist) in h.metrics() {
                if hist.count() == 0 {
                    continue;
                }
                histograms.push(
                    Value::obj()
                        .field("tenant", tenant.as_str())
                        .field("shape", shape.as_str())
                        .field("metric", metric)
                        .field("count", hist.count())
                        .field("sum_us", hist.sum_us())
                        .field("p50_us", hist.quantile_us(0.50).unwrap_or(0))
                        .field("p90_us", hist.quantile_us(0.90).unwrap_or(0))
                        .field("p99_us", hist.quantile_us(0.99).unwrap_or(0)),
                );
            }
        }
        let journal = trace::health_events();
        let events = journal[journal.len().saturating_sub(64)..].iter().map(|e| {
            Value::obj()
                .field("seq", e.seq)
                .field("ts_ms", e.ts_ns / 1_000_000)
                .field("kind", e.kind.label())
                .field("trace", e.trace)
                .field("detail", e.detail)
                .field("cause", e.cause)
        });
        Value::obj()
            .field("schema", "dgemm-telem-v1")
            .field("kind", "service")
            .field("queue_depth", depth)
            .field("queue_limit", self.cfg.queue_limit)
            .field("effective_queue_limit", self.effective_queue_limit())
            .field("shutdown", shutdown)
            // Scraper ordering/staleness signals + the dispatch-model
            // quality counter (additive dgemm-telem-v1 fields).
            .field("snapshot_seq", self.snapshot_seq.fetch_add(1, ld))
            .field("uptime_ms", trace::uptime_ms())
            .field("dispatch_mispredicts", snap.runtime.dispatch_mispredicts)
            .field("counters", self.counters.snapshot().json())
            .field("store", store)
            .field("tenants", Value::Arr(tenants.collect()))
            .field("shards", Value::Arr(shards.collect()))
            .field("histograms", Value::Arr(histograms))
            .field("events", Value::Arr(events.collect()))
            .to_string()
    }

    /// The latency histograms in stable `(tenant, shape)` order.
    fn sorted_hists(&self) -> Vec<((String, String), Arc<RequestHists>)> {
        let map = self.hists.lock().unwrap_or_else(PoisonError::into_inner);
        let mut entries: Vec<_> = map
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Render the Prometheus text exposition body served at `/metrics`:
    /// service/runtime/cache counters, queue and shard gauges, health
    /// event totals, and the per-(tenant, shape-class) latency
    /// histograms with cumulative log2 `le` buckets.
    fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(8192);

        let _ = writeln!(s, "# TYPE dgemm_uptime_ms gauge");
        let _ = writeln!(s, "dgemm_uptime_ms {}", trace::uptime_ms());
        let _ = writeln!(s, "# TYPE dgemm_snapshots_total counter");
        let _ = writeln!(
            s,
            "dgemm_snapshots_total {}",
            self.snapshot_seq.fetch_add(1, Ordering::Relaxed) + 1
        );

        let (depth, occupancy, _) = self.queues();
        let _ = writeln!(s, "# TYPE dgemm_service_queue_depth gauge");
        let _ = writeln!(s, "dgemm_service_queue_depth {depth}");
        let _ = writeln!(s, "# TYPE dgemm_service_queue_limit gauge");
        let _ = writeln!(s, "dgemm_service_queue_limit {}", self.cfg.queue_limit);
        let _ = writeln!(s, "# TYPE dgemm_service_effective_queue_limit gauge");
        let _ = writeln!(
            s,
            "dgemm_service_effective_queue_limit {}",
            self.effective_queue_limit()
        );

        let snap = crate::telemetry::snapshot();
        let families = [
            ("service", self.counters.snapshot().json()),
            ("runtime", snap.runtime.json()),
            ("pack_cache", snap.cache.json()),
            ("store", snap.store.json()),
        ];
        for (family, counters) in families {
            let Value::Obj(counters) = counters else {
                continue;
            };
            for (name, v) in counters {
                let _ = writeln!(s, "# TYPE dgemm_{family}_{name}_total counter");
                let _ = writeln!(s, "dgemm_{family}_{name}_total {v}");
            }
        }
        let _ = writeln!(s, "# TYPE dgemm_store_shelf_entries gauge");
        let _ = writeln!(s, "dgemm_store_shelf_entries {}", self.shelf.len());

        let _ = writeln!(s, "# TYPE dgemm_health_events_total counter");
        for (kind, n) in trace::health_counts() {
            let _ = writeln!(
                s,
                "dgemm_health_events_total{{kind=\"{}\"}} {n}",
                kind.label()
            );
        }

        let _ = writeln!(s, "# TYPE dgemm_tenant_queued gauge");
        let _ = writeln!(s, "# TYPE dgemm_tenant_cache_bytes gauge");
        for (name, queued, bytes, _) in self.tenant_rows(&occupancy) {
            let esc = prom_label_escape(&name);
            let _ = writeln!(s, "dgemm_tenant_queued{{tenant=\"{esc}\"}} {queued}");
            let _ = writeln!(s, "dgemm_tenant_cache_bytes{{tenant=\"{esc}\"}} {bytes}");
        }

        let _ = writeln!(s, "# TYPE dgemm_shard_workers_alive gauge");
        let _ = writeln!(s, "# TYPE dgemm_shard_unhealthy gauge");
        for (label, st, unhealthy) in self.shard_rows() {
            let _ = writeln!(
                s,
                "dgemm_shard_workers_alive{{shard=\"{label}\"}} {}",
                st.workers_alive
            );
            let _ = writeln!(
                s,
                "dgemm_shard_unhealthy{{shard=\"{label}\"}} {}",
                u8::from(unhealthy)
            );
        }

        // One Prometheus histogram family per metric; each
        // (tenant, shape) pair is a labelled series with cumulative
        // buckets (monotone by construction: cum only grows).
        let hists = self.sorted_hists();
        for metric in ["total", "queue", "compute", "pack"] {
            let family = format!("dgemm_request_{metric}_latency_us");
            let series: Vec<_> = hists
                .iter()
                .filter_map(|((tenant, shape), h)| {
                    let hist = h
                        .metrics()
                        .into_iter()
                        .find(|(m, _)| *m == metric)
                        .map(|(_, hist)| hist)?;
                    (hist.count() > 0).then(|| (tenant.clone(), shape.clone(), hist))
                })
                .collect();
            if series.is_empty() {
                continue;
            }
            let _ = writeln!(s, "# TYPE {family} histogram");
            for (tenant, shape, hist) in series {
                let labels = format!(
                    "tenant=\"{}\",shape=\"{}\"",
                    prom_label_escape(&tenant),
                    prom_label_escape(&shape)
                );
                let mut cum = 0u64;
                for (i, n) in hist.bucket_counts().into_iter().enumerate() {
                    cum += n;
                    let _ = writeln!(
                        s,
                        "{family}_bucket{{{labels},le=\"{}\"}} {cum}",
                        LatencyHistogram::bucket_edge(i)
                    );
                }
                cum += hist.overflow_count();
                let _ = writeln!(s, "{family}_bucket{{{labels},le=\"+Inf\"}} {cum}");
                let _ = writeln!(s, "{family}_sum{{{labels}}} {}", hist.sum_us());
                // `_count` repeats the +Inf cumulative (not the count
                // atomic) so the exposition is internally consistent
                // even if a recording lands mid-render.
                let _ = writeln!(s, "{family}_count{{{labels}}} {cum}");
            }
        }
        s
    }
}

/// The scheduler loop: wait for work, take one coalesced group, run it.
/// On shutdown the queue is drained to empty — every admitted request
/// resolves — before the thread exits.
fn scheduler_main(inner: Arc<Inner>) {
    loop {
        let group = {
            let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.depth > 0 {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            inner.take_group(&mut st)
        };
        // The group runs under its leader's trace id, so the shared
        // batch's spans — on this thread and in the pool jobs it submits
        // — and any fault journaled meanwhile land on the request at its
        // head; members carry a `Coalesced` pointer at the leader.
        let leader = group.first().map_or(0, |r| r.trace);
        telemetry::with_trace(leader, || inner.execute_group(group));
    }
}

/// Prometheus label-value escaping: backslash, double quote and
/// newline (the exposition format's only label escapes).
fn prom_label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_error_displays_are_stable() {
        let o = ServiceError::Overloaded {
            queue_depth: 9,
            limit: 8,
        };
        assert_eq!(
            o.to_string(),
            "service overloaded: 9 queued against limit 8"
        );
        let d = ServiceError::DeadlineExceeded { budget_ms: 5 };
        assert_eq!(d.to_string(), "deadline of 5 ms exceeded before completion");
        let r = ServiceError::Rejected("nope");
        assert_eq!(r.to_string(), "request rejected: nope");
    }

    #[test]
    fn coalescing_key_requires_same_weight_shape_and_alpha() {
        let b = Arc::new(Matrix::random(6, 6, 1));
        let b2 = Arc::new(Matrix::random(6, 6, 1));
        let mk = |alpha: f64, a_rows: usize, b: &Arc<Matrix>| {
            let (tx, _rx) = unbounded();
            Request {
                tenant: "t".into(),
                alpha,
                a: Arc::new(Matrix::random(a_rows, 6, 2)),
                transb: Transpose::No,
                b: Arc::clone(b),
                deadline: None,
                budget_ms: 0,
                cancelled: Arc::new(AtomicBool::new(false)),
                tx,
                trace: 0,
                submitted_ns: 0,
            }
        };
        let head = mk(1.0, 4, &b);
        assert!(head.coalesces_with(&mk(1.0, 4, &b)));
        assert!(!head.coalesces_with(&mk(2.0, 4, &b)), "alpha differs");
        assert!(!head.coalesces_with(&mk(1.0, 5, &b)), "A shape differs");
        assert!(
            !head.coalesces_with(&mk(1.0, 4, &b2)),
            "weight identity differs"
        );
    }
}
