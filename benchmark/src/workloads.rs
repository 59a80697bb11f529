//! The four workloads. Each is prepared from a seed (inputs, then the
//! library-side set-up that `setup_s` times), runs timed regions of
//! operations through a public entry point, and verifies what came back.

use crate::host::process_cpu_s;
use crate::inputs::{check_vector, checksum, combine, derive, freivalds, mat_vec, shuffled};
use crate::json::{self, Value};
use crate::spans::SpanLog;
use crate::stats::{self, Mark, Windows};
use dgemm_core::blas::dgemm;
use dgemm_core::gemm::GemmConfig;
use dgemm_core::matrix::Matrix;
use dgemm_core::pool::{self, Parallelism, WorkerPool};
use dgemm_core::prepack::PrepackedB;
use dgemm_core::reference::naive_gemm;
use dgemm_core::service::{GemmService, ServiceConfig, ServiceError, Ticket};
use dgemm_core::util::{gemm_tolerance, SplitMix64};
use dgemm_core::{store, telemetry, Transpose};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Where the ladder writes: the weight store, the per-run records and
/// `trace.json`. Relative to the checkout root `run.sh` changes into.
pub const OUT_DIR: &str = "benchmark/out";

/// Edge of the square problems: small enough that the quiet windows
/// of a run hold the hundred operations a p90 needs.
pub const SQUARE: usize = 512;
const SQUARE_RING: usize = 3;
const SKINNY_A_RING: usize = 8;
const SKINNY_B_RING: usize = 48;
const SERVICE_WEIGHTS: usize = 4;
const SERVICE_ACT_RING: usize = 64;
const SERVICE_MIX: usize = 4096;
/// Tickets the one generator thread keeps outstanding (closed loop).
pub const SERVICE_OUTSTANDING: usize = 32;

/// Degree of the service's pool. The generator thread is busy too, and
/// `Pool(nproc)` would make more runnable threads than processors: on a
/// shared host that measures the host's scheduler (ten-run spreads of
/// up to 36 %), not the service.
pub fn service_pool_degree(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// Freivalds runs on every operation of the square workloads and on
/// every 64th of the small-operation ones.
const VERIFY_EVERY_SMALL: usize = 64;
/// Cold set-ups per run, half before the timed region and half after
/// it, so that one burst of a neighbour cannot cover them all;
/// `setup_s` is the fastest.
pub const SETUP_REPS: usize = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl Shape {
    pub fn flops(self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }
}

pub const SKINNY_SHAPE: Shape = Shape {
    m: 8,
    n: 512,
    k: 512,
};
pub const SERVICE_SHAPE: Shape = Shape {
    m: 16,
    n: 512,
    k: 512,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SquareSerial,
    SquarePool,
    SkinnyFresh,
    ServiceReuse,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SquareSerial,
        Workload::SquarePool,
        Workload::SkinnyFresh,
        Workload::ServiceReuse,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SquareSerial => "square_serial",
            Workload::SquarePool => "square_pool",
            Workload::SkinnyFresh => "skinny_fresh",
            Workload::ServiceReuse => "service_reuse",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::SquareSerial | Workload::SquarePool => Shape {
                m: SQUARE,
                n: SQUARE,
                k: SQUARE,
            },
            Workload::SkinnyFresh => SKINNY_SHAPE,
            Workload::ServiceReuse => SERVICE_SHAPE,
        }
    }
}

/// Exact work counters of one timed region, read from the library's
/// telemetry after a reset at the region's start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub flops: u64,
    pub packed_a_bytes: u64,
    pub packed_b_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Counters {
    fn read() -> Self {
        let snap = telemetry::snapshot();
        Counters {
            flops: snap.total_flops(),
            packed_a_bytes: snap.total_packed_a_bytes(),
            packed_b_bytes: snap.total_packed_b_bytes(),
            cache_hits: snap.cache.hits,
            cache_misses: snap.cache.misses,
        }
    }

    pub fn to_json(self, attempted: u64) -> Value {
        let per_op = |x: u64| json::num(x as f64 / attempted.max(1) as f64);
        json::obj([
            ("flops", json::count(self.flops)),
            ("packed_a_bytes", json::count(self.packed_a_bytes)),
            ("packed_b_bytes", json::count(self.packed_b_bytes)),
            ("cache_hits", json::count(self.cache_hits)),
            ("cache_misses", json::count(self.cache_misses)),
            // Run length is set in seconds, so totals vary with speed;
            // the per-operation counts are what repeats exactly.
            ("flops_per_op", per_op(self.flops)),
            ("packed_a_bytes_per_op", per_op(self.packed_a_bytes)),
            ("packed_b_bytes_per_op", per_op(self.packed_b_bytes)),
        ])
    }
}

/// What one timed region measured.
#[derive(Debug, Default)]
pub struct Sample {
    /// Duration of each operation, in completion order.
    pub lat_ns: Vec<u64>,
    /// The windows the region was cut into, the last ending with it.
    pub marks: Vec<Mark>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the record.
    pub failures: Vec<String>,
    pub counters: Counters,
}

impl Sample {
    /// Wall time of the whole region.
    pub fn wall_s(&self) -> f64 {
        self.marks.last().map_or(0.0, |m| m.wall_ns as f64 * 1e-9)
    }

    /// Process CPU time of the whole region.
    pub fn cpu_s(&self) -> f64 {
        self.marks.last().map_or(0.0, |m| m.cpu_s)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// A timed region in progress: its clocks, its windows and its sample.
struct Region {
    sample: Sample,
    windows: Windows,
    start: Instant,
    cpu0: f64,
}

impl Region {
    /// Zero the library's counters and start the clocks.
    fn begin() -> Self {
        telemetry::reset();
        Region {
            sample: Sample::default(),
            windows: Windows::new(stats::WINDOW_S),
            cpu0: process_cpu_s(),
            start: Instant::now(),
        }
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The operation issued at `t0` has just completed.
    fn op_done(&mut self, t0: Instant) {
        let t1 = Instant::now();
        self.sample.lat_ns.push((t1 - t0).as_nanos() as u64);
        self.sample.attempted += 1;
        let cpu0 = self.cpu0;
        self.windows.after_op(
            self.sample.lat_ns.len(),
            (t1 - self.start).as_nanos() as u64,
            || process_cpu_s() - cpu0,
        );
    }

    /// Close the last window and read the library's counters.
    fn end(mut self) -> Sample {
        self.windows.close(
            self.sample.lat_ns.len(),
            self.start.elapsed().as_nanos() as u64,
            process_cpu_s() - self.cpu0,
        );
        self.sample.marks = self.windows.marks;
        self.sample.counters = Counters::read();
        self.sample
    }
}

/// A workload whose inputs exist and whose set-up has run.
pub trait Prepared {
    /// Run operations for `seconds`, timing each around the public
    /// entry point; with `spans`, also record one span per operation.
    fn region(&mut self, seconds: f64, spans: Option<&mut SpanLog>) -> Sample;

    /// Checks that need a second computation (full reference
    /// comparison, bit-identity across runtimes). Outside any timed
    /// region; returns one description per failed check.
    fn final_checks(&mut self) -> Vec<String>;

    /// `reps` more cold set-ups, timed like those of [`prepare`]. The
    /// workload is not used again afterwards.
    fn more_setups(&mut self, reps: usize) -> Vec<f64>;
}

/// Inputs exist; run `reps` cold set-ups and keep the last one.
/// Returns the prepared workload, the set-up times and the input stamp.
pub fn prepare(w: Workload, seed: u64, reps: usize) -> (Box<dyn Prepared>, Vec<f64>, Value) {
    let nproc = crate::host::nproc();
    match w {
        Workload::SquarePool => Calls::prepare(w, seed, Parallelism::Pool(nproc), reps),
        Workload::SquareSerial | Workload::SkinnyFresh => {
            Calls::prepare(w, seed, Parallelism::Serial, reps)
        }
        Workload::ServiceReuse => {
            let (mut service, stamp) = Service::new(seed, service_pool_degree(nproc));
            let setup_s = (0..reps).map(|_| service.cold_setup()).collect();
            (Box::new(service), setup_s, stamp)
        }
    }
}

// ---------------------------------------------------------------------
// The three `blas::dgemm` workloads.
// ---------------------------------------------------------------------

struct Calls {
    workload: Workload,
    parallelism: Parallelism,
    cfg: GemmConfig,
    a: Vec<Matrix>,
    b: Vec<Matrix>,
    /// `B·x` per B, for Freivalds.
    bx: Vec<Vec<f64>>,
    x: Vec<f64>,
    /// `(a, b)` indices per ring position, in seeded order.
    ring: Vec<(usize, usize)>,
    verify_every: usize,
    c: Matrix,
    /// Ring position carries over from region to region.
    next_op: usize,
}

impl Calls {
    fn prepare(
        w: Workload,
        seed: u64,
        parallelism: Parallelism,
        reps: usize,
    ) -> (Box<dyn Prepared>, Vec<f64>, Value) {
        let Shape { m, n, k } = w.shape();
        let (a_ring, b_ring, verify_every) = match w {
            Workload::SkinnyFresh => (SKINNY_A_RING, SKINNY_B_RING, VERIFY_EVERY_SMALL),
            _ => (SQUARE_RING, SQUARE_RING, 1),
        };
        let a: Vec<Matrix> = (0..a_ring)
            .map(|i| Matrix::random(m, k, derive(seed, 100 + i as u64)))
            .collect();
        let b: Vec<Matrix> = (0..b_ring)
            .map(|i| Matrix::random(k, n, derive(seed, 200 + i as u64)))
            .collect();
        let x = check_vector(n, derive(seed, 300));
        let bx = b.iter().map(|b| mat_vec(&b.view(), &x)).collect();
        let ring = shuffled(b_ring, derive(seed, 301))
            .into_iter()
            .enumerate()
            .map(|(pos, ib)| (pos % a_ring, ib))
            .collect();
        let stamp = json::obj([
            (
                "a_checksum",
                json::str(hex(combine(a.iter().map(checksum)))),
            ),
            (
                "b_checksum",
                json::str(hex(combine(b.iter().map(checksum)))),
            ),
            ("ring", json::count(b_ring as u64)),
        ]);
        let mut calls = Calls {
            workload: w,
            parallelism,
            cfg: GemmConfig::default(),
            a,
            b,
            bx,
            x,
            ring,
            verify_every,
            c: Matrix::zeros(m, n),
            next_op: 0,
        };
        let setup_s = (0..reps)
            .map(|rep| calls.cold_setup(rep + 1 == reps))
            .collect();
        (Box::new(calls), setup_s, stamp)
    }

    /// One library-side set-up from cold, timed: build the config and
    /// run one pass over the ring, so packing arenas are grown, pool
    /// workers are up and every input page has been touched. Cold means
    /// a fresh thread (fresh thread-local arena) and, for the pooled
    /// workload, a fresh pool shard; only the last repetition runs on
    /// this thread and the global pool, where the timed regions follow.
    fn cold_setup(&mut self, keep: bool) -> f64 {
        let threads_before = crate::host::thread_count();
        let t0 = Instant::now();
        if keep {
            self.configure_and_warm();
        } else {
            std::thread::scope(|scope| {
                let handle = scope.spawn(|| match self.parallelism {
                    Parallelism::Pool(_) => {
                        let shard = WorkerPool::new_shard("ladder-setup");
                        pool::with_pool(&shard, || self.configure_and_warm());
                    }
                    _ => self.configure_and_warm(),
                });
                handle.join().expect("set-up thread panicked");
            });
        }
        let elapsed = t0.elapsed().as_secs_f64();
        crate::host::wait_for_threads(threads_before);
        elapsed
    }

    fn configure_and_warm(&mut self) {
        // `default()` plus an explicit runtime, never `auto()`: no tune
        // DB and no environment variable is read.
        self.cfg = GemmConfig::default().with_parallelism(self.parallelism);
        for pos in 0..self.ring.len() {
            self.call(pos).expect("warm-up operation failed");
        }
    }

    fn call(&mut self, pos: usize) -> Result<(), dgemm_core::GemmError> {
        let (ia, ib) = self.ring[pos % self.ring.len()];
        dgemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &self.a[ia].view(),
            &self.b[ib].view(),
            0.0,
            &mut self.c.view_mut(),
            &self.cfg,
        )
    }

    fn verify(&self, pos: usize) -> Result<(), f64> {
        let (ia, ib) = self.ring[pos % self.ring.len()];
        freivalds(&self.a[ia].view(), &self.bx[ib], &self.c.view(), &self.x)
    }
}

impl Prepared for Calls {
    fn region(&mut self, seconds: f64, mut spans: Option<&mut SpanLog>) -> Sample {
        let span_name = self.workload.name();
        let mut region = Region::begin();
        while region.elapsed_s() < seconds {
            let op = self.next_op;
            self.next_op += 1;
            let t0 = Instant::now();
            let span = spans
                .as_deref_mut()
                .map(|l| l.open(span_name, None, op as u32));
            let result = self.call(op);
            if let (Some(log), Some(id)) = (spans.as_deref_mut(), span) {
                log.close(id);
            }
            region.op_done(t0);
            match result {
                Err(e) => region.sample.fail(format!("op {op}: {e}")),
                Ok(()) if op.is_multiple_of(self.verify_every) => {
                    if let Err(err) = self.verify(op) {
                        region
                            .sample
                            .fail(format!("op {op}: Freivalds error {err:e}"));
                    }
                }
                Ok(()) => {}
            }
        }
        region.end()
    }

    fn final_checks(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.call(0).is_err() {
            return vec!["op 0 failed when recomputed".into()];
        }
        let (ia, ib) = self.ring[0];
        let Shape { m, n, k } = self.workload.shape();
        match self.workload {
            // One full comparison against the naive reference.
            Workload::SkinnyFresh => {
                let mut expected = Matrix::zeros(m, n);
                naive_gemm(
                    Transpose::No,
                    Transpose::No,
                    1.0,
                    &self.a[ia].view(),
                    &self.b[ib].view(),
                    0.0,
                    &mut expected.view_mut(),
                );
                let diff = self.c.max_abs_diff(&expected);
                if diff.is_nan() || diff > gemm_tolerance(k, 1.0) {
                    failures.push(format!("op 0 differs from the reference by {diff:e}"));
                }
            }
            // The pool must not change a bit of the serial result.
            Workload::SquarePool => {
                let pooled = self.c.clone();
                self.cfg = self.cfg.with_parallelism(Parallelism::Serial);
                let serial = self.call(0);
                self.cfg = self.cfg.with_parallelism(self.parallelism);
                if serial.is_err() || self.c.max_abs_diff(&pooled) != 0.0 {
                    failures.push("pooled op 0 is not bit-identical to serial op 0".into());
                }
            }
            _ => {}
        }
        failures
    }

    fn more_setups(&mut self, reps: usize) -> Vec<f64> {
        (0..reps).map(|_| self.cold_setup(false)).collect()
    }
}

// ---------------------------------------------------------------------
// The service workload.
// ---------------------------------------------------------------------

pub struct Service {
    pub cfg: ServiceConfig,
    svc: Option<GemmService>,
    pub weights: Vec<Arc<Matrix>>,
    /// `W·x` per weight, for Freivalds.
    wx: Vec<Vec<f64>>,
    acts: Vec<Arc<Matrix>>,
    /// Seeded request mix: which (tenant, weight) pair request `i` hits.
    mix: Vec<u8>,
    x: Vec<f64>,
    next_op: usize,
    store_dir: PathBuf,
    /// Live threads before the first service started.
    threads_before: usize,
}

type InFlight = (Instant, usize, Option<u32>, Result<Ticket, ServiceError>);

impl Service {
    /// Generate the inputs and save the weight store; no service runs
    /// until [`Service::cold_setup`].
    pub fn new(seed: u64, pool_degree: usize) -> (Service, Value) {
        let Shape { m, n, k } = SERVICE_SHAPE;
        let gemm = GemmConfig::default().with_parallelism(Parallelism::Pool(pool_degree));
        let weights: Vec<Arc<Matrix>> = (0..SERVICE_WEIGHTS)
            .map(|i| Arc::new(Matrix::random(k, n, derive(seed, 400 + i as u64))))
            .collect();
        let acts: Vec<Arc<Matrix>> = (0..SERVICE_ACT_RING)
            .map(|i| Arc::new(Matrix::random(m, k, derive(seed, 500 + i as u64))))
            .collect();
        let x = check_vector(n, derive(seed, 600));
        let wx = weights.iter().map(|w| mat_vec(&w.view(), &x)).collect();
        let mut rng = SplitMix64::new(derive(seed, 601));
        let mix: Vec<u8> = (0..SERVICE_MIX)
            .map(|_| rng.next_below(SERVICE_WEIGHTS) as u8)
            .collect();

        // The weight store is an input: four blobs saved before any
        // set-up is timed. One directory per process, removed on drop.
        let store_dir = PathBuf::from(OUT_DIR).join(format!("store-{}", std::process::id()));
        std::fs::create_dir_all(&store_dir).expect("create weight-store directory");
        for (i, w) in weights.iter().enumerate() {
            let packed = PrepackedB::from_matrix(&gemm, &w.view()).expect("pre-pack weight");
            store::save(&store_dir.join(format!("w{i}.dgemmpb")), &packed).expect("save blob");
        }
        let stamp = json::obj([
            (
                "weights_checksum",
                json::str(hex(combine(weights.iter().map(|w| checksum(w))))),
            ),
            (
                "acts_checksum",
                json::str(hex(combine(acts.iter().map(|a| checksum(a))))),
            ),
            (
                "mix_checksum",
                json::str(hex(combine(mix.iter().map(|&p| u64::from(p))))),
            ),
            ("outstanding", json::count(SERVICE_OUTSTANDING as u64)),
        ]);
        let service = Service {
            cfg: ServiceConfig {
                weight_store: Some(store_dir.clone()),
                gemm,
                ..ServiceConfig::default()
            },
            svc: None,
            weights,
            wx,
            acts,
            mix,
            x,
            next_op: 0,
            store_dir,
            threads_before: crate::host::thread_count(),
        };
        (service, stamp)
    }

    /// Warm boot, timed: start the service (loads the store onto the
    /// shelf), send one request per (tenant, weight) pair so each blob
    /// is attached, then one closed-loop round. Replaces the previous
    /// instance, which shuts down first (outside the timed span).
    pub fn cold_setup(&mut self) -> f64 {
        self.svc = None;
        crate::host::wait_for_threads(self.threads_before);
        let t0 = Instant::now();
        self.svc = Some(GemmService::new(self.cfg.clone()));
        for pair in 0..SERVICE_WEIGHTS {
            let ticket = self.submit(pair, pair).expect("warm-up request shed");
            ticket.wait().expect("warm-up request failed");
        }
        let mut warm = Region::begin();
        self.closed_loop(&mut warm, None, |issued, _| {
            issued < 2 * SERVICE_OUTSTANDING
        });
        let warm = warm.end();
        assert_eq!(warm.failed, 0, "warm-up round failed: {:?}", warm.failures);
        t0.elapsed().as_secs_f64()
    }

    fn submit(&self, pair: usize, act: usize) -> Result<Ticket, ServiceError> {
        // Two tenants, two weights each.
        let tenant = if pair < SERVICE_WEIGHTS / 2 {
            "t0"
        } else {
            "t1"
        };
        self.svc.as_ref().expect("service is up").submit(
            tenant,
            1.0,
            Arc::clone(&self.acts[act % self.acts.len()]),
            Transpose::No,
            Arc::clone(&self.weights[pair]),
        )
    }

    /// The closed loop: one generator thread keeps
    /// [`SERVICE_OUTSTANDING`] tickets in flight, waits for the oldest,
    /// and replaces it while `more(issued, elapsed_s)` holds; then it
    /// drains. A request's time runs from `submit` to `wait` returning.
    fn closed_loop(
        &mut self,
        region: &mut Region,
        mut spans: Option<&mut SpanLog>,
        more: impl Fn(usize, f64) -> bool,
    ) {
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(SERVICE_OUTSTANDING);
        let mut issued = 0usize;
        loop {
            while inflight.len() < SERVICE_OUTSTANDING && more(issued, region.elapsed_s()) {
                let op = self.next_op;
                self.next_op += 1;
                issued += 1;
                let t0 = Instant::now();
                let span = spans
                    .as_deref_mut()
                    .map(|l| l.open("service_reuse", None, op as u32));
                let pair = usize::from(self.mix[op % self.mix.len()]);
                let ticket = match (spans.as_deref_mut(), span) {
                    (Some(log), Some(id)) => {
                        log.within("submit", id, op as u32, || self.submit(pair, op))
                    }
                    _ => self.submit(pair, op),
                };
                inflight.push_back((t0, op, span, ticket));
            }
            let Some((t0, op, span, ticket)) = inflight.pop_front() else {
                break;
            };
            let result = ticket.and_then(Ticket::wait);
            if let (Some(log), Some(id)) = (spans.as_deref_mut(), span) {
                log.close(id);
            }
            region.op_done(t0);
            let s = &mut region.sample;
            match result {
                // Shed, rejected and deadline-missed requests all count.
                Err(e) => s.fail(format!("request {op}: {e}")),
                Ok(c) if op.is_multiple_of(VERIFY_EVERY_SMALL) => {
                    let pair = usize::from(self.mix[op % self.mix.len()]);
                    let a = &self.acts[op % self.acts.len()];
                    if let Err(err) = freivalds(&a.view(), &self.wx[pair], &c.view(), &self.x) {
                        s.fail(format!("request {op}: Freivalds error {err:e}"));
                    }
                }
                Ok(_) => {}
            }
        }
    }

    /// Status of the live service (empty before the first set-up).
    pub fn status_json(&self) -> String {
        self.svc
            .as_ref()
            .map_or_else(String::new, GemmService::status_json)
    }
}

impl Prepared for Service {
    fn region(&mut self, seconds: f64, spans: Option<&mut SpanLog>) -> Sample {
        let mut region = Region::begin();
        self.closed_loop(&mut region, spans, |_, elapsed| elapsed < seconds);
        region.end()
    }

    fn final_checks(&mut self) -> Vec<String> {
        // A shed or retried request is not an error the caller sees, but
        // on this workload neither may happen.
        let status = self.status_json();
        let counters = json::parse(&status).ok();
        let read = |name: &str| {
            counters
                .as_ref()
                .and_then(|v| v.get("counters"))
                .and_then(|c| c.get(name))
                .and_then(Value::as_f64)
        };
        let mut failures = Vec::new();
        for name in ["shed_overload", "shed_quota", "rejected", "deadline_misses"] {
            match read(name) {
                Some(0.0) => {}
                other => failures.push(format!("service counter {name} is {other:?}, not 0")),
            }
        }
        failures
    }

    fn more_setups(&mut self, reps: usize) -> Vec<f64> {
        (0..reps).map(|_| self.cold_setup()).collect()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.svc = None;
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

pub fn hex(x: u64) -> String {
    format!("{x:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed ⇒ same inputs and the same exact per-operation
    /// counters; another seed ⇒ other inputs, same counters.
    #[test]
    fn same_seed_gives_same_inputs_and_counters() {
        let _lib = crate::TEST_LIBRARY_LOCK.lock().unwrap();
        let run = |seed: u64| {
            let (mut p, setup, stamp) = prepare(Workload::SkinnyFresh, seed, 1);
            assert_eq!(setup.len(), 1);
            let s = p.region(0.05, None);
            assert_eq!(s.failed, 0, "{:?}", s.failures);
            assert!(p.final_checks().is_empty());
            let per_op = (
                s.counters.flops / s.attempted,
                s.counters.packed_a_bytes / s.attempted,
                s.counters.packed_b_bytes / s.attempted,
            );
            assert_eq!(s.counters.flops % s.attempted, 0);
            (stamp.render(), per_op)
        };
        let (stamp_a, counts_a) = run(11);
        let (stamp_b, counts_b) = run(11);
        let (stamp_c, counts_c) = run(12);
        assert_eq!(stamp_a, stamp_b);
        assert_ne!(stamp_a, stamp_c);
        assert_eq!(counts_a, counts_b);
        assert_eq!(counts_a, counts_c);
        assert_eq!(counts_a.0 as f64, SKINNY_SHAPE.flops());
        // B is packed on every call: one kc x nc panel, padded to nr.
        let nr = GemmConfig::default().kernel.nr();
        let padded_n = SKINNY_SHAPE.n.div_ceil(nr) * nr;
        assert_eq!(counts_a.2 as usize, SKINNY_SHAPE.k * padded_n * 8);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
