//! Steady-state acceptance for the pooled runtime, in its own test
//! binary so the process-wide runtime counters are deterministic: once
//! warm, repeated GEMMs must spawn **zero** new worker threads and
//! allocate **zero** new packing buffers on **any** thread — thread
//! creation and arena growth are one-time costs, two buffers (a block
//! slot, a B panel) per thread that ever runs a cell.

use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::pool::{Parallelism, PoolScalar, WorkerPool};
use dgemm_core::telemetry;
use dgemm_core::Transpose;

fn run(par: Parallelism, m: usize, n: usize, k: usize) -> Matrix {
    let a = Matrix::random(m, k, 3);
    let b = Matrix::random(k, n, 4);
    let mut c = Matrix::zeros(m, n);
    let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1)
        .with_blocks(24, 16, 18)
        .with_parallelism(par);
    gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &b.view(),
        0.0,
        &mut c.view_mut(),
        &cfg,
    );
    c
}

/// Fresh packing-buffer allocations on this caller thread so far.
fn fresh() -> u64 {
    f64::with_arena(|arena| arena.fresh_buffers())
}

/// Fresh packing-buffer allocations summed over every thread's lane —
/// every thread packs for the cells it runs. Zero without the
/// `telemetry` feature, which compiles the per-lane counters out.
fn fresh_everywhere() -> u64 {
    telemetry::snapshot().total_arena_fresh()
}

#[test]
fn no_spawns_and_no_allocations_after_warmup() {
    let (m, n, k) = (130, 70, 60);

    // -- warm-up: first pooled call may spawn workers and grow the arena
    let want = run(Parallelism::Serial, m, n, k);
    let first = run(Parallelism::Pool(4), m, n, k);
    assert_eq!(first.max_abs_diff(&want), 0.0);

    let workers0 = WorkerPool::global().workers();
    assert_eq!(workers0, 3, "Pool(4) keeps three workers beside the caller");
    // A thread is warm once it has run one cell, and which thread runs
    // which cell is the scheduler's call: keep calling until each of the
    // four has taken its two buffers. No thread ever holds more.
    let warm = 2 * (workers0 as u64 + 1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while telemetry::enabled() && fresh_everywhere() < warm {
        assert!(
            std::time::Instant::now() < deadline,
            "a worker never ran a cell"
        );
        run(Parallelism::Pool(4), m, n, k);
    }
    let rt0 = telemetry::snapshot().runtime;
    let (fresh0, everywhere0) = (fresh(), fresh_everywhere());
    assert_eq!(fresh0, 2, "the caller's arena holds a slot and a panel");

    // -- steady state: same shape, then smaller shapes, across both
    // runtimes, fifty warm rounds
    for _ in 0..50 {
        assert_eq!(run(Parallelism::Pool(4), m, n, k).max_abs_diff(&want), 0.0);
        run(Parallelism::Serial, m / 2, n / 2, k);
        run(Parallelism::Pool(3), m / 2 + 1, n / 3, k / 2);
    }

    let rt = telemetry::snapshot().runtime;
    assert_eq!(
        WorkerPool::global().workers(),
        workers0,
        "steady-state GEMMs must not spawn threads"
    );
    assert_eq!(
        (fresh(), fresh_everywhere()),
        (fresh0, everywhere0),
        "steady-state GEMMs must not allocate packing buffers on any thread"
    );
    assert!(
        rt.tasks > rt0.tasks,
        "pooled work must flow through the shared queue"
    );
    assert!(rt.epochs_served() > 0, "layer-3 epochs must be counted");
}
