//! Steady-state acceptance for the pooled runtime, in its own test
//! binary so the process-wide runtime counters are deterministic: after
//! a warm-up call, repeated GEMMs must spawn **zero** new worker threads
//! and allocate **zero** new packing buffers — thread creation and
//! arena growth are one-time costs.

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

/// Fresh packing-buffer allocations on this caller thread so far (the
/// pooled driver packs on the caller; workers only consume owned slots).
fn fresh() -> u64 {
    f64::with_arena(|arena| arena.fresh_buffers())
}

#[test]
fn no_spawns_and_no_allocations_after_warmup() {
    let (m, n, k) = (130, 70, 60);

    // -- warm-up: first pooled call may spawn workers and grow the arena
    let want = run(Parallelism::Serial, m, n, k);
    let first = run(Parallelism::Pool(4), m, n, k);
    assert_eq!(first.max_abs_diff(&want), 0.0);

    let workers0 = WorkerPool::global().workers();
    let rt0 = telemetry::snapshot().runtime;
    let fresh0 = fresh();
    assert!(fresh0 > 0, "warm-up must have populated the arena");

    // -- steady state: same shape, then smaller shapes (which need no
    // more slots than the warm-up), across both runtimes
    for _ in 0..6 {
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
        fresh(),
        fresh0,
        "steady-state GEMMs must not allocate packing buffers"
    );
    assert!(
        rt.tasks > rt0.tasks,
        "pooled work must flow through the shared queue"
    );
    assert!(rt.epochs_served() > 0, "layer-3 epochs must be counted");
}
