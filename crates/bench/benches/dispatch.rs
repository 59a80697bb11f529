//! Shape-adaptive dispatch benchmark (DESIGN.md §13): the shapes the
//! dispatcher exists for, each run under forced-serial, forced-pool
//! (which engages the 2-D `(mc × nc)` task grid) and `auto` dispatch on
//! the *same* pool-configured `GemmConfig`.
//!
//! The three cases mirror the acceptance criteria:
//!
//! - `skinny_cached` — the PR-4 weight-reuse stream (16 × 8×256×256,
//!   pack cache on) where the 1-D pooled schedule used to lose to
//!   serial; `auto` must match the winner (serial) within noise.
//! - `small_stream` — 32 back-to-back 64³ GEMMs, the pool-overhead
//!   shape with the same property.
//! - `square` — 256³, a shape the pool wins, but on two cores by less
//!   than the dispatcher's own hysteresis, so `auto` may rightly stay
//!   serial; it must not lose by more than that hysteresis.
//!
//! CI parses `results/BENCH_dispatch.json` (written by the criterion
//! harness when `BENCH_JSON_DIR` is set) and fails if `auto` is slower
//! than the best forced runtime on any case by more than
//! `dispatch::POOL_MARGIN` — a pool win inside that margin is one the
//! dispatcher declines by design. The threshold travels in the file as
//! its last line (`"bench":"gate"`), so the workflow holds no copy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dgemm_core::dispatch::{DispatchMode, POOL_MARGIN};
use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::pool::{Parallelism, PoolScalar};
use dgemm_core::util::gemm_flops;
use dgemm_core::Transpose;
use std::hint::black_box;
use std::io::Write as _;

/// Activation-stream length for the skinny cached case.
const SKINNY_STREAM: usize = 16;
/// Back-to-back repetitions for the small-stream case.
const SMALL_REPS: usize = 32;

const MODES: [(&str, DispatchMode); 3] = [
    ("serial", DispatchMode::Serial),
    ("pool", DispatchMode::Pool),
    ("auto", DispatchMode::Auto),
];

fn one_gemm(a: &Matrix, b: &Matrix, cmat: &mut Matrix, cfg: &GemmConfig) {
    gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &b.view(),
        0.0,
        &mut cmat.view_mut(),
        cfg,
    );
}

fn bench_dispatch(c: &mut Criterion) {
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get().max(2));
    let mut group = c.benchmark_group("dispatch");

    // Case 1: skinny cached stream — 16 activations against one cached
    // weight, the shape where the M-band pool lost to serial.
    {
        let (m, n, k) = (8usize, 256usize, 256usize);
        let b = Matrix::random(k, n, 2);
        let a_stream: Vec<Matrix> = (0..SKINNY_STREAM)
            .map(|i| Matrix::random(m, k, 10 + i as u64))
            .collect();
        group.throughput(Throughput::Elements(
            (SKINNY_STREAM as f64 * gemm_flops(m, n, k)) as u64,
        ));
        for (label, mode) in MODES {
            let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, threads)
                .with_blocks(64, 24, 48)
                .with_parallelism(Parallelism::Pool(threads))
                .with_pack_cache(true)
                .with_dispatch(mode);
            group.bench_function(
                BenchmarkId::new(label, format!("skinny_cached/{SKINNY_STREAM}x{m}x{n}x{k}")),
                |bench| {
                    let mut cmat = Matrix::zeros(m, n);
                    bench.iter(|| {
                        for a in &a_stream {
                            one_gemm(a, &b, &mut cmat, &cfg);
                        }
                        black_box(cmat.get(0, 0))
                    });
                },
            );
        }
        f64::pack_cache().invalidate(&b.view());
    }

    // Case 2: small stream — 32 × 64³, fixed per-call runtime cost
    // dominates, serial should win and auto must follow it.
    {
        let n = 64usize;
        let a = Matrix::random(n, n, 3);
        let b = Matrix::random(n, n, 4);
        group.throughput(Throughput::Elements(
            (SMALL_REPS as f64 * gemm_flops(n, n, n)) as u64,
        ));
        for (label, mode) in MODES {
            let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, threads)
                .with_blocks(64, 24, 48)
                .with_parallelism(Parallelism::Pool(threads))
                .with_dispatch(mode);
            group.bench_function(
                BenchmarkId::new(label, format!("small_stream/{SMALL_REPS}x{n}")),
                |bench| {
                    let mut cmat = Matrix::zeros(n, n);
                    bench.iter(|| {
                        for _ in 0..SMALL_REPS {
                            one_gemm(&a, &b, &mut cmat, &cfg);
                        }
                        black_box(cmat.get(0, 0))
                    });
                },
            );
        }
    }

    // Case 3: square 256³ — the pool's home turf; auto must keep
    // picking it (the no-regression guard).
    {
        let n = 256usize;
        let a = Matrix::random(n, n, 5);
        let b = Matrix::random(n, n, 6);
        group.throughput(Throughput::Elements(gemm_flops(n, n, n) as u64));
        for (label, mode) in MODES {
            let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, threads)
                .with_parallelism(Parallelism::Pool(threads))
                .with_dispatch(mode);
            group.bench_function(BenchmarkId::new(label, format!("square/{n}")), |bench| {
                let mut cmat = Matrix::zeros(n, n);
                bench.iter(|| {
                    one_gemm(&a, &b, &mut cmat, &cfg);
                    black_box(cmat.get(0, 0))
                });
            });
        }
    }

    group.finish();

    // `finish` wrote the timings; the gate they are held to goes last.
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_dispatch.json");
    let line =
        format!("{{\"group\":\"dispatch\",\"bench\":\"gate\",\"pool_margin\":{POOL_MARGIN}}}\n");
    let appended = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("gate export failed for {path}: {e}");
    }
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
