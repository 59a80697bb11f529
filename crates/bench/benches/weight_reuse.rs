//! Weight-reuse benchmark: a stream of N activations multiplied against
//! one weight matrix, with the pre-packed-B cache off vs on.
//!
//! The paper's γ = F/W analysis amortizes the packed-B traffic over one
//! multiplication; with a reused weight the cache amortizes it over the
//! whole stream instead, so the packed-B bytes moved should drop to
//! ~1/N of the uncached stream (the one insert-miss re-packs, every
//! other call hits). The skinny-activation shape (`m = 8`) is where the
//! saved packing is a large fraction of the wall clock; the medium
//! shape shows the effect fading as compute dominates.
//!
//! Besides the criterion timing lines, one extra JSON line with the
//! exact byte accounting (`bench: "packed_b_accounting/..."`) is
//! appended to `BENCH_weight_reuse.json` — that line is the 1/N
//! acceptance evidence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::pool::{Parallelism, PoolScalar};
use dgemm_core::telemetry;
use dgemm_core::util::gemm_flops;
use dgemm_core::Transpose;
use std::hint::black_box;
use std::io::Write as _;

/// Stream length: the N in the ~1/N packed-byte claim.
const STREAM: usize = 16;

fn stream_cfg(par: Parallelism, cached: bool) -> GemmConfig {
    GemmConfig::for_kernel(MicroKernelKind::Mk8x6, par.degree())
        .with_blocks(64, 24, 48)
        .with_parallelism(par)
        .with_pack_cache(cached)
}

/// Run the whole activation stream once against the shared weight.
fn run_stream(a_stream: &[Matrix], b: &Matrix, cmat: &mut Matrix, cfg: &GemmConfig) {
    for a in a_stream {
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
    black_box(cmat.get(0, 0));
}

fn bench_weight_reuse(c: &mut Criterion) {
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get().max(2));
    let shapes = [
        ("skinny", 8usize, 256usize, 256usize),
        ("medium", 96, 128, 96),
    ];

    let mut group = c.benchmark_group("weight_reuse");
    for (shape, m, n, k) in shapes {
        let b = Matrix::random(k, n, 2);
        let a_stream: Vec<Matrix> = (0..STREAM)
            .map(|i| Matrix::random(m, k, 10 + i as u64))
            .collect();
        group.throughput(Throughput::Elements(
            (STREAM as f64 * gemm_flops(m, n, k)) as u64,
        ));
        for (label, cached) in [("uncached", false), ("cached", true)] {
            for par in [Parallelism::Serial, Parallelism::Pool(threads)] {
                let rt = match par {
                    Parallelism::Serial => "serial",
                    _ => "pool",
                };
                let cfg = stream_cfg(par, cached);
                group.bench_function(
                    BenchmarkId::new(label, format!("{rt}/{shape}/{STREAM}x{m}x{n}x{k}")),
                    |bench| {
                        let mut cmat = Matrix::zeros(m, n);
                        bench.iter(|| run_stream(&a_stream, &b, &mut cmat, &cfg));
                    },
                );
            }
        }
        f64::pack_cache().invalidate(&b.view());
    }
    group.finish();

    // Exact byte accounting for one skinny stream, appended after the
    // criterion lines (group.finish() created the file).
    let (m, n, k) = (8usize, 256usize, 256usize);
    let b = Matrix::random(k, n, 2);
    let a_stream: Vec<Matrix> = (0..STREAM)
        .map(|i| Matrix::random(m, k, 10 + i as u64))
        .collect();
    let mut cmat = Matrix::zeros(m, n);

    telemetry::reset();
    run_stream(
        &a_stream,
        &b,
        &mut cmat,
        &stream_cfg(Parallelism::Serial, false),
    );
    // A single-block serial call reads B in place rather than packing it
    // (8 rows <= mc): what the cache saves such a stream is B traffic, so
    // count both ways a kernel can have come by its B.
    let uncached = telemetry::snapshot();
    let uncached_packed = uncached.total_packed_b_bytes();
    let uncached_in_place = uncached.total_b_in_place_bytes();
    let uncached_bytes = uncached_packed + uncached_in_place;

    telemetry::reset();
    run_stream(
        &a_stream,
        &b,
        &mut cmat,
        &stream_cfg(Parallelism::Serial, true),
    );
    let snap = telemetry::snapshot();
    let cached_bytes = snap.total_packed_b_bytes();
    f64::pack_cache().invalidate(&b.view());

    let ratio = cached_bytes as f64 / uncached_bytes.max(1) as f64;
    let line = format!(
        "{{\"group\":\"weight_reuse\",\"bench\":\"packed_b_accounting/{STREAM}x{m}x{n}x{k}\",\
         \"calls\":{STREAM},\"uncached_packed_b_bytes\":{uncached_packed},\
         \"uncached_b_in_place_bytes\":{uncached_in_place},\
         \"cached_packed_b_bytes\":{cached_bytes},\"ratio\":{ratio:.6},\
         \"pack_cache\":{{\"hits\":{},\"misses\":{},\"bytes_saved\":{}}}}}\n",
        snap.cache.hits, snap.cache.misses, snap.cache.bytes_saved,
    );
    eprintln!(
        "B bytes: uncached {uncached_bytes} ({uncached_in_place} in place), cached {cached_bytes} packed \
         (ratio {ratio:.4}, ideal {:.4})",
        1.0 / STREAM as f64
    );
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_weight_reuse.json");
    match std::fs::OpenOptions::new().append(true).open(&path) {
        Ok(mut f) => {
            let _ = f.write_all(line.as_bytes());
        }
        Err(e) => eprintln!("accounting export failed for {path}: {e}"),
    }
}

criterion_group!(benches, bench_weight_reuse);
criterion_main!(benches);
