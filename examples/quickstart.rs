//! Quickstart: multiply two matrices with the paper's 8×6 DGEMM, check
//! the result against the naive oracle, and time it on this host.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use armv8_dgemm::prelude::*;
use dgemm_core::reference::naive_gemm;
use dgemm_core::telemetry::{self, GemmReport};
use dgemm_core::util::{gemm_flops, gemm_tolerance};
use std::time::Instant;

fn main() {
    let (m, n, k) = (768usize, 768usize, 768usize);
    println!("C := alpha * A * B + beta * C  with A {m}x{k}, B {k}x{n}");

    let a = Matrix::random(m, k, 1);
    let b = Matrix::random(k, n, 2);
    let c0 = Matrix::random(m, n, 3);
    let (alpha, beta) = (1.25, -0.5);

    // the paper's 8x6 kernel with kc x nc = 512 x 1920 solved from the
    // ARMv8 cache geometry, and mc from this host's L2
    let cfg = GemmConfig::default();
    println!(
        "kernel {}, blocking {}",
        cfg.kernel.label(),
        cfg.blocks.label()
    );

    let mut c = c0.clone();
    telemetry::reset();
    let t0 = Instant::now();
    dgemm(
        Transpose::No,
        Transpose::No,
        alpha,
        &a.view(),
        &b.view(),
        beta,
        &mut c.view_mut(),
        &cfg,
    )
    .unwrap();
    let elapsed = t0.elapsed();
    let dt = elapsed.as_secs_f64();
    println!(
        "blocked DGEMM: {:.1} ms = {:.2} Gflops on this host",
        dt * 1e3,
        gemm_flops(m, n, k) / dt / 1e9
    );
    // Where the cycles went, per the counters, next to the model's view.
    let snap = telemetry::snapshot();
    let report = GemmReport::from_run((m, n, k), 1, 1, elapsed, &cfg.blocks, &snap);
    println!("{}", report.summary_line());
    telemetry::emit(&report, &snap);

    // verify against the naive triple loop
    let mut want = c0.clone();
    let t0 = Instant::now();
    naive_gemm(
        Transpose::No,
        Transpose::No,
        alpha,
        &a.view(),
        &b.view(),
        beta,
        &mut want.view_mut(),
    );
    let dt_naive = t0.elapsed().as_secs_f64();
    println!(
        "naive oracle:  {:.1} ms = {:.2} Gflops",
        dt_naive * 1e3,
        gemm_flops(m, n, k) / dt_naive / 1e9
    );

    let err = c.max_abs_diff(&want);
    let tol = gemm_tolerance(k, 1.0);
    println!("max |diff| = {err:.3e} (tolerance {tol:.3e})");
    assert!(err < tol, "results must agree");
    println!("results agree; speedup over naive: {:.1}x", dt_naive / dt);

    // the same engine in single precision. (The analytic optimum for
    // the ARMv8 *target* is the 12x8 kernel — SgemmConfig::default();
    // this x86 build host has half the vector registers, where the same
    // analysis favours smaller blocks, so the demo uses 8x8.)
    let a32: Matrix<f32> = Matrix::random(m, k, 4);
    let b32: Matrix<f32> = Matrix::random(k, n, 5);
    let mut c32: Matrix<f32> = Matrix::zeros(m, n);
    let scfg = SgemmConfig::for_kernel(SgemmKernelKind::Sk8x8, 1);
    let t0 = Instant::now();
    sgemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a32.view(),
        &b32.view(),
        0.0,
        &mut c32.view_mut(),
        &scfg,
    )
    .unwrap();
    let dt32 = t0.elapsed().as_secs_f64();
    println!(
        "SGEMM ({} / {}): {:.1} ms = {:.2} Gflops ({:.2}x the DGEMM rate)",
        scfg.kernel.label(),
        scfg.blocks.label(),
        dt32 * 1e3,
        gemm_flops(m, n, k) / dt32 / 1e9,
        dt / dt32
    );
}
