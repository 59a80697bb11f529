//! Parallel scaling, two ways:
//!
//! 1. the **native** library run with 1..8 threads on this host (on a
//!    single-core machine the OS serializes them — the API and the
//!    layer-3 partitioning still get exercised end to end);
//! 2. the **simulated** ARMv8 eight-core machine (Figure 14), where the
//!    paper's scalability claim is actually evaluated.
//!
//! ```sh
//! cargo run --release --example parallel_scaling
//! ```

use armv8_dgemm::prelude::*;
use dgemm_core::telemetry::{self, GemmReport};
use dgemm_core::util::gemm_flops;
use simgemm::estimate::{Estimator, SimConfig};
use simgemm::kernelsim::KernelVariant;
use std::time::Instant;

fn main() {
    let n = 512usize;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);

    // honor DGEMM_NUM_THREADS like a BLAS would
    match GemmConfig::auto() {
        Ok(cfg) => println!(
            "auto config: {} thread(s), {:?}, blocks {}",
            cfg.threads(),
            cfg.parallelism,
            cfg.blocks.label()
        ),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    println!();

    println!("native layer-3 threading on this host (n = {n}):");
    let mut serial = None;
    for threads in [1usize, 2, 4, 8] {
        let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, threads);
        let mut c = Matrix::zeros(n, n);
        telemetry::reset();
        let t0 = Instant::now();
        dgemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &cfg,
        )
        .unwrap();
        let elapsed = t0.elapsed();
        let dt = elapsed.as_secs_f64();
        let gf = gemm_flops(n, n, n) / dt / 1e9;
        let speedup = serial.get_or_insert(dt).max(1e-12) / dt;
        println!(
            "  {threads} thread(s): {:7.1} ms  {:6.2} Gflops  speedup {speedup:4.2}x  (blocks {})",
            dt * 1e3,
            gf,
            cfg.blocks.label()
        );
        let snap = telemetry::snapshot();
        let report = GemmReport::from_run((n, n, n), 1, threads, elapsed, &cfg.blocks, &snap);
        println!("    {}", report.summary_line());
        telemetry::emit(&report, &snap);
    }
    println!(
        "  (host parallel speedup is bounded by this machine's core count: {})",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );

    println!();
    println!("simulated ARMv8 eight-core machine (paper Figure 14, n = 2560):");
    let mut est = Estimator::new();
    let mut base = None;
    for threads in [1usize, 2, 4, 8] {
        let cfg = SimConfig::paper(KernelVariant::OpenBlas8x6, threads);
        let p = est.estimate(&cfg, 2560);
        let speedup = p.gflops / *base.get_or_insert(p.gflops);
        println!(
            "  {threads} thread(s): {:6.2} Gflops  efficiency {:5.1}%  speedup {speedup:4.2}x  (blocks {})",
            p.gflops,
            100.0 * p.efficiency,
            cfg.blocks.label()
        );
    }
    println!("  paper: 4.19 Gflops serial, 32.7 Gflops with eight threads.");
}
