//! Helpers shared by the integration suites.

use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::Transpose;
use std::sync::OnceLock;
use std::time::Instant;

/// Edge `n` of the square multiplication the serving tests park a
/// scheduler on. They sleep 30 ms for the scheduler to dequeue this
/// filler and then need it to *still be computing* while they enqueue
/// behind it, so "large" is relative to the kernel under test: 600³ ran
/// 70 ms on the portable release kernel and runs 13 ms on the AVX-512
/// one. Sized once per test binary from a timed probe under the default
/// (serial, 8×6) configuration the services under test run, so that the
/// filler computes for about 300 ms on whatever build and host runs the
/// suite.
pub fn filler_edge() -> usize {
    const PROBE: usize = 160;
    const TARGET_SECS: f64 = 0.3;
    static EDGE: OnceLock<usize> = OnceLock::new();
    *EDGE.get_or_init(|| {
        let cfg = GemmConfig::default();
        let a = Matrix::random(PROBE, PROBE, 1);
        let b = Matrix::random(PROBE, PROBE, 2);
        let mut c = Matrix::zeros(PROBE, PROBE);
        // Fastest of four: the first call warms the arena, and sibling
        // tests on other threads only ever slow a probe down.
        let secs = (0..4)
            .map(|_| {
                let t0 = Instant::now();
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
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let edge = PROBE as f64 * (TARGET_SECS / secs.max(1e-9)).cbrt();
        (edge as usize).clamp(PROBE, 2400)
    })
}
