//! The traced run's per-layer probes. Every layer of the library is
//! measured from outside, through public functions only, with a fixed
//! number of operations per probe so that the counts repeat exactly.
//! Names are `<module>.<metric>`; the README says which end-to-end
//! metric each is expected to move.

use crate::host::{self, Peak};
use crate::inputs::derive;
use crate::json::{self, Value};
use crate::spans::SpanLog;
use crate::stats::{lower_quartile, median, percentile_is_supported, percentile_sorted};
use crate::workloads::{
    service_pool_degree, Prepared, Service, Shape, SERVICE_SHAPE, SKINNY_SHAPE, SQUARE,
};
use dgemm_core::batch::gemm_batch_shared_b;
use dgemm_core::dispatch::DispatchMode;
use dgemm_core::gebp::gebp;
use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::lu::{hpl_residual, lu_factor, lu_flops};
use dgemm_core::matrix::{Matrix, MatrixView, MatrixViewMut};
use dgemm_core::microkernel::{KernelSet, MicroKernelKind};
use dgemm_core::pack::{PackedA, PackedB};
use dgemm_core::pool::{self, Parallelism, PoolScalar, WorkerPool};
use dgemm_core::prepack::PrepackedB;
use dgemm_core::reference::naive_gemm;
use dgemm_core::service::{GemmService, ServiceConfig};
use dgemm_core::sgemm::{sgemm, SgemmConfig};
use dgemm_core::tile::TileMut;
use dgemm_core::{store, telemetry, Transpose};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `(name, unit, better)` of every per-layer metric, in print order.
/// `BENCHMARK.json` lists the same names; a self-test keeps them equal.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("host.peak_gflops", "GFLOP/s", "higher"),
    ("host.nproc", "count", "higher"),
    ("host.llc_mib", "MiB", "higher"),
    ("host.steal_share", "ratio", "lower"),
    ("host.involuntary_switches", "count", "lower"),
    ("microkernel.mk8x6_gflops", "GFLOP/s", "higher"),
    ("microkernel.mk8x4_gflops", "GFLOP/s", "higher"),
    ("microkernel.mk4x4_gflops", "GFLOP/s", "higher"),
    ("microkernel.mk5x5_gflops", "GFLOP/s", "higher"),
    ("microkernel.default_gflops", "GFLOP/s", "higher"),
    ("microkernel.default_pct_of_peak", "%", "higher"),
    ("microkernel.edge_gflops", "GFLOP/s", "higher"),
    ("microkernel.ops_per_byte_computed", "flop/B", "higher"),
    ("gebp.gflops", "GFLOP/s", "higher"),
    ("gebp.pct_of_microkernel", "%", "higher"),
    ("gebp.remainder_gflops", "GFLOP/s", "higher"),
    ("pack.a_gbs", "GB/s", "higher"),
    ("pack.b_gbs", "GB/s", "higher"),
    ("pack.a_trans_gbs", "GB/s", "higher"),
    ("pack.b_trans_gbs", "GB/s", "higher"),
    ("pack.share_skinny", "ratio", "lower"),
    ("gemm.square_gflops", "GFLOP/s", "higher"),
    ("gemm.pct_of_gebp", "%", "higher"),
    ("gemm.pack_a_share", "ratio", "lower"),
    ("gemm.pack_b_share", "ratio", "lower"),
    ("gemm.gebp_share", "ratio", "higher"),
    ("gemm.driver_share", "ratio", "lower"),
    ("gemm.flops", "count", "lower"),
    ("gemm.packed_bytes", "count", "lower"),
    ("pool.square_gflops", "GFLOP/s", "higher"),
    ("pool.scaling_eff", "ratio", "higher"),
    ("pool.small_call_overhead_us", "us", "lower"),
    ("pool.bit_identical", "count", "higher"),
    ("pool.tasks", "count", "lower"),
    ("pool.epochs", "count", "lower"),
    ("pool.timeouts", "count", "lower"),
    ("pool.respawns", "count", "lower"),
    ("dispatch.auto_vs_best_ratio", "ratio", "lower"),
    ("batch.shared_b_gflops", "GFLOP/s", "higher"),
    ("batch.vs_loop_ratio", "ratio", "higher"),
    ("prepack.build_gbs", "GB/s", "higher"),
    ("prepack.hit_call_us", "us", "lower"),
    ("prepack.miss_call_us", "us", "lower"),
    ("prepack.hit_ratio", "ratio", "higher"),
    ("prepack.bytes_saved", "count", "higher"),
    ("prepack.evictions", "count", "lower"),
    ("service.gflops", "GFLOP/s", "higher"),
    ("service.boot_cold_ms", "ms", "lower"),
    ("service.boot_warm_ms", "ms", "lower"),
    ("service.first_result_ms", "ms", "lower"),
    ("service.submit_us", "us", "lower"),
    ("service.overhead_ratio", "ratio", "lower"),
    ("service.coalesce_mean_batch", "count", "higher"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.shed", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("service.latency_p99_ms", "ms", "lower"),
    ("store.encode_mbs", "MB/s", "higher"),
    ("store.decode_mbs", "MB/s", "higher"),
    ("store.load_ms", "ms", "lower"),
    ("store.verify_mbs", "MB/s", "higher"),
    ("store.load_failures", "count", "lower"),
    ("lu.gflops", "GFLOP/s", "higher"),
    ("lu.hpl_residual", "ratio", "lower"),
    ("sgemm.square_gflops", "GFLOP/s", "higher"),
    ("reference.max_rel_err", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
];

/// Depth of the L1-resident micro-kernel slivers: 8x256 of A and 6x256
/// of B are 28 KiB together.
const SLIVER_KC: usize = 256;

/// What the probes produce: the metric values (the caller adds the
/// run-wide `host.*` noise and `trace.overhead_ratio`), the spans of
/// the hand-composed GEMM, and any correctness failure.
pub struct LayerReport {
    /// Instruction set the peak probe ran on.
    peak_isa: &'static str,
    values: Vec<(&'static str, f64)>,
    pub spans: SpanLog,
    pub failures: Vec<String>,
}

impl LayerReport {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        assert!(self.get(name).is_none(), "{name} set twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Every declared metric with its unit, in declaration order.
    /// Panics if a probe forgot one: the traced run must print them all.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
                (name, value, unit)
            })
            .collect()
    }
}

/// Seconds per call: lower quartile over `samples` samples of `calls`
/// calls (interference only ever lengthens a sample).
fn secs_per_call(samples: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    f(); // untimed first call: page faults, arena growth
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    lower_quartile(&per_call)
}

fn gflops(flops: f64, secs: f64) -> f64 {
    flops / secs / 1e9
}

fn call_gemm(a: &Matrix, b: &Matrix, c: &mut Matrix, cfg: &GemmConfig) {
    gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &b.view(),
        0.0,
        &mut c.view_mut(),
        cfg,
    );
}

/// GEMM written in the benchmark from the library's public layer
/// functions — the same jj/kk/ii loop nest as `gemm`'s serial path —
/// with one span per call into a layer, all children of one root span.
/// Must be bit-identical to `gemm`; the root's self time is what the
/// driver itself costs.
#[allow(clippy::too_many_arguments)] // the GEMM signature, plus where to log
pub fn composed_gemm(
    alpha: f64,
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    cfg: &GemmConfig,
    log: &mut SpanLog,
    op: u32,
) -> u32 {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!((b.rows(), c.rows(), c.cols()), (k, m, n), "shape mismatch");
    let (kc, mc, nc) = (cfg.blocks.kc, cfg.blocks.mc, cfg.blocks.nc);
    let kernel = cfg.kernel;
    let root = log.open("gemm", None, op);
    log.within("scale", root, op, || c.scale(beta));
    let mut pa = PackedA::new(kernel.mr());
    let mut pb = PackedB::new(kernel.nr());
    let mut jj = 0;
    while jj < n {
        let nc_eff = nc.min(n - jj);
        let mut kk = 0;
        while kk < k {
            let kc_eff = kc.min(k - kk);
            log.within("pack_b", root, op, || {
                pb.pack(b, Transpose::No, kk, jj, kc_eff, nc_eff);
            });
            let mut panel_view = c.sub_mut(0, jj, m, nc_eff);
            let ld = panel_view.ld();
            let mut panel = TileMut::from_slice(m, nc_eff, ld, panel_view.data_mut());
            let mut ii = 0;
            while ii < m {
                let mc_eff = mc.min(m - ii);
                log.within("pack_a", root, op, || {
                    pa.pack(a, Transpose::No, ii, kk, mc_eff, kc_eff);
                });
                let mut tile = panel.sub_tile(ii, 0, mc_eff, nc_eff);
                log.within("gebp", root, op, || {
                    gebp(kernel, alpha, &pa, &pb, &mut tile)
                });
                ii += mc_eff;
            }
            kk += kc_eff;
        }
        jj += nc_eff;
    }
    log.close(root);
    root
}

/// Run every probe. `seed` fixes the matrix contents.
pub fn probe_all(seed: u64) -> LayerReport {
    let nproc = host::nproc();
    let peak = host::probe_peak(5);
    let mut r = LayerReport {
        peak_isa: peak.isa,
        values: Vec::new(),
        spans: SpanLog::new(),
        failures: Vec::new(),
    };
    r.set("host.peak_gflops", peak.gflops);
    r.set("host.nproc", nproc as f64);
    r.set("host.llc_mib", host::llc_mib());

    microkernel(&mut r, &peak, seed);
    gebp_layer(&mut r, seed);
    pack_layer(&mut r, seed);
    gemm_layer(&mut r, seed);
    pool_layer(&mut r, seed, nproc);
    dispatch_layer(&mut r, seed, nproc);
    batch_layer(&mut r, seed, nproc);
    prepack_layer(&mut r, seed);
    service_layer(&mut r, seed, nproc);
    store_layer(&mut r, seed);
    consumers(&mut r, seed);
    r
}

/// GFLOPS of one register kernel on L1-resident slivers, counting the
/// flops the kernel executes (the full `mr x nr` accumulator, also when
/// the write-back is masked to `m_eff x n_eff`).
pub fn microkernel_gflops(kind: MicroKernelKind, m_eff: usize, n_eff: usize, seed: u64) -> f64 {
    let (mr, nr) = (kind.mr(), kind.nr());
    let a = Matrix::random(mr, SLIVER_KC, derive(seed, 700));
    let b = Matrix::random(nr, SLIVER_KC, derive(seed, 701));
    let mut c = vec![0.0f64; mr * nr];
    let secs = secs_per_call(5, 20_000, || {
        let mut tile = TileMut::from_slice(mr, nr, mr, &mut c);
        kind.run(
            SLIVER_KC,
            black_box(a.as_slice()),
            black_box(b.as_slice()),
            // Shrinks C's accumulated magnitude instead of growing it.
            1e-3,
            &mut tile,
            m_eff,
            n_eff,
        );
    });
    black_box(&c);
    gflops(2.0 * (mr * nr * SLIVER_KC) as f64, secs)
}

fn microkernel(r: &mut LayerReport, peak: &Peak, seed: u64) {
    let names = [
        "microkernel.mk8x6_gflops",
        "microkernel.mk8x4_gflops",
        "microkernel.mk4x4_gflops",
        "microkernel.mk5x5_gflops",
    ];
    let default = GemmConfig::default().kernel;
    for (kind, name) in MicroKernelKind::ALL.into_iter().zip(names) {
        debug_assert!(name.contains(&format!("{}x{}", kind.mr(), kind.nr())));
        let rate = microkernel_gflops(kind, kind.mr(), kind.nr(), seed);
        r.set(name, rate);
        if kind == default {
            r.set("microkernel.default_gflops", rate);
            r.set(
                "microkernel.default_pct_of_peak",
                100.0 * rate / peak.gflops,
            );
        }
    }
    r.set(
        "microkernel.edge_gflops",
        microkernel_gflops(default, default.mr() - 1, default.nr() - 1, seed),
    );
    // γ of equation (8) per byte: 2·mr·nr flops for each (mr + nr)
    // doubles streamed from the packed slivers. Computed, not measured.
    r.set("microkernel.ops_per_byte_computed", default.gamma() / 8.0);
}

/// GEBP rate on packed operands. `mc`, `kc`, `nc` are the block's
/// dimensions; flops counted are the useful `2·mc·nc·kc`.
fn gebp_gflops(kind: MicroKernelKind, mc: usize, kc: usize, nc: usize, seed: u64) -> f64 {
    let a = Matrix::random(mc, kc, derive(seed, 710));
    let b = Matrix::random(kc, nc, derive(seed, 711));
    let mut c = Matrix::zeros(mc, nc);
    let mut pa = PackedA::new(kind.mr());
    pa.pack(&a.view(), Transpose::No, 0, 0, mc, kc);
    let mut pb = PackedB::new(kind.nr());
    pb.pack(&b.view(), Transpose::No, 0, 0, kc, nc);
    let secs = secs_per_call(5, 24, || {
        let mut tile = TileMut::from_slice(mc, nc, mc, c.as_mut_slice());
        gebp(kind, 1e-3, black_box(&pa), black_box(&pb), &mut tile);
    });
    black_box(&c);
    gflops(2.0 * (mc * nc * kc) as f64, secs)
}

fn gebp_layer(r: &mut LayerReport, seed: u64) {
    let cfg = GemmConfig::default();
    let (mc, kc, nr) = (cfg.blocks.mc, cfg.blocks.kc, cfg.kernel.nr());
    // Default mc x kc block of A, and as wide a panel of B as keeps A,
    // B and the C tile inside half of L2 (1 MiB assumed when sysfs is
    // silent), so the probe sees GEBP without L3 traffic.
    let l2_bytes = host::caches()
        .iter()
        .find(|c| c.level == 2)
        .map_or(1 << 20, |c| c.size_kib as usize * 1024);
    let budget = (l2_bytes / 2).saturating_sub(mc * kc * 8);
    let nc = (budget / ((kc + mc) * 8) / nr * nr).clamp(nr, cfg.blocks.nc);
    let full = gebp_gflops(cfg.kernel, mc, kc, nc, seed);
    r.set("gebp.gflops", full);
    let mk = r
        .get("microkernel.default_gflops")
        .expect("microkernel probed first");
    r.set("gebp.pct_of_microkernel", 100.0 * full / mk);
    // Ragged in all three dimensions: a partial A sliver, a partial B
    // sliver and an odd depth.
    r.set(
        "gebp.remainder_gflops",
        gebp_gflops(cfg.kernel, mc - 3, kc - 1, nc - 1, seed),
    );
}

/// Edge of the packing source: 8 MiB, four times L2, so packing reads
/// from beyond L2 as it does inside a large GEMM. The rates are packing
/// rates (padded bytes written per second), not memory bandwidth.
const PACK_SRC: usize = 1024;

fn pack_layer(r: &mut LayerReport, seed: u64) {
    let cfg = GemmConfig::default();
    let (mc, kc) = (cfg.blocks.mc, cfg.blocks.kc);
    let src: Matrix = Matrix::random(PACK_SRC, PACK_SRC, derive(seed, 720));
    let view = src.view();
    for (trans, name) in [
        (Transpose::No, "pack.a_gbs"),
        (Transpose::Yes, "pack.a_trans_gbs"),
    ] {
        let mut pa = PackedA::new(cfg.kernel.mr());
        let mut bytes = 0usize;
        let secs = secs_per_call(3, 1, || {
            bytes = 0;
            for kk in (0..PACK_SRC).step_by(kc) {
                for ii in (0..PACK_SRC).step_by(mc) {
                    pa.pack(
                        &view,
                        trans,
                        ii,
                        kk,
                        mc.min(PACK_SRC - ii),
                        kc.min(PACK_SRC - kk),
                    );
                    bytes += std::mem::size_of_val(pa.buf());
                }
            }
            black_box(pa.buf());
        });
        r.set(name, bytes as f64 / secs / 1e9);
    }
    for (trans, name) in [
        (Transpose::No, "pack.b_gbs"),
        (Transpose::Yes, "pack.b_trans_gbs"),
    ] {
        let mut pb = PackedB::new(cfg.kernel.nr());
        let mut bytes = 0usize;
        let secs = secs_per_call(3, 1, || {
            bytes = 0;
            for kk in (0..PACK_SRC).step_by(kc) {
                pb.pack(&view, trans, kk, 0, kc.min(PACK_SRC - kk), PACK_SRC);
                bytes += std::mem::size_of_val(pb.buf());
            }
            black_box(pb.buf());
        });
        r.set(name, bytes as f64 / secs / 1e9);
    }

    // Share of a skinny call that is packing B, from the hand-composed
    // GEMM's spans over a fixed number of calls.
    let Shape { m, n, k } = SKINNY_SHAPE;
    let a = Matrix::random(m, k, derive(seed, 721));
    let b = Matrix::random(k, n, derive(seed, 722));
    let mut c = Matrix::zeros(m, n);
    let mut log = SpanLog::new();
    let (mut pack_b, mut total) = (0u64, 0u64);
    for op in 0..200 {
        let root = composed_gemm(
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &cfg,
            &mut log,
            op,
        );
        pack_b += log.child_ns(root, "pack_b");
        total += log.duration_ns(root);
        log.spans.clear();
    }
    r.set("pack.share_skinny", pack_b as f64 / total as f64);
}

fn gemm_layer(r: &mut LayerReport, seed: u64) {
    let cfg = GemmConfig::default();
    let a = Matrix::random(SQUARE, SQUARE, derive(seed, 730));
    let b = Matrix::random(SQUARE, SQUARE, derive(seed, 731));
    let mut c = Matrix::zeros(SQUARE, SQUARE);
    let flops = 2.0 * (SQUARE as f64).powi(3);

    let secs = secs_per_call(5, 1, || call_gemm(&a, &b, &mut c, &cfg));
    let square = gflops(flops, secs);
    r.set("gemm.square_gflops", square);
    let gebp_rate = r.get("gebp.gflops").expect("gebp probed first");
    r.set("gemm.pct_of_gebp", 100.0 * square / gebp_rate);

    // Exact counts of one call, from the library's own counters.
    telemetry::reset();
    call_gemm(&a, &b, &mut c, &cfg);
    let snap = telemetry::snapshot();
    r.set("gemm.flops", snap.total_flops() as f64);
    r.set(
        "gemm.packed_bytes",
        (snap.total_packed_a_bytes() + snap.total_packed_b_bytes()) as f64,
    );

    // Where the time goes: three hand-composed calls, kept in the
    // report's span log (this is what trace.json shows).
    let mut composed = Matrix::zeros(SQUARE, SQUARE);
    let mut shares = [0u64; 4]; // pack_a, pack_b, gebp, self
    let mut total = 0u64;
    for op in 0..3 {
        let root = composed_gemm(
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut composed.view_mut(),
            &cfg,
            &mut r.spans,
            op,
        );
        shares[0] += r.spans.child_ns(root, "pack_a");
        shares[1] += r.spans.child_ns(root, "pack_b");
        shares[2] += r.spans.child_ns(root, "gebp");
        shares[3] += r.spans.self_ns(root);
        total += r.spans.duration_ns(root);
    }
    if composed.max_abs_diff(&c) != 0.0 {
        r.failures
            .push("hand-composed GEMM is not bit-identical to gemm".into());
    }
    let share = |ns: u64| ns as f64 / total as f64;
    r.set("gemm.pack_a_share", share(shares[0]));
    r.set("gemm.pack_b_share", share(shares[1]));
    r.set("gemm.gebp_share", share(shares[2]));
    r.set("gemm.driver_share", share(shares[3]));
}

fn pool_layer(r: &mut LayerReport, seed: u64, nproc: usize) {
    let serial = GemmConfig::default();
    let pooled = serial.with_parallelism(Parallelism::Pool(nproc));
    let a = Matrix::random(SQUARE, SQUARE, derive(seed, 740));
    let b = Matrix::random(SQUARE, SQUARE, derive(seed, 741));
    let mut c_serial = Matrix::zeros(SQUARE, SQUARE);
    let mut c_pool = Matrix::zeros(SQUARE, SQUARE);
    call_gemm(&a, &b, &mut c_pool, &pooled); // boots the global pool

    let rt0 = telemetry::snapshot().runtime;
    let st0 = pool::status();

    // Serial and pooled interleaved in pairs, so drift hits both.
    let (mut t_pool, mut eff) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        call_gemm(&a, &b, &mut c_serial, &serial);
        let ts = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        call_gemm(&a, &b, &mut c_pool, &pooled);
        let tp = t0.elapsed().as_secs_f64();
        t_pool.push(tp);
        eff.push(ts / (nproc as f64 * tp));
    }
    r.set(
        "pool.square_gflops",
        gflops(2.0 * (SQUARE as f64).powi(3), lower_quartile(&t_pool)),
    );
    r.set("pool.scaling_eff", median(&eff));
    let mut identical = c_pool.max_abs_diff(&c_serial) == 0.0;

    // What an epoch costs when there is almost nothing to share out.
    let small = 64;
    let sa = Matrix::random(small, small, derive(seed, 742));
    let sb = Matrix::random(small, small, derive(seed, 743));
    let mut sc_serial = Matrix::zeros(small, small);
    let mut sc_pool = Matrix::zeros(small, small);
    let t_serial = secs_per_call(5, 400, || call_gemm(&sa, &sb, &mut sc_serial, &serial));
    let t_pooled = secs_per_call(5, 400, || call_gemm(&sa, &sb, &mut sc_pool, &pooled));
    r.set("pool.small_call_overhead_us", (t_pooled - t_serial) * 1e6);
    identical &= sc_pool.max_abs_diff(&sc_serial) == 0.0;
    r.set("pool.bit_identical", f64::from(u8::from(identical)));
    if !identical {
        r.failures
            .push("pooled result is not bit-identical to serial".into());
    }

    // Fixed call counts above, so these repeat exactly.
    let rt1 = telemetry::snapshot().runtime;
    let st1 = pool::status();
    r.set("pool.tasks", (rt1.tasks - rt0.tasks) as f64);
    r.set(
        "pool.epochs",
        (rt1.epochs_served() - rt0.epochs_served()) as f64,
    );
    r.set("pool.timeouts", (st1.timeouts - st0.timeouts) as f64);
    r.set("pool.respawns", (st1.respawns - st0.respawns) as f64);
}

fn dispatch_layer(r: &mut LayerReport, seed: u64, nproc: usize) {
    // `Fixed` is the default, so this moves no end-to-end metric; it is
    // recorded so that a change of default can be judged. Worst of
    // three shapes: time under `Auto` over the better of the two
    // runtimes `Auto` chooses between.
    let base = GemmConfig::default().with_parallelism(Parallelism::Pool(nproc));
    let mut worst = 0.0f64;
    for (i, (m, n, k, calls)) in [(64, 64, 64, 400), (8, 512, 512, 100), (512, 512, 512, 2)]
        .into_iter()
        .enumerate()
    {
        let a = Matrix::random(m, k, derive(seed, 750 + i as u64));
        let b = Matrix::random(k, n, derive(seed, 760 + i as u64));
        let mut c = Matrix::zeros(m, n);
        let mut time =
            |cfg: GemmConfig| secs_per_call(3, calls, || call_gemm(&a, &b, &mut c, &cfg));
        let serial = time(base.with_parallelism(Parallelism::Serial));
        let pooled = time(base);
        let auto = time(base.with_dispatch(DispatchMode::Auto));
        worst = worst.max(auto / serial.min(pooled));
    }
    r.set("dispatch.auto_vs_best_ratio", worst);
}

/// Entries of the shared-B batch: what one coalesced service group can
/// hold twice over.
const BATCH: usize = 16;

fn batch_layer(r: &mut LayerReport, seed: u64, nproc: usize) {
    let Shape { m, n, k } = SERVICE_SHAPE;
    let cfg = GemmConfig::default().with_parallelism(Parallelism::Pool(nproc));
    let a: Vec<Matrix> = (0..BATCH)
        .map(|i| Matrix::random(m, k, derive(seed, 770 + i as u64)))
        .collect();
    let b = Matrix::random(k, n, derive(seed, 790));
    let mut c: Vec<Matrix> = (0..BATCH).map(|_| Matrix::zeros(m, n)).collect();
    let mut c_loop = c.clone();
    let a_views: Vec<MatrixView<'_>> = a.iter().map(Matrix::view).collect();

    let (mut t_batch, mut ratio) = (Vec::new(), Vec::new());
    for rep in 0..12 {
        let t0 = Instant::now();
        {
            let mut c_views: Vec<MatrixViewMut<'_>> = c.iter_mut().map(Matrix::view_mut).collect();
            gemm_batch_shared_b(
                1.0,
                &a_views,
                Transpose::No,
                &b.view(),
                0.0,
                &mut c_views,
                &cfg,
            )
            .expect("shared-B batch failed");
        }
        let tb = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for (ai, ci) in a.iter().zip(c_loop.iter_mut()) {
            call_gemm(ai, &b, ci, &cfg);
        }
        let tl = t0.elapsed().as_secs_f64();
        if rep >= 2 {
            // the first two pairs warm both paths
            t_batch.push(tb);
            ratio.push(tl / tb);
        }
    }
    if c.iter().zip(&c_loop).any(|(x, y)| x.max_abs_diff(y) != 0.0) {
        r.failures
            .push("shared-B batch differs from a loop of gemm calls".into());
    }
    r.set(
        "batch.shared_b_gflops",
        gflops(BATCH as f64 * SERVICE_SHAPE.flops(), median(&t_batch)),
    );
    r.set("batch.vs_loop_ratio", median(&ratio));
}

fn prepack_layer(r: &mut LayerReport, seed: u64) {
    let Shape { m, n, k } = SKINNY_SHAPE;
    let cfg = GemmConfig::default().with_pack_cache(true);
    let a = Matrix::random(m, k, derive(seed, 800));
    let b = Matrix::random(k, n, derive(seed, 801));
    let mut c = Matrix::zeros(m, n);

    let mut bytes = 0usize;
    let secs = secs_per_call(5, 8, || {
        let packed = PrepackedB::from_matrix(&cfg, &b.view()).expect("pre-pack B");
        bytes = packed.bytes();
        black_box(&packed);
    });
    r.set("prepack.build_gbs", bytes as f64 / secs / 1e9);

    // The transparent cache: the hit path `service_reuse` lives on, and
    // the miss path a `skinny_fresh` caller would take with it on.
    let cache = f64::pack_cache();
    cache.clear();
    telemetry::reset();
    let hit = secs_per_call(5, 200, || call_gemm(&a, &b, &mut c, &cfg));
    let mut misses = Vec::new();
    for _ in 0..200 {
        cache.invalidate(&b.view());
        let t0 = Instant::now();
        call_gemm(&a, &b, &mut c, &cfg);
        misses.push(t0.elapsed().as_secs_f64());
    }
    r.set("prepack.hit_call_us", hit * 1e6);
    r.set("prepack.miss_call_us", median(&misses) * 1e6);
    let snap = telemetry::snapshot().cache;
    r.set(
        "prepack.hit_ratio",
        snap.hits as f64 / (snap.hits + snap.misses).max(1) as f64,
    );
    r.set("prepack.bytes_saved", snap.bytes_saved as f64);
    r.set("prepack.evictions", snap.evictions as f64);
    cache.clear();
}

/// Seconds of closed-loop traffic behind `service.gflops` and
/// `service.latency_p99_ms` (a p99 needs a thousand requests).
const SERVICE_PROBE_S: f64 = 2.0;

fn service_layer(r: &mut LayerReport, seed: u64, nproc: usize) {
    let (mut service, _) = Service::new(derive(seed, 810), service_pool_degree(nproc));

    // Boots: without the store (nothing to load) and with it.
    let boot_ms = |cfg: &ServiceConfig| {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let svc = GemmService::new(cfg.clone());
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                svc.shutdown();
                ms
            })
            .collect();
        median(&samples)
    };
    let cold_cfg = ServiceConfig {
        weight_store: None,
        ..service.cfg.clone()
    };
    r.set("service.boot_cold_ms", boot_ms(&cold_cfg));
    r.set("service.boot_warm_ms", boot_ms(&service.cfg));

    // First result after a warm boot: submit to `wait` returning, the
    // blob attached on the way.
    let Shape { m, n, k } = SERVICE_SHAPE;
    let weight = Arc::clone(&service.weights[0]);
    let attaches_before = telemetry::snapshot().store.attaches;
    let act = Arc::new(Matrix::random(m, k, derive(seed, 811)));
    let first: Vec<f64> = (0..3)
        .map(|_| {
            let svc = GemmService::new(service.cfg.clone());
            let t0 = Instant::now();
            let out = svc
                .submit(
                    "t0",
                    1.0,
                    Arc::clone(&act),
                    Transpose::No,
                    Arc::clone(&weight),
                )
                .and_then(|t| t.wait());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert!(out.is_ok(), "first request failed: {out:?}");
            svc.shutdown();
            ms
        })
        .collect();
    r.set("service.first_result_ms", median(&first));
    let attaches = telemetry::snapshot().store.attaches - attaches_before;
    if attaches != 3 {
        r.failures.push(format!(
            "warm first requests attached {attaches} blobs, expected one per boot"
        ));
    }

    // Closed-loop traffic, the `service_reuse` request mix.
    service.cold_setup();
    let mut spans = SpanLog::new();
    let sample = service.region(SERVICE_PROBE_S, Some(&mut spans));
    if sample.failed > 0 {
        r.failures.push(format!(
            "service probe: {} of {} requests failed: {:?}",
            sample.failed, sample.attempted, sample.failures
        ));
    }
    r.set(
        "service.gflops",
        gflops(
            sample.attempted as f64 * SERVICE_SHAPE.flops(),
            sample.wall_s(),
        ),
    );
    let mut lat = sample.lat_ns.clone();
    lat.sort_unstable();
    if !percentile_is_supported(lat.len(), 99.0) {
        eprintln!(
            "note: service.latency_p99_ms rests on {} requests, fewer than the 1000 a p99 needs",
            lat.len()
        );
    }
    r.set(
        "service.latency_p99_ms",
        percentile_sorted(&lat, 99.0) as f64 * 1e-6,
    );
    let submit_us: Vec<f64> = spans
        .spans
        .iter()
        .filter(|s| s.name == "submit")
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-3)
        .collect();
    r.set("service.submit_us", median(&submit_us));

    let status = json::parse(&service.status_json()).unwrap_or(Value::Null);
    let counter = |name: &str| {
        status
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    r.set(
        "service.coalesce_mean_batch",
        counter("coalesced_requests") / counter("coalesced_batches").max(1.0),
    );
    r.set(
        "service.shed",
        counter("shed_overload") + counter("shed_quota"),
    );
    r.set("service.retries", counter("retries"));
    // Queue wait of the busiest (tenant, shape) histogram.
    let queue_p50_us = status
        .get("histograms")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|h| h.get("metric").and_then(Value::as_str) == Some("queue"))
        .max_by(|x, y| {
            let count = |h: &Value| h.get("count").and_then(Value::as_f64).unwrap_or(0.0);
            count(x).total_cmp(&count(y))
        })
        .and_then(|h| h.get("p50_us"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    r.set("service.queue_wait_p50_ms", queue_p50_us * 1e-3);
    drop(service);

    // What the ladder costs over its engine: one stream through the
    // service against the same stream as one direct shared-B batch,
    // paired back to back as `benches/service.rs` pairs them.
    let stream = 32;
    let gemm_cfg = cold_cfg.gemm.with_pack_cache(true);
    let acts: Vec<Arc<Matrix>> = (0..stream)
        .map(|i| Arc::new(Matrix::random(m, k, derive(seed, 820 + i as u64))))
        .collect();
    let svc = GemmService::new(ServiceConfig {
        coalesce: stream,
        ..cold_cfg
    });
    let through_service = || {
        let tickets: Vec<_> = acts
            .iter()
            .map(|a| {
                svc.submit(
                    "probe",
                    1.0,
                    Arc::clone(a),
                    Transpose::No,
                    Arc::clone(&weight),
                )
            })
            .collect();
        for t in tickets {
            black_box(t.and_then(|t| t.wait()).expect("probe request failed"));
        }
    };
    let direct = || {
        let views: Vec<MatrixView<'_>> = acts.iter().map(|a| a.view()).collect();
        let mut outs: Vec<Matrix> = (0..stream).map(|_| Matrix::zeros(m, n)).collect();
        let mut out_views: Vec<MatrixViewMut<'_>> = outs.iter_mut().map(Matrix::view_mut).collect();
        gemm_batch_shared_b(
            1.0,
            &views,
            Transpose::No,
            &weight.view(),
            0.0,
            &mut out_views,
            &gemm_cfg,
        )
        .expect("direct batch failed");
        drop(out_views);
        black_box(outs);
    };
    // The direct side runs on a shard of its own, as the service does:
    // the global pool still holds the workers earlier probes started,
    // and they would help whatever degree the config names.
    let direct_shard = WorkerPool::new_shard("ladder-direct");
    let direct = || pool::with_pool(&direct_shard, direct);
    through_service();
    direct();
    let ratios: Vec<f64> = (0..16)
        .map(|_| {
            let t0 = Instant::now();
            direct();
            let d = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            through_service();
            t0.elapsed().as_secs_f64() / d
        })
        .collect();
    r.set("service.overhead_ratio", median(&ratios));
    svc.shutdown();
    f64::pack_cache().clear();
}

fn store_layer(r: &mut LayerReport, seed: u64) {
    let cfg = GemmConfig::default();
    let b = Matrix::random(1024, 1024, derive(seed, 830));
    let packed = PrepackedB::from_matrix(&cfg, &b.view()).expect("pre-pack B");
    let failures0 = telemetry::snapshot().store.load_failures;

    let mut blob = Vec::new();
    let secs = secs_per_call(5, 4, || blob = store::encode(&packed));
    let mb = blob.len() as f64 / 1e6;
    r.set("store.encode_mbs", mb / secs);

    let secs = secs_per_call(5, 4, || {
        black_box(store::decode::<f64>(black_box(&blob)).expect("decode own blob"));
    });
    r.set("store.decode_mbs", mb / secs);

    let dir = std::path::Path::new(crate::workloads::OUT_DIR);
    std::fs::create_dir_all(dir).expect("create output directory");
    let path = dir.join(format!("probe-{}.dgemmpb", std::process::id()));
    store::save(&path, &packed).expect("save blob");
    let secs = secs_per_call(5, 4, || {
        black_box(store::load::<f64>(&path).expect("load own blob"));
    });
    r.set("store.load_ms", secs * 1e3);
    let loaded = store::load::<f64>(&path).expect("load own blob");
    let _ = std::fs::remove_file(&path);

    let mut verified = true;
    let secs = secs_per_call(5, 4, || {
        verified &= loaded.verify_source(&b.view(), Transpose::No);
    });
    if !verified {
        r.failures
            .push("stored blob failed to verify against its source".into());
    }
    r.set("store.verify_mbs", (1024 * 1024 * 8) as f64 / 1e6 / secs);
    r.set(
        "store.load_failures",
        (telemetry::snapshot().store.load_failures - failures0) as f64,
    );
}

/// Single rungs for the library's consumers, and its distance from the
/// naive reference.
fn consumers(r: &mut LayerReport, seed: u64) {
    let cfg = GemmConfig::default();

    let n = 1024;
    let noise: Matrix = Matrix::random(n, n, derive(seed, 840));
    // Diagonally boosted, as `examples/linpack.rs` does, so the residual
    // tests the solver and not the conditioning of a random matrix.
    let a = Matrix::from_fn(n, n, |i, j| {
        noise.get(i, j) + if i == j { 4.0 } else { 0.0 }
    });
    let x_true = Matrix::random(n, 1, derive(seed, 841));
    let mut rhs = Matrix::zeros(n, 1);
    call_gemm(&a, &x_true, &mut rhs, &cfg);
    let t0 = Instant::now();
    let factors = lu_factor(&a, &cfg);
    let secs = t0.elapsed().as_secs_f64();
    match factors.map(|f| f.solve(&rhs, &cfg)) {
        Ok(Ok(x)) => {
            r.set("lu.gflops", gflops(lu_flops(n), secs));
            let residual = hpl_residual(&a, &x, &rhs);
            r.set("lu.hpl_residual", residual);
            if residual.is_nan() || residual >= 16.0 {
                r.failures
                    .push(format!("HPL residual {residual} is not below 16"));
            }
        }
        other => {
            r.failures
                .push(format!("LU factor/solve failed: {:?}", other.err()));
            r.set("lu.gflops", f64::NAN);
            r.set("lu.hpl_residual", f64::NAN);
        }
    }

    let s = 512;
    let sa = Matrix::<f32>::random(s, s, derive(seed, 850));
    let sb = Matrix::<f32>::random(s, s, derive(seed, 851));
    let mut sc = Matrix::<f32>::zeros(s, s);
    let scfg = SgemmConfig::default();
    let secs = secs_per_call(5, 1, || {
        sgemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &sa.view(),
            &sb.view(),
            0.0,
            &mut sc.view_mut(),
            &scfg,
        )
        .expect("sgemm failed");
    });
    r.set(
        "sgemm.square_gflops",
        gflops(2.0 * (s as f64).powi(3), secs),
    );

    // Largest element-wise distance from the naive triple loop, relative
    // to the largest reference element, over a skinny and a ragged shape.
    let mut worst = 0.0f64;
    for (i, (m, n, k)) in [(8, 512, 512), (61, 77, 300)].into_iter().enumerate() {
        let a = Matrix::random(m, k, derive(seed, 860 + i as u64));
        let b = Matrix::random(k, n, derive(seed, 870 + i as u64));
        let mut got = Matrix::zeros(m, n);
        let mut want = Matrix::zeros(m, n);
        call_gemm(&a, &b, &mut got, &cfg);
        naive_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut want.view_mut(),
        );
        let scale = want.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
        worst = worst.max(got.max_abs_diff(&want) / scale);
    }
    r.set("reference.max_rel_err", worst);
    if worst.is_nan() || worst >= 1e-10 {
        r.failures.push(format!(
            "gemm differs from the reference by {worst:e} (relative)"
        ));
    }
}

/// The ladder in one screen: each rung as GFLOPS, % of the probed peak
/// and % of the rung beneath it.
pub fn ladder_table(r: &LayerReport) -> String {
    let rungs = [
        ("probed peak", "host.peak_gflops"),
        (
            "microkernel (default, L1 slivers)",
            "microkernel.default_gflops",
        ),
        ("gebp (default blocks, L2)", "gebp.gflops"),
        ("gemm (serial, square)", "gemm.square_gflops"),
        ("pool (square)", "pool.square_gflops"),
        ("batch (shared B)", "batch.shared_b_gflops"),
        ("service (service_reuse mix)", "service.gflops"),
    ];
    let peak = r.get(rungs[0].1).unwrap_or(f64::NAN);
    let threads = r.get("host.nproc").unwrap_or(1.0);
    let mut out = format!(
        "{:<36} {:>10} {:>10} {:>14}\n",
        "rung", "GFLOP/s", "% of peak", "% of rung below"
    );
    let mut below = None;
    for (label, name) in rungs {
        let v = r.get(name).unwrap_or(f64::NAN);
        let of_below = below.map_or("-".to_string(), |b: f64| format!("{:.1}", 100.0 * v / b));
        out.push_str(&format!(
            "{label:<36} {v:>10.2} {:>10.1} {of_below:>14}\n",
            100.0 * v / peak,
        ));
        below = Some(v);
    }
    out.push_str(&format!(
        "(peak is one thread of {} FMA; the pool and batch rungs use {threads} threads, the service rung {})\n",
        r.peak_isa,
        service_pool_degree(threads as usize)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_LIBRARY_LOCK;

    /// The hand-composed GEMM must not differ from `gemm` by one bit,
    /// on a square shape and on one ragged against every block size.
    #[test]
    fn composed_gemm_is_bit_identical_to_gemm() {
        let _lib = TEST_LIBRARY_LOCK.lock().unwrap();
        let small_blocks = GemmConfig::default().with_blocks(24, 16, 32);
        for (cfg, m, n, k) in [
            (small_blocks, 64, 64, 64),
            (small_blocks, 65, 37, 25),
            (GemmConfig::default(), 130, 70, 600),
        ] {
            let a = Matrix::random(m, k, 1);
            let b = Matrix::random(k, n, 2);
            let c0 = Matrix::random(m, n, 3);
            for (alpha, beta) in [(1.0, 0.0), (1.25, -0.5)] {
                let mut want = c0.clone();
                gemm(
                    Transpose::No,
                    Transpose::No,
                    alpha,
                    &a.view(),
                    &b.view(),
                    beta,
                    &mut want.view_mut(),
                    &cfg,
                );
                let mut got = c0.clone();
                let mut log = SpanLog::new();
                let root = composed_gemm(
                    alpha,
                    &a.view(),
                    &b.view(),
                    beta,
                    &mut got.view_mut(),
                    &cfg,
                    &mut log,
                    0,
                );
                assert_eq!(got.max_abs_diff(&want), 0.0, "{m}x{n}x{k} alpha {alpha}");
                // Every child span hangs off the root and lies inside it.
                let (start, end) = (log.spans[0].start_ns, log.spans[0].end_ns);
                assert!(log.spans[1..]
                    .iter()
                    .all(|s| s.parent == Some(root) && s.start_ns >= start && s.end_ns <= end));
            }
        }
    }

    /// The peak probe bounds every register-kernel rate it is compared
    /// with (a rung above the peak would mean the probe is not one).
    #[test]
    fn peak_probe_bounds_every_microkernel_rate() {
        let _lib = TEST_LIBRARY_LOCK.lock().unwrap();
        let peak = host::probe_peak(3);
        for kind in MicroKernelKind::ALL {
            let rate = microkernel_gflops(kind, kind.mr(), kind.nr(), 4);
            assert!(
                peak.gflops >= rate,
                "{} peak {} < {} {rate}",
                peak.isa,
                peak.gflops,
                kind.label()
            );
        }
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
            assert!(name.contains('.'), "{name} lacks a module prefix");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(["higher", "lower"].contains(better));
            assert!(
                PER_LAYER[..i].iter().all(|(n, _, _)| n != name),
                "{name} twice"
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
