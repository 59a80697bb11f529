//! Property tests for the telemetry layer: counters must be *exact*,
//! not approximate. FLOPs retired must equal `2·m·n·k` for every
//! runtime, and packed-byte counters must reproduce the padded-buffer
//! arithmetic of `pack.rs` (`ceil(mc/mr)·mr·kc` slivers of A,
//! `ceil(nc/nr)·nr·kc` slivers of B) summed over the exact macro-loop
//! decomposition each runtime performs: the serial walk packs every
//! block of A and every panel of B once; on the pool every cell of the
//! grid packs its own, so A is packed once per column chunk and B once
//! per row range. B bytes are *packed* bytes only where a pack ran —
//! gemm's B-source rule (DESIGN.md, "When B is packed"): a SIMD kernel
//! reads an untransposed B in place at any block count, any kernel does
//! within one row group of one block, and the portable kernel within one
//! block — and otherwise the same elements show up, unpadded, as in-place
//! bytes, once per GEBP that reads them.
//!
//! Telemetry counters are process-global, so every test serializes on
//! one lock and starts from `telemetry::reset()`.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use dgemm_core::gemm::{gemm, BSource, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::{KernelSet, MicroKernelKind};
use dgemm_core::pool::{cell_grid, Parallelism};
use dgemm_core::simd::Isa;
use dgemm_core::telemetry;
use dgemm_core::Transpose;

/// Serialize tests touching the global counters; reset before each.
fn lock_and_reset() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    telemetry::reset();
    guard
}

const MR: usize = 8;
const NR: usize = 6;
const KC: usize = 20;
const MC: usize = 24;
const NC: usize = 16;

/// The register kernel of a counted call and its `op(B)` selector.
type Kernel = (MicroKernelKind, Transpose);
/// The 8×6 kernel on a stored B: read in place at any block count where
/// the host runs it as SIMD code, packed past one block where it does not.
const STREAMED: Kernel = (MicroKernelKind::Mk8x6, Transpose::No);

fn cfg(kind: MicroKernelKind, par: Parallelism) -> GemmConfig {
    GemmConfig::for_kernel(kind, 1)
        .with_blocks(KC, MC, NC)
        .with_parallelism(par)
}

/// `op(B)` of a `k×n` product stored as `transb` says.
fn stored_b(transb: Transpose, k: usize, n: usize, seed: u64) -> Matrix {
    match transb {
        Transpose::No => Matrix::random(k, n, seed),
        Transpose::Yes => Matrix::random(n, k, seed),
    }
}

fn run((kind, transb): Kernel, par: Parallelism, m: usize, n: usize, k: usize) {
    let a = Matrix::random(m, k, 11);
    let b = stored_b(transb, k, n, 12);
    let mut c = Matrix::zeros(m, n);
    gemm(
        Transpose::No,
        transb,
        1.0,
        &a.view(),
        &b.view(),
        0.0,
        &mut c.view_mut(),
        &cfg(kind, par),
    );
}

/// Whether a call of `rows` stacked rows in blocks of `mc` reads B where
/// it is stored, by gemm's B-source rule on the kernel as this host runs
/// it: each sliver is read by one kernel call (the rows fit one row group
/// of one block), or B is untransposed and the kernel is a SIMD body or
/// the rows fit one block.
fn reads_b_in_place((kind, transb): Kernel, rows: usize, mc: usize) -> bool {
    let one_block = rows <= mc;
    let read_once = one_block && rows <= kind.mr() * kind.row_group();
    read_once || transb == Transpose::No && (one_block || kind.isa() > Isa::Portable)
}

/// Expected exact counters for one GEMM, replicating the macro loops:
/// `jj` over `nc` panels, `kk` over `kc` depths, then `mc` blocks of A
/// over the `m` rows — once for the serial walk, and on the pool once
/// per cell of the panel's grid ([`cell_grid`]; one cell at degree 1):
/// every column chunk packs the blocks of A, every row range the panel of
/// B, and a GEBP runs per block and chunk. A call that reads B where the
/// caller stored it counts, per GEBP, the `kc·cols` elements it consumed,
/// not a padded panel.
/// Returns `(flops, a_bytes, [packed_b_bytes, b_in_place_bytes], blocks)`.
fn expected(
    kernel: Kernel,
    m: usize,
    n: usize,
    k: usize,
    degree: usize,
) -> (u64, u64, [u64; 2], u64) {
    let w = core::mem::size_of::<f64>() as u64;
    let (mr, nr) = (kernel.0.mr(), kernel.0.nr());
    let b_in_place = reads_b_in_place(kernel, m, MC);
    let (mut flops, mut a_bytes, mut b_bytes, mut blocks) = (0u64, 0u64, [0u64; 2], 0u64);
    let mut jj = 0;
    while jj < n {
        let nc_eff = NC.min(n - jj);
        // (a 20-deep panel spills no L2, so none need be known)
        let source = if b_in_place {
            BSource::InPlace
        } else {
            BSource::Packed
        };
        let isa = kernel.0.isa();
        let grid = cell_grid(m, nc_eff, k, KC, MC, nr, degree, source, isa, None);
        let (row_ranges, col_chunks) = grid;
        let (row_ranges, col_chunks) = (row_ranges as u64, col_chunks as u64);
        let mut kk = 0;
        while kk < k {
            let kc_eff = KC.min(k - kk);
            if !b_in_place {
                // chunks are whole slivers, so they pad as the panel does
                b_bytes[0] += row_ranges * (nc_eff.div_ceil(nr) * nr * kc_eff) as u64 * w;
            }
            let mut ii = 0;
            while ii < m {
                let mc_eff = MC.min(m - ii);
                a_bytes += col_chunks * (mc_eff.div_ceil(mr) * mr * kc_eff) as u64 * w;
                flops += 2 * (mc_eff * nc_eff * kc_eff) as u64;
                if b_in_place {
                    b_bytes[1] += (nc_eff * kc_eff) as u64 * w;
                }
                blocks += col_chunks;
                ii += mc_eff;
            }
            kk += kc_eff;
        }
        jj += nc_eff;
    }
    (flops, a_bytes, b_bytes, blocks)
}

#[cfg(feature = "telemetry")]
mod enabled {
    use super::*;
    use dgemm_core::batch::gemm_batch_shared_b;
    use dgemm_core::json;
    use dgemm_core::telemetry::{BlockSizes, GemmReport, TelemetryMode, TraceEvent, TraceKind};

    /// The 8×6 kernel on a transposed B: packed past one row group of one
    /// block on every host.
    const TRANSPOSED: Kernel = (MicroKernelKind::Mk8x6, Transpose::Yes);
    /// The portable 5×5 kernel on a stored B: packed past one block.
    const PORTABLE: Kernel = (MicroKernelKind::Mk5x5, Transpose::No);

    fn check(kernel: Kernel, par: Parallelism, m: usize, n: usize, k: usize) {
        run(kernel, par, m, n, k);
        let snap = telemetry::snapshot();
        let b_in_place = reads_b_in_place(kernel, m, MC);
        let (flops, a_bytes, b_bytes, blocks) = expected(kernel, m, n, k, par.degree());
        let par = format!("{kernel:?} {par:?}");
        assert_eq!(flops, 2 * (m * n * k) as u64, "blocks must cover mnk");
        assert_eq!(snap.total_flops(), flops, "{par} {m}x{n}x{k}: flops");
        assert_eq!(
            snap.total_packed_a_bytes(),
            a_bytes,
            "{par} {m}x{n}x{k}: packed-A bytes"
        );
        assert_eq!(
            [snap.total_packed_b_bytes(), snap.total_b_in_place_bytes()],
            b_bytes,
            "{par} {m}x{n}x{k}: [packed, in-place] B bytes"
        );
        let pack_b = TraceKind::ALL
            .iter()
            .position(|p| *p == TraceKind::PackB)
            .unwrap();
        let pack_b_spans: u64 = snap.threads.iter().map(|t| t.phase_hits[pack_b]).sum();
        assert_eq!(
            pack_b_spans == 0,
            b_in_place,
            "{par} {m}x{n}x{k}: a PackB span iff a pack"
        );
        assert_eq!(
            snap.total_blocks(),
            blocks,
            "{par} {m}x{n}x{k}: gebp blocks"
        );
    }

    #[test]
    fn serial_counters_are_exact() {
        // 13, 24 (= mc) and 1 row are single-block shapes: B in place for
        // every kernel on a stored B, and for the transposed one wherever
        // they fit a row group; past them the transposed and the portable
        // kernel pack, the streamed one reads in place on a SIMD host
        for kernel in [STREAMED, TRANSPOSED, PORTABLE] {
            for (m, n, k) in [
                (64, 48, 40),
                (130, 70, 50),
                (13, 7, 9),
                (24, 16, 20),
                (24, 70, 50),
                (25, 16, 20),
                (1, 1, 1),
            ] {
                let _g = lock_and_reset();
                check(kernel, Parallelism::Serial, m, n, k);
            }
        }
    }

    #[test]
    fn the_pool_reads_b_in_place_on_single_block_shapes() {
        // A cell with one block of A has no second GEBP to reuse a pack
        // of its columns either: same predicate, same counters, A packed
        // once per column chunk.
        let _g = lock_and_reset();
        check(STREAMED, Parallelism::Pool(3), 13, 33, 41);
    }

    /// The call the benchmark's `skinny_fresh` makes, under the default
    /// blocking, by its exact counters: nothing written into a packed
    /// panel, every B element read once in place, A packed as before —
    /// and the pool's two column cells doing the same on half the
    /// columns each (A packed by both), into the same bits of C. Its
    /// eight rows are one row group, so a transposed B is read in place
    /// too, into the same bits. A serial batch runs the plan the
    /// dispatcher prices for it, too, on its rows stacked: of one entry,
    /// this very call; of as many as fit one `mc` block, one GEBP reading
    /// B in place; of one more, two blocks, which a SIMD kernel reads B in
    /// place for too and the portable kernel shares one pack of the one
    /// `(jj, kk)` panel for.
    #[test]
    fn the_default_skinny_call_reads_b_in_place_and_says_so() {
        let _g = lock_and_reset();
        let (m, n, k) = (8, 512, 512);
        let a = Matrix::random(m, k, 61);
        let b = Matrix::random(k, n, 62);
        let counts = || {
            let snap = telemetry::snapshot();
            [
                snap.total_flops(),
                snap.total_packed_a_bytes(),
                snap.total_packed_b_bytes(),
                snap.total_b_in_place_bytes(),
            ]
        };
        let bt = Matrix::from_fn(n, k, |j, p| b.get(p, j));
        let run_op = |par: Parallelism, tb: Transpose| {
            let mut c = Matrix::zeros(m, n);
            telemetry::reset();
            let b = if tb == Transpose::No { &b } else { &bt };
            let cfg = GemmConfig::default().with_parallelism(par);
            gemm(
                Transpose::No,
                tb,
                1.0,
                &a.view(),
                &b.view(),
                0.0,
                &mut c.view_mut(),
                &cfg,
            );
            (c, counts())
        };
        let run = |par: Parallelism| run_op(par, Transpose::No);
        let run_batch = |entries: usize| {
            let mut c = vec![Matrix::zeros(m, n); entries];
            let a_views = vec![a.view(); entries];
            let mut c_views: Vec<_> = c.iter_mut().map(Matrix::view_mut).collect();
            telemetry::reset();
            let (tb, cfg) = (Transpose::No, GemmConfig::default());
            gemm_batch_shared_b(1.0, &a_views, tb, &b.view(), 0.0, &mut c_views, &cfg).unwrap();
            drop(c_views);
            (c, counts())
        };
        let (in_place, serial_counts) = run(Parallelism::Serial);
        assert_eq!(serial_counts, [4_194_304, 32_768, 0, 512 * 512 * 8]);
        let (pooled, counts) = run(Parallelism::Pool(2));
        assert_eq!(counts, [4_194_304, 2 * 32_768, 0, 512 * 512 * 8]);
        assert_eq!(in_place.as_slice(), pooled.as_slice());
        for par in [Parallelism::Serial, Parallelism::Pool(2)] {
            let (transposed, counts) = run_op(par, Transpose::Yes);
            let a_bytes = 32_768 * par.degree() as u64;
            assert_eq!(counts, [4_194_304, a_bytes, 0, 512 * 512 * 8], "Bᵀ {par:?}");
            assert_eq!(transposed.as_slice(), in_place.as_slice(), "Bᵀ {par:?}");
        }

        let (batch_of_one, counts) = run_batch(1);
        assert_eq!(counts, serial_counts);
        assert_eq!(batch_of_one[0].as_slice(), in_place.as_slice());
        // stacked, entries whose rows fit one mc block are one GEBP that
        // reads B in place; one entry more is two blocks, reading B in
        // place each on a SIMD kernel, sharing one pack of the panel on
        // the portable one
        let default = GemmConfig::default();
        let (mc, kernel) = (default.blocks.mc, (default.kernel, Transpose::No));
        let one_panel = (n.div_ceil(NR) * NR * k * 8) as u64;
        for entries in [4, 8, mc / m, mc / m + 1] {
            let (batch, counts) = run_batch(entries);
            let e = entries as u64;
            let gebps = (entries * m).div_ceil(mc) as u64;
            let (packed_b, b_in_place) = if reads_b_in_place(kernel, entries * m, mc) {
                (0, gebps * 512 * 512 * 8)
            } else {
                (one_panel, 0)
            };
            assert_eq!(
                counts,
                [e * 4_194_304, e * 32_768, packed_b, b_in_place],
                "{entries} entries of {m} rows, mc {mc}"
            );
            assert!(batch.iter().all(|c| c.as_slice() == in_place.as_slice()));
        }
    }

    #[test]
    fn pooled_counters_are_exact() {
        // Row-split grids (the narrow test panels have three slivers),
        // a column-split one (two blocks, degree 2) and the one-cell grid
        // of degree 1, which must count what the serial walk counts.
        for kernel in [STREAMED, TRANSPOSED, PORTABLE] {
            for (par, m, n, k) in [
                (Parallelism::Pool(3), 130, 70, 50),
                (Parallelism::Pool(3), 96, 33, 41),
                (Parallelism::Pool(2), 25, 70, 50),
                (Parallelism::Pool(1), 130, 70, 50),
            ] {
                let _g = lock_and_reset();
                check(kernel, par, m, n, k);
            }
        }
        for b in [BSource::InPlace, BSource::Packed] {
            let grid = |m, degree| cell_grid(m, NC, 50, KC, MC, NR, degree, b, Isa::Avx512, None);
            assert_eq!(grid(130, 3), (3, 1));
            assert_eq!(grid(25, 2), (1, 2));
        }
    }

    /// The pooled layer-3 schedule, counted: 512³ on `Pool(2)` at
    /// `mc` = 128 splits its four row tasks two a thread, so each row of A
    /// is packed once per call, `m·k·8` bytes in all, whether the kernel
    /// reads B in place (a SIMD host: no B packed) or packs it (the
    /// portable one: each row range packs all of B). A Bᵀ past one row
    /// group is packed, and 384 rows are three tasks: its (1, 2) grid
    /// packs A once per column chunk and B once, in whole slivers.
    #[test]
    fn a_pooled_row_split_packs_each_row_of_a_once() {
        let kernel = MicroKernelKind::Mk8x6;
        let k = 512;
        // B's 512 columns in 86 slivers of 6, 512 deep
        let b_panel = 86 * 6 * k as u64 * 8;
        for (m, transb) in [(512, Transpose::No), (384, Transpose::Yes)] {
            let _g = lock_and_reset();
            let a = Matrix::random(m, k, 81);
            let b = stored_b(transb, k, 512, 82);
            let mut c = Matrix::zeros(m, 512);
            let cfg = GemmConfig::for_kernel(kernel, 1)
                .with_blocks(k, 128, 1920)
                .with_parallelism(Parallelism::Pool(2));
            let (a_view, b_view) = (a.view(), b.view());
            gemm(
                Transpose::No,
                transb,
                1.0,
                &a_view,
                &b_view,
                0.0,
                &mut c.view_mut(),
                &cfg,
            );
            let snap = telemetry::snapshot();
            let a_once = (m * k * 8) as u64;
            let want = match transb {
                Transpose::No if reads_b_in_place((kernel, transb), m, 128) => [a_once, 0],
                Transpose::No => [a_once, 2 * b_panel],
                Transpose::Yes => [2 * a_once, b_panel],
            };
            let got = [snap.total_packed_a_bytes(), snap.total_packed_b_bytes()];
            assert_eq!(
                got, want,
                "{m}x512x{k}, {transb:?}: [packed A, packed B] bytes"
            );
        }
    }

    /// Figure 9, observed: on the pool every thread that computes packs
    /// for itself — its blocks of A, and its columns of a transposed B,
    /// which 512 rows read more than once; its columns of B as stored
    /// only where the kernel does not read them in place (the portable
    /// one). And on either runtime the calling thread's stream
    /// attributes the call exclusively: in the fastest of ten calls its
    /// pack, compute and barrier spans never overlap (watchdog and
    /// recovery would nest them) and sum to at least 90 % of the wall
    /// time, which they cannot exceed.
    #[test]
    fn every_pooled_lane_packs_its_own_operands() {
        let _g = lock_and_reset();
        let n = 512;
        let a = Matrix::random(n, n, 71);
        for transb in [Transpose::Yes, Transpose::No] {
            let default = GemmConfig::default();
            let packs_b = !reads_b_in_place((default.kernel, transb), n, default.blocks.mc);
            lanes_pack_their_own_operands(&a, &stored_b(transb, n, n, 72), transb, packs_b);
        }
    }

    fn lanes_pack_their_own_operands(a: &Matrix, b: &Matrix, transb: Transpose, packs_b: bool) {
        let n = a.rows();
        let mut c = Matrix::zeros(n, n);
        let me = std::thread::current();
        let exclusive = [
            TraceKind::PackA,
            TraceKind::PackB,
            TraceKind::Compute,
            TraceKind::Barrier,
        ];
        for par in [Parallelism::Pool(2), Parallelism::Serial] {
            let cfg = GemmConfig::default().with_parallelism(par);
            // the fastest call's wall time and its caller's exclusive spans
            let mut best: Option<(f64, Vec<TraceEvent>)> = None;
            let (mut computed, mut packed) = (0, 0);
            for _ in 0..10 {
                telemetry::reset();
                let t0 = std::time::Instant::now();
                gemm(
                    Transpose::No,
                    transb,
                    1.0,
                    &a.view(),
                    &b.view(),
                    0.0,
                    &mut c.view_mut(),
                    &cfg,
                );
                let wall = t0.elapsed().as_secs_f64();
                let snap = telemetry::snapshot();
                for t in &snap.threads {
                    if t.phase_time(TraceKind::Compute) > 0 {
                        computed += 1;
                        assert!(
                            t.phase_time(TraceKind::PackA) > 0
                                && (t.phase_time(TraceKind::PackB) > 0) == packs_b,
                            "{par:?} {transb:?}: lane {} computed a cell it did not pack \
                             for, or packed a B it reads in place",
                            t.name
                        );
                        let b_bytes = if packs_b {
                            t.packed_b_bytes
                        } else {
                            t.b_in_place_bytes
                        };
                        packed += u64::from(t.packed_a_bytes > 0 && b_bytes > 0);
                    }
                }
                let caller = snap
                    .threads
                    .into_iter()
                    .find(|t| Some(t.name.as_str()) == me.name())
                    .expect("the caller ran a cell");
                if best.as_ref().is_none_or(|(w, _)| wall < *w) {
                    let spans = caller.trace.into_iter();
                    best = Some((
                        wall,
                        spans.filter(|e| exclusive.contains(&e.kind)).collect(),
                    ));
                }
            }
            assert_eq!(computed, packed, "{par:?}");
            assert!(computed >= 10, "{par:?}: no lane recorded a cell");
            let (wall, spans) = best.unwrap();
            for w in spans.windows(2) {
                assert!(
                    w[0].start_ns + w[0].dur_ns <= w[1].start_ns,
                    "{par:?}: {:?} overlaps {:?}",
                    w[0],
                    w[1]
                );
            }
            let traced = spans.iter().map(|e| e.dur_ns).sum::<u64>() as f64 / 1e9;
            assert!(
                (0.9 * wall..=wall).contains(&traced),
                "{par:?}: spans cover {:.3} of {:.3} ms",
                traced * 1e3,
                wall * 1e3
            );
        }
    }

    #[test]
    fn pooled_512_report_attributes_the_run() {
        let _g = lock_and_reset();
        let (m, n, k) = (512, 512, 512);
        let t0 = std::time::Instant::now();
        run(STREAMED, Parallelism::Pool(4), m, n, k);
        let elapsed = t0.elapsed();

        let snap = telemetry::snapshot();
        assert_eq!(snap.total_flops(), 2 * (m * n * k) as u64);

        // Every lane that recorded time must account for exactly 1.0
        // across pack/compute/wait.
        let mut active = 0;
        for t in &snap.threads {
            if let Some((p, c, w)) = t.fractions() {
                active += 1;
                assert!(
                    (p + c + w - 1.0).abs() < 1e-9,
                    "lane {} fractions sum to {}",
                    t.name,
                    p + c + w
                );
            }
        }
        assert!(active > 0, "a pooled 512^3 run must record spans");
        assert!(snap.total_phase_ns(TraceKind::Compute) > 0);

        let blocks = BlockSizes::custom(MR, NR, KC, MC, NC);
        let report = GemmReport::from_run((m, n, k), 1, 4, elapsed, &blocks, &snap);
        assert!(report.flops_counted, "counted flops must win over analytic");
        assert_eq!(report.flops, 2 * (m * n * k) as u64);
        assert!(report.gflops > 0.0);
        assert!(report.gamma_measured.is_some());
        assert!(report.gamma_model > 0.0);
        assert!((report.pack_frac + report.compute_frac + report.wait_frac - 1.0).abs() < 1e-9);

        // Both emission modes produce well-formed output for this run.
        let line = report.summary_line();
        assert!(
            line.contains("GFLOPS") && line.contains("512x512x512"),
            "{line}"
        );
        let json = report.to_json(&snap);
        assert!(json.starts_with("{\"schema\":\"dgemm-telem-v1\""), "{json}");
        assert!(json.contains("\"runtime\":{") && json.contains("\"threads_detail\":["));
        let doc = json::parse(&json).expect("the report is one JSON document");
        let calls = doc.get("calls").and_then(json::Value::as_u64);
        assert_eq!(calls, Some(report.calls), "{json}");

        // And the env faucet selects them (emit itself prints to stderr).
        std::env::set_var("DGEMM_TELEMETRY", "summary");
        assert_eq!(telemetry::mode_from_env(), Ok(TelemetryMode::Summary));
        telemetry::emit(&report, &snap);
        std::env::set_var("DGEMM_TELEMETRY", "json");
        assert_eq!(telemetry::mode_from_env(), Ok(TelemetryMode::Json));
        telemetry::emit(&report, &snap);
        std::env::remove_var("DGEMM_TELEMETRY");
        assert_eq!(telemetry::mode_from_env(), Ok(TelemetryMode::Off));
    }

    #[test]
    fn reset_zeroes_lanes_but_not_runtime_counters() {
        let _g = lock_and_reset();
        run(STREAMED, Parallelism::Pool(3), 96, 48, 40);
        let before = telemetry::snapshot();
        assert!(before.total_flops() > 0);
        assert!(before.runtime.tasks > 0, "pooled run must enqueue tasks");

        telemetry::reset();
        let after = telemetry::snapshot();
        assert_eq!(after.total_flops(), 0);
        assert_eq!(after.total_packed_a_bytes(), 0);
        assert_eq!(after.total_blocks(), 0);
        assert!(after.threads.iter().all(|t| t.trace.is_empty()));
        // Lifecycle counters survive: pool::status() reports since
        // process start.
        assert_eq!(after.runtime, before.runtime);
        let status = dgemm_core::pool::status();
        assert_eq!(status.epochs_served, after.runtime.epochs_served());
        assert_eq!(status.timeouts, after.runtime.timeouts);
    }
}

#[cfg(not(feature = "telemetry"))]
mod disabled {
    use super::*;
    use dgemm_core::telemetry::BlockSizes;
    use dgemm_core::telemetry::GemmReport;
    use std::time::Duration;

    #[test]
    fn recording_is_compiled_out_but_runtime_counters_remain() {
        let _g = lock_and_reset();
        assert!(!telemetry::enabled());
        run(STREAMED, Parallelism::Pool(3), 96, 48, 40);
        let snap = telemetry::snapshot();
        // No lanes, no counts: every recording site is a no-op.
        assert!(snap.threads.is_empty());
        assert_eq!(snap.total_flops(), 0);
        assert_eq!(snap.total_packed_a_bytes(), 0);
        // But the always-on pool lifecycle counters still work.
        assert!(snap.runtime.tasks > 0);
        assert!(snap.runtime.epochs_served() > 0);
        let status = dgemm_core::pool::status();
        assert_eq!(status.epochs_served, snap.runtime.epochs_served());

        // GemmReport falls back to the analytic FLOP count.
        let blocks = BlockSizes::custom(MR, NR, KC, MC, NC);
        let report =
            GemmReport::from_run((96, 48, 40), 1, 3, Duration::from_millis(5), &blocks, &snap);
        assert!(!report.flops_counted);
        assert_eq!(report.flops, 2 * 96 * 48 * 40);
        // The expected-counter arithmetic stays callable (and nonzero)
        // so enabling the feature changes measurements, not the suite.
        let (flops, ..) = expected(STREAMED, 96, 48, 40, 3);
        assert_eq!(flops, 2 * 96 * 48 * 40);
    }
}
