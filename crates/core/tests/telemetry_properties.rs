//! Property tests for the telemetry layer: counters must be *exact*,
//! not approximate. FLOPs retired must equal `2·m·n·k` for every
//! runtime, and packed-byte counters must reproduce the padded-buffer
//! arithmetic of `pack.rs` (`ceil(mc/mr)·mr·kc` slivers of A,
//! `ceil(nc/nr)·nr·kc` slivers of B) summed over the exact macro-loop
//! decomposition each runtime performs: the serial walk packs every
//! block of A and every panel of B once; on the pool every cell of the
//! grid packs its own, so A is packed once per column chunk and B once
//! per row range. B bytes are *packed* bytes only where a pack ran: a
//! call with a single `mc` block reads B in place on either runtime, and
//! the same elements show up, unpadded, as in-place bytes.
//!
//! Telemetry counters are process-global, so every test serializes on
//! one lock and starts from `telemetry::reset()`.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use dgemm_core::batch::gemm_batch_shared_b;
use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::pool::{cell_grid, Parallelism};
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

const KIND: MicroKernelKind = MicroKernelKind::Mk8x6;
const MR: usize = 8;
const NR: usize = 6;
const KC: usize = 20;
const MC: usize = 24;
const NC: usize = 16;

fn cfg(par: Parallelism) -> GemmConfig {
    GemmConfig::for_kernel(KIND, 1)
        .with_blocks(KC, MC, NC)
        .with_parallelism(par)
}

fn run(par: Parallelism, m: usize, n: usize, k: usize) {
    let a = Matrix::random(m, k, 11);
    let b = Matrix::random(k, n, 12);
    let mut c = Matrix::zeros(m, n);
    gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &b.view(),
        0.0,
        &mut c.view_mut(),
        &cfg(par),
    );
}

/// Expected exact counters for one GEMM, replicating the macro loops:
/// `jj` over `nc` panels, `kk` over `kc` depths, then `mc` blocks of A
/// over the `m` rows — once for the serial walk, and on the pool once
/// per cell of the panel's grid ([`cell_grid`]; one cell at degree 1):
/// every column chunk packs the blocks of A, every row range the panel of
/// B, and a GEBP runs per block and chunk. A call with a single `mc`
/// block reads B where the caller stored it: its bytes are then the
/// `kc·nc` elements the GEBPs consumed, not a padded panel.
/// Returns `(flops, a_bytes, [packed_b_bytes, b_in_place_bytes], blocks)`.
fn expected(m: usize, n: usize, k: usize, degree: usize) -> (u64, u64, [u64; 2], u64) {
    let w = core::mem::size_of::<f64>() as u64;
    let b_in_place = m <= MC;
    let (mut flops, mut a_bytes, mut b_bytes, mut blocks) = (0u64, 0u64, [0u64; 2], 0u64);
    let mut jj = 0;
    while jj < n {
        let nc_eff = NC.min(n - jj);
        let (row_ranges, col_chunks) = cell_grid(m, 1, nc_eff, MC, NR, degree, !b_in_place);
        let (row_ranges, col_chunks) = (row_ranges as u64, col_chunks as u64);
        let mut kk = 0;
        while kk < k {
            let kc_eff = KC.min(k - kk);
            if !b_in_place {
                // chunks are whole slivers, so they pad as the panel does
                b_bytes[0] += row_ranges * (nc_eff.div_ceil(NR) * NR * kc_eff) as u64 * w;
            }
            let mut ii = 0;
            while ii < m {
                let mc_eff = MC.min(m - ii);
                a_bytes += col_chunks * (mc_eff.div_ceil(MR) * MR * kc_eff) as u64 * w;
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
    use dgemm_core::telemetry::{BlockSizes, GemmReport, TelemetryMode, TraceEvent, TraceKind};

    fn check(par: Parallelism, m: usize, n: usize, k: usize) {
        run(par, m, n, k);
        let snap = telemetry::snapshot();
        // the one shape class that skips the B pack
        let b_in_place = m <= MC;
        let (flops, a_bytes, b_bytes, blocks) = expected(m, n, k, par.degree());
        assert_eq!(flops, 2 * (m * n * k) as u64, "blocks must cover mnk");
        assert_eq!(snap.total_flops(), flops, "{par:?} {m}x{n}x{k}: flops");
        assert_eq!(
            snap.total_packed_a_bytes(),
            a_bytes,
            "{par:?} {m}x{n}x{k}: packed-A bytes"
        );
        assert_eq!(
            [snap.total_packed_b_bytes(), snap.total_b_in_place_bytes()],
            b_bytes,
            "{par:?} {m}x{n}x{k}: [packed, in-place] B bytes"
        );
        let pack_b = TraceKind::ALL
            .iter()
            .position(|p| *p == TraceKind::PackB)
            .unwrap();
        let pack_b_spans: u64 = snap.threads.iter().map(|t| t.phase_hits[pack_b]).sum();
        assert_eq!(
            pack_b_spans == 0,
            b_in_place,
            "{par:?} {m}x{n}x{k}: a PackB span iff a pack"
        );
        assert_eq!(
            snap.total_blocks(),
            blocks,
            "{par:?} {m}x{n}x{k}: gebp blocks"
        );
    }

    #[test]
    fn serial_counters_are_exact() {
        // 13, 24 (= mc) and 1 row are single-block shapes: B in place
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
            check(Parallelism::Serial, m, n, k);
        }
    }

    #[test]
    fn the_pool_reads_b_in_place_on_single_block_shapes() {
        // A cell with one block of A has no second GEBP to reuse a pack
        // of its columns either: same predicate, same counters, A packed
        // once per column chunk.
        let _g = lock_and_reset();
        check(Parallelism::Pool(3), 13, 33, 41);
    }

    /// The call the benchmark's `skinny_fresh` makes, under the default
    /// blocking, by its exact counters: nothing written into a packed
    /// panel, every B element read once in place, A packed as before —
    /// and the pool's two column cells doing the same on half the
    /// columns each (A packed by both), into the same bits of C. A serial
    /// batch runs the plan the dispatcher prices for it, too, on its rows
    /// stacked: of one entry, this very call; of as many as fit one `mc`
    /// block, one GEBP reading B in place; of one more, two blocks
    /// sharing one pack of the one `(jj, kk)` panel.
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
        let run = |par: Parallelism| {
            let mut c = Matrix::zeros(m, n);
            telemetry::reset();
            let (ta, tb) = (Transpose::No, Transpose::No);
            let cfg = GemmConfig::default().with_parallelism(par);
            gemm(
                ta,
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

        let (batch_of_one, counts) = run_batch(1);
        assert_eq!(counts, serial_counts);
        assert_eq!(batch_of_one[0].as_slice(), in_place.as_slice());
        // stacked, entries whose rows fit one mc block are one GEBP that
        // reads B in place; one entry more is two blocks sharing one pack
        // of the panel
        let mc = GemmConfig::default().blocks.mc;
        let one_panel = (n.div_ceil(NR) * NR * k * 8) as u64;
        for entries in [4, 8, mc / m, mc / m + 1] {
            let (batch, counts) = run_batch(entries);
            let e = entries as u64;
            let (packed_b, b_in_place) = if entries * m <= mc {
                (0, 512 * 512 * 8)
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
        for (par, m, n, k) in [
            (Parallelism::Pool(3), 130, 70, 50),
            (Parallelism::Pool(3), 96, 33, 41),
            (Parallelism::Pool(2), 25, 70, 50),
            (Parallelism::Pool(1), 130, 70, 50),
        ] {
            let _g = lock_and_reset();
            check(par, m, n, k);
        }
        assert_eq!(cell_grid(130, 1, NC, MC, NR, 3, true), (3, 1));
        assert_eq!(cell_grid(25, 1, NC, MC, NR, 2, true), (1, 2));
    }

    /// Figure 9, observed: on the pool every thread that computes packs
    /// for itself. And on either runtime the calling thread's stream
    /// attributes the call exclusively: in the fastest of ten calls its
    /// pack, compute and barrier spans never overlap (watchdog and
    /// recovery would nest them) and sum to at least 90 % of the wall
    /// time, which they cannot exceed.
    #[test]
    fn every_pooled_lane_packs_its_own_operands() {
        let _g = lock_and_reset();
        let n = 512;
        let a = Matrix::random(n, n, 71);
        let b = Matrix::random(n, n, 72);
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
                    Transpose::No,
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
                                && t.phase_time(TraceKind::PackB) > 0,
                            "{par:?}: lane {} computed a cell it did not pack for",
                            t.name
                        );
                        packed += u64::from(t.packed_a_bytes > 0 && t.packed_b_bytes > 0);
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
        run(Parallelism::Pool(4), m, n, k);
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
        assert_eq!(json.matches('{').count(), json.matches('}').count());

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
        run(Parallelism::Pool(3), 96, 48, 40);
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
        run(Parallelism::Pool(3), 96, 48, 40);
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
        let (flops, ..) = expected(96, 48, 40, 3);
        assert_eq!(flops, 2 * 96 * 48 * 40);
    }
}
