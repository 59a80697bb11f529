//! Fault-recovery acceptance for the pooled runtime, compiled only with
//! the `fault-injection` feature (`cargo test -p dgemm-core --features
//! fault-injection`). Each scenario provokes one concrete failure —
//! worker panic, worker death, spawn failure, allocation failure, a
//! stall before or after a job claims its cell — and asserts the
//! contract from DESIGN.md §10: the result is bit-identical
//! to the serial oracle (or a typed error), the fault is visible in
//! [`dgemm_core::pool::status`], and the pool serves subsequent calls at
//! full capacity. `Parallelism::Serial` runs the same cell body with
//! nothing around it: it inherits the allocation-failure degrade, and the
//! panic site passes it over.
//!
//! Fault plans and the pool are process-global, so every test holds
//! `LOCK` for its whole body.

#![cfg(feature = "fault-injection")]

use std::sync::Mutex;
use std::time::{Duration, Instant};

use dgemm_core::faults::{self, FaultPlan, Trigger};
use dgemm_core::gemm::{try_gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::pool::{status, Parallelism, PoolScalar};
use dgemm_core::Transpose;

static LOCK: Mutex<()> = Mutex::new(());

const M: usize = 130;
const N: usize = 70;
const K: usize = 60;

fn cfg(par: Parallelism) -> GemmConfig {
    GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1)
        .with_blocks(24, 16, 18)
        .with_parallelism(par)
}

fn run(par: Parallelism) -> Result<Matrix, dgemm_core::GemmError> {
    let a = Matrix::random(M, K, 3);
    let b = Matrix::random(K, N, 4);
    let mut c = Matrix::random(M, N, 5);
    try_gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &b.view(),
        0.5,
        &mut c.view_mut(),
        &cfg(par),
    )?;
    Ok(c)
}

fn oracle() -> Matrix {
    faults::clear();
    run(Parallelism::Serial).expect("no plan is installed")
}

/// Wait (bounded) for an asynchronous pool-side counter change.
fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

#[test]
fn worker_panic_is_contained_and_result_is_bitwise_exact() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = oracle();

    // Warm the pool so the panic lands on a real worker thread.
    assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);
    let contained0 = status().faults_contained;

    faults::install(FaultPlan {
        worker_panic: Some(Trigger::once(1)),
        ..FaultPlan::default()
    });
    let got = run(Parallelism::Pool(4)).expect("single panic must be contained");
    faults::clear();

    assert_eq!(
        got.max_abs_diff(&want),
        0.0,
        "recovered block must replay the exact serial accumulation order"
    );
    assert!(
        status().faults_contained > contained0,
        "the contained panic must be visible in the pool health counters"
    );

    // Stream continues at full capacity afterwards.
    for _ in 0..3 {
        assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);
    }
}

#[test]
fn dead_worker_is_respawned_before_the_next_epoch() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = oracle();

    assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);
    let before = status();

    // Kill one worker after it completes a task: a clean thread death.
    // Which thread runs a job is the scheduler's call — on a loaded host
    // the help-draining caller can finish a call this small by itself —
    // so keep calling until a worker has taken one.
    faults::install(FaultPlan {
        worker_kill: Some(Trigger::once(0)),
        ..FaultPlan::default()
    });
    let killed = wait_until(|| {
        assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);
        status().deaths > before.deaths
    });
    faults::clear();
    assert!(killed, "the killed worker must be observed as dead");

    // The next pooled call's health check respawns it.
    assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);
    let after = status();
    assert!(
        after.respawns > before.respawns,
        "ensure_workers must replace the dead worker (respawns {} -> {})",
        before.respawns,
        after.respawns
    );
    assert!(
        after.workers_alive >= before.workers_alive,
        "the pool must be back at full capacity ({} -> {})",
        before.workers_alive,
        after.workers_alive
    );
}

#[test]
fn spawn_failure_degrades_to_caller_execution() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = oracle();
    let failures0 = status().spawn_failures;

    // Fail every spawn attempt for the whole call: if the pool is cold
    // this exercises the no-workers path (caller drains the queue); if
    // it is warm the plan simply never fires. Either way the result must
    // be exact. Ask for more workers than are alive so at least one
    // spawn is attempted.
    faults::install(FaultPlan {
        spawn_fail: Some(Trigger {
            nth: 0,
            count: u64::MAX,
        }),
        ..FaultPlan::default()
    });
    let alive = status().workers_alive;
    let got = run(Parallelism::Pool(alive + 3)).expect("spawn failure is not an error");
    faults::clear();

    assert_eq!(got.max_abs_diff(&want), 0.0);
    assert!(
        status().spawn_failures > failures0,
        "the failed spawn must be counted"
    );

    // With the plan cleared, growth works again.
    assert_eq!(
        run(Parallelism::Pool(alive + 3))
            .unwrap()
            .max_abs_diff(&want),
        0.0
    );
}

#[test]
fn allocation_failure_degrades_gracefully() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = oracle();

    // Fail one allocation at each successive site: staging, packed-A,
    // packed-B. Every call must still produce the exact result (smaller
    // packing chunks inside the cell, or the cell recomputed straight on
    // C without staging). A serial call is one cell with no staging: its
    // packing degrades the same way.
    for par in [Parallelism::Pool(4), Parallelism::Serial] {
        for nth in 0..6 {
            faults::install(FaultPlan {
                alloc_fail: Some(Trigger::once(nth)),
                ..FaultPlan::default()
            });
            let got = run(par)
                .unwrap_or_else(|e| panic!("{par:?}: alloc fault #{nth} must degrade, got {e}"));
            assert_eq!(
                got.max_abs_diff(&want),
                0.0,
                "{par:?}: alloc fault #{nth} must not change the result"
            );
        }
    }

    // When not even the smallest chunk can be had, a serial call says so
    // in its result; nothing in it packs infallibly.
    faults::install(FaultPlan {
        alloc_fail: Some(Trigger {
            nth: 0,
            count: u64::MAX,
        }),
        ..FaultPlan::default()
    });
    let starved = run(Parallelism::Serial);
    faults::clear();
    assert!(
        matches!(starved, Err(dgemm_core::GemmError::AllocFailure { .. })),
        "a serial call that cannot pack must report it, got {starved:?}"
    );
    for par in [Parallelism::Pool(4), Parallelism::Serial] {
        assert_eq!(run(par).unwrap().max_abs_diff(&want), 0.0);
    }
}

/// β = 0 into a NaN-filled C under each allocation fault in turn: a
/// failed staging buffer sends the cell straight onto C, and a failed
/// pack halves its chunk — either way nothing zeroes C first, and the
/// first `kk` panel's kernels must store every element of it, to the bit
/// of the fault-free call. (Fault plans are process-wide, so this case
/// lives here, under `LOCK`, and not in the concurrently run conformance
/// suite.)
#[test]
fn allocation_failure_under_beta_zero_still_overwrites_poisoned_c() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear();
    let a = Matrix::random(M, K, 3);
    let b = Matrix::random(K, N, 4);
    let run = |par: Parallelism| {
        let mut c = Matrix::from_fn(M, N, |i, j| if (i + j) % 2 == 0 { f64::NAN } else { -0.0 });
        let cfg = cfg(par);
        try_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &cfg,
        )
        .map(|()| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
    };
    let want = run(Parallelism::Serial).expect("no plan is installed");
    assert!(want.iter().all(|&x| f64::from_bits(x).is_finite()));
    for par in [
        Parallelism::Pool(4),
        Parallelism::Pool(1),
        Parallelism::Serial,
    ] {
        for nth in 0..8 {
            faults::install(FaultPlan {
                alloc_fail: Some(Trigger::once(nth)),
                ..FaultPlan::default()
            });
            let got = run(par);
            faults::clear();
            let got = got.unwrap_or_else(|e| panic!("{par:?}: alloc fault #{nth}: {e}"));
            assert!(got == want, "{par:?}: alloc fault #{nth} changed a bit");
        }
    }
}

/// `panic_in_job` is a pool-job site. A serial call runs the cell body
/// with nothing around it to catch a panic, so an armed plan neither
/// fires there nor counts its blocks: the next pooled call still meets
/// the fault, at the occurrence the plan names.
#[test]
fn an_armed_worker_panic_passes_over_a_serial_call() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = oracle();
    assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);
    let contained0 = status().faults_contained;

    faults::install(FaultPlan {
        worker_panic: Some(Trigger::once(1)),
        ..FaultPlan::default()
    });
    let serial = run(Parallelism::Serial).expect("nothing fires on the uncontained route");
    assert_eq!(serial.max_abs_diff(&want), 0.0);
    assert_eq!(status().faults_contained, contained0);
    let pooled = run(Parallelism::Pool(4)).expect("single panic must be contained");
    faults::clear();

    assert_eq!(pooled.max_abs_diff(&want), 0.0);
    assert!(
        status().faults_contained > contained0,
        "the serial call used the plan up"
    );
}

/// A worker panic during an epoch served from a *cached* pre-packed
/// panel: containment must replay the block bit-identically (against
/// the same cached panels, which the fault cannot have touched), and the
/// fault must neither evict nor invalidate the cache entry — the panels
/// are immutable and blameless.
#[test]
fn worker_panic_on_cached_panel_preserves_the_entry() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = oracle();
    let cache = f64::pack_cache();

    // Stable operands across calls: the cache keys on B's address.
    let a = Matrix::random(M, K, 3);
    let b = Matrix::random(K, N, 4);
    cache.invalidate(&b.view());
    let cached = cfg(Parallelism::Pool(4)).with_pack_cache(true);
    let run_cached = || -> Result<Matrix, dgemm_core::GemmError> {
        let mut c = Matrix::random(M, N, 5);
        try_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.5,
            &mut c.view_mut(),
            &cached,
        )?;
        Ok(c)
    };

    // Warm both the pool and the cache (first call misses + inserts).
    assert_eq!(run_cached().unwrap().max_abs_diff(&want), 0.0);
    let len0 = cache.len();
    let s0 = cache.stats();
    assert!(len0 >= 1, "warm call must have inserted the entry");
    let contained0 = status().faults_contained;

    faults::install(FaultPlan {
        worker_panic: Some(Trigger::once(1)),
        ..FaultPlan::default()
    });
    let got = run_cached().expect("a panic on a cached-panel epoch must be contained");
    faults::clear();

    assert_eq!(
        got.max_abs_diff(&want),
        0.0,
        "the recovered block must replay the exact serial accumulation order"
    );
    assert!(
        status().faults_contained > contained0,
        "the contained panic must be visible in the pool health counters"
    );
    let s1 = cache.stats();
    assert_eq!(cache.len(), len0, "the fault must not evict the entry");
    assert_eq!(s1.evictions, s0.evictions);
    assert_eq!(s1.invalidations, s0.invalidations);
    assert!(
        s1.hits > s0.hits,
        "the faulted call still served from cache"
    );

    // The cached stream continues, hitting and exact.
    for _ in 0..3 {
        assert_eq!(run_cached().unwrap().max_abs_diff(&want), 0.0);
    }
    assert!(cache.stats().hits >= s1.hits + 3);
    cache.invalidate(&b.view());
}

/// A batch whose `mc` blocks straddle entries: five 13-row entries
/// stacked into 65 rows, cut in 8-row blocks, on two threads — a row
/// split of 40 and 25 rows. The 4×4 kernel's 4-row slivers let a block's
/// pack halve once, and the halved chunk of rows 12..16 straddles too.
const ENTRIES: usize = 5;
const ROWS: usize = 13;

fn run_batch(par: Parallelism) -> Result<Vec<Matrix>, dgemm_core::GemmError> {
    let a: Vec<Matrix> = (0..ENTRIES)
        .map(|i| Matrix::random(ROWS, K, 30 + i as u64))
        .collect();
    let a: Vec<_> = a.iter().map(Matrix::view).collect();
    let b = Matrix::random(K, N, 4);
    let mut c: Vec<Matrix> = (0..ENTRIES)
        .map(|i| Matrix::random(ROWS, N, 50 + i as u64))
        .collect();
    let mut views: Vec<_> = c.iter_mut().map(Matrix::view_mut).collect();
    let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk4x4, 1)
        .with_blocks(24, 8, 18)
        .with_parallelism(par);
    dgemm_core::batch::gemm_batch_shared_b(
        1.0,
        &a,
        Transpose::No,
        &b.view(),
        0.5,
        &mut views,
        &cfg,
    )?;
    drop(views);
    Ok(c)
}

/// The batch as a loop of single calls, one entry each: blocks that
/// never straddle anything.
fn loop_oracle() -> Vec<Matrix> {
    faults::clear();
    let b = Matrix::random(K, N, 4);
    let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk4x4, 1).with_blocks(24, 8, 18);
    (0..ENTRIES)
        .map(|i| {
            let a = Matrix::random(ROWS, K, 30 + i as u64);
            let mut c = Matrix::random(ROWS, N, 50 + i as u64);
            let (ta, tb) = (Transpose::No, Transpose::No);
            try_gemm(
                ta,
                tb,
                1.0,
                &a.view(),
                &b.view(),
                0.5,
                &mut c.view_mut(),
                &cfg,
            )
            .expect("no plan is installed");
            c
        })
        .collect()
}

#[test]
fn a_panicked_straddling_cell_is_replayed_on_c_bit_identically() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = loop_oracle();
    assert_eq!(run_batch(Parallelism::Pool(2)).unwrap(), want);
    let contained0 = status().faults_contained;

    // the replay runs straight on C, its blocks cut where entries meet
    faults::install(FaultPlan {
        worker_panic: Some(Trigger::once(1)),
        ..FaultPlan::default()
    });
    let got = run_batch(Parallelism::Pool(2)).expect("single panic must be contained");
    faults::clear();
    assert_eq!(got, want, "the replay must make the loop's kernel calls");
    assert!(status().faults_contained > contained0);

    // When every block panics, replays included, the call names the
    // first stacked row of the last cell that failed: row 40 of the
    // stack, row 1 of entry 3.
    faults::install(FaultPlan {
        worker_panic: Some(Trigger {
            nth: 0,
            count: u64::MAX,
        }),
        ..FaultPlan::default()
    });
    let double = run_batch(Parallelism::Pool(2));
    faults::clear();
    assert!(
        matches!(
            double,
            Err(dgemm_core::GemmError::WorkerFault { entry: 3, row0: 1 })
        ),
        "got {double:?}"
    );
    assert_eq!(run_batch(Parallelism::Pool(2)).unwrap(), want);
}

#[test]
fn a_failed_stacked_pack_degrades_to_halved_chunks_bit_identically() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = loop_oracle();
    let pack_a_spans = || {
        let snap = dgemm_core::telemetry::snapshot();
        let at = dgemm_core::telemetry::TraceKind::ALL
            .iter()
            .position(|p| *p == dgemm_core::telemetry::TraceKind::PackA)
            .unwrap();
        snap.threads.iter().map(|t| t.phase_hits[at]).sum::<u64>()
    };
    dgemm_core::telemetry::reset();
    assert_eq!(run_batch(Parallelism::Pool(2)).unwrap(), want);
    let clean = pack_a_spans();

    // Which allocation comes n-th depends on how the two threads
    // interleave, so fail each in turn: every one must leave the result
    // exact. One that hit a block's A pack is recovered inside its cell —
    // no replay — by packing the block in two halves: one PackA span more.
    let mut halved = 0;
    for nth in 0..24 {
        faults::install(FaultPlan {
            alloc_fail: Some(Trigger::once(nth)),
            ..FaultPlan::default()
        });
        dgemm_core::telemetry::reset();
        let contained0 = status().faults_contained;
        let got = run_batch(Parallelism::Pool(2))
            .unwrap_or_else(|e| panic!("alloc fault #{nth} must degrade, got {e}"));
        faults::clear();
        assert_eq!(got, want, "alloc fault #{nth} must not change the result");
        if status().faults_contained == contained0 && pack_a_spans() == clean + 1 {
            halved += 1;
        }
    }
    if cfg!(feature = "telemetry") {
        assert!(halved > 0, "no failed A pack was halved");
    }
}

#[test]
fn slow_worker_trips_the_watchdog_but_c_is_recovered() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = oracle();

    // Warm the pool so a worker thread (not the help-draining caller)
    // picks up jobs and can stall.
    assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);

    faults::install(FaultPlan {
        slow_worker: Some((Trigger::once(0), Duration::from_millis(200))),
        ..FaultPlan::default()
    });
    let a = Matrix::random(M, K, 3);
    let b = Matrix::random(K, N, 4);
    let mut c = Matrix::random(M, N, 5);
    let cfg = cfg(Parallelism::Pool(4)).with_epoch_timeout(Some(Duration::from_millis(25)));
    let result = try_gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &b.view(),
        0.5,
        &mut c.view_mut(),
        &cfg,
    );
    faults::clear();

    // The watchdog either fired (timeout reported, missing blocks
    // recomputed serially) or the stall was absorbed by help-draining;
    // in both cases C holds the exact product.
    match result {
        Ok(()) => {}
        Err(dgemm_core::GemmError::EpochTimeout { missing_blocks, .. }) => {
            assert!(missing_blocks > 0, "a timeout must name its lost blocks");
        }
        Err(e) => panic!("unexpected error from a slow worker: {e}"),
    }
    assert_eq!(
        c.max_abs_diff(&want),
        0.0,
        "every block must be recovered bit-identically after a stall"
    );

    // Let the stalled worker wake up, then confirm the stream continues.
    std::thread::sleep(Duration::from_millis(250));
    for _ in 0..3 {
        assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);
    }
}

/// What the borrow gate exists for, made observable. A job that stalls
/// *before* it claims its cell loses the cell to the watchdog: the call
/// returns at the deadline, not after the stall, with the exact product
/// and a timeout naming the cells it took back. The operands are then
/// freed while the worker still sleeps; when it wakes it finds the call
/// gone, touches nothing, and is counted as a late job.
#[test]
fn a_job_that_wakes_after_its_call_returned_touches_nothing() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = oracle();
    assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);

    let stall = Duration::from_millis(200);
    let cfg = cfg(Parallelism::Pool(4)).with_epoch_timeout(Some(Duration::from_millis(25)));
    let late0 = status().late_jobs;
    let mut taken_back = 0;
    // Which thread takes a job is the scheduler's call: repeat until a
    // worker (not the help-draining caller) took the one that stalls.
    let stalled = wait_until(|| {
        faults::install(FaultPlan {
            slow_worker: Some((Trigger::once(0), stall)),
            ..FaultPlan::default()
        });
        let a = Matrix::random(M, K, 3);
        let b = Matrix::random(K, N, 4);
        let mut c = Matrix::random(M, N, 5);
        let (ta, tb) = (Transpose::No, Transpose::No);
        let t0 = Instant::now();
        let result = try_gemm(
            ta,
            tb,
            1.0,
            &a.view(),
            &b.view(),
            0.5,
            &mut c.view_mut(),
            &cfg,
        );
        let elapsed = t0.elapsed();
        faults::clear();
        assert_eq!(c.max_abs_diff(&want), 0.0, "C must be exact either way");
        match result {
            Ok(()) => false,
            Err(dgemm_core::GemmError::EpochTimeout { missing_blocks, .. }) => {
                assert!(missing_blocks > 0, "a timeout must name its lost blocks");
                assert!(
                    elapsed < Duration::from_millis(150),
                    "the call waited {elapsed:?} for a cell it could take back"
                );
                taken_back = missing_blocks as u64;
                true
            }
            Err(e) => panic!("unexpected error from a slow worker: {e}"),
        }
        // a, b and c are freed here, with the worker still asleep
    });
    assert!(stalled, "no worker ever took the stalling job");

    // Every cell taken back had one job; each comes late and is turned away.
    assert!(
        wait_until(|| status().late_jobs >= late0 + taken_back),
        "late jobs {} -> {}, {taken_back} cells taken back",
        late0,
        status().late_jobs
    );
    assert_eq!(status().late_jobs, late0 + taken_back);
    for _ in 0..3 {
        assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);
    }
}

/// A job that stalls *after* the claim holds live borrows of the
/// operands: the watchdog cannot take its cell back, so the call lasts
/// as long as the stall — and reports missing only cells it did take
/// back, each of which it recomputed.
#[test]
fn a_stall_inside_a_claimed_cell_delays_the_call_instead() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = oracle();
    assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);

    let stall = Duration::from_millis(120);
    let cfg = cfg(Parallelism::Pool(4)).with_epoch_timeout(Some(Duration::from_millis(25)));
    let held = wait_until(|| {
        let contained0 = status().faults_contained;
        faults::install(FaultPlan {
            cell_stall: Some((Trigger::once(0), stall)),
            ..FaultPlan::default()
        });
        let a = Matrix::random(M, K, 3);
        let b = Matrix::random(K, N, 4);
        let mut c = Matrix::random(M, N, 5);
        let (ta, tb) = (Transpose::No, Transpose::No);
        let t0 = Instant::now();
        let result = try_gemm(
            ta,
            tb,
            1.0,
            &a.view(),
            &b.view(),
            0.5,
            &mut c.view_mut(),
            &cfg,
        );
        let elapsed = t0.elapsed();
        faults::clear();
        assert_eq!(c.max_abs_diff(&want), 0.0, "C must be exact either way");
        let missing = match result {
            Ok(()) => 0,
            Err(dgemm_core::GemmError::EpochTimeout { missing_blocks, .. }) => missing_blocks,
            Err(e) => panic!("unexpected error from a stalled cell: {e}"),
        };
        assert_eq!(
            status().faults_contained - contained0,
            missing as u64,
            "cells recomputed and cells reported missing differ"
        );
        // the stall fired on a worker iff the call outlasted it
        elapsed >= stall
    });
    assert!(held, "no worker ever took a job that stalls in its cell");
    for _ in 0..3 {
        assert_eq!(run(Parallelism::Pool(4)).unwrap().max_abs_diff(&want), 0.0);
    }
}
