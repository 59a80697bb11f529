//! Fault-recovery acceptance for the pooled runtime, compiled only with
//! the `fault-injection` feature (`cargo test -p dgemm-core --features
//! fault-injection`). Each scenario provokes one concrete failure —
//! worker panic, worker death, spawn failure, allocation failure, a
//! stall before or after a job claims its cell, and a panic and each
//! allocation failure again in cells that have written C, under `β = 0`
//! and under `β ≠ 0` — and asserts the contract from DESIGN.md §10: the result is bit-identical
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
use dgemm_core::gemm::{try_gemm, BSource, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::{KernelSet, MicroKernelKind};
use dgemm_core::pool::{cell_grid, status, with_pool, Parallelism, PoolScalar, WorkerPool};
use dgemm_core::simd::Isa;
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

    // Fail one allocation at each successive site: the undo copy of C,
    // packed-A, packed-B. Every call must still produce the exact result
    // (smaller packing chunks inside the cell, or the cell restored from
    // its undo copy and recomputed straight on C). A serial call is one
    // cell with no undo copy: its packing degrades the same way.
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
/// failed pack halves its chunk, and one that cannot sends the cell to
/// the caller, straight onto C — either way nothing zeroes C first, and the
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

/// In-place cells: a call of one entry cut into one cell per thread on
/// `Pool(2)` and `Pool(4)`, each cell writing straight into its own tiles
/// of C ([`in_place_grid`]). `k` spans two `kc` panels, and `mc` is the
/// 8×6 kernel's `mr`: a cell is one-sliver blocks, six per panel in a
/// column cell and three in a row cell, and a block's A pack cannot be
/// halved.
const IN_PLACE: (usize, usize, usize) = (48, 144, 40);
const IN_PLACE_BLOCKS: (usize, usize, usize) = (24, 8, 144);
const IN_PLACE_TASKS: usize = IN_PLACE.0.div_ceil(IN_PLACE_BLOCKS.1);

/// `C := A·op(B) + β·C` at [`IN_PLACE`] on `par`, from `c0`, as bit
/// patterns, with B stored as `tb` says.
fn in_place_call(
    par: Parallelism,
    tb: Transpose,
    beta: f64,
    c0: &Matrix,
) -> Result<Vec<u64>, dgemm_core::GemmError> {
    let (m, n, k) = IN_PLACE;
    let (kc, mc, nc) = IN_PLACE_BLOCKS;
    let a = Matrix::random(m, k, 61);
    let b = match tb {
        Transpose::No => Matrix::random(k, n, 62),
        Transpose::Yes => Matrix::random(n, k, 62),
    };
    let mut c = c0.clone();
    let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1)
        .with_blocks(kc, mc, nc)
        .with_parallelism(par);
    try_gemm(
        Transpose::No,
        tb,
        1.0,
        &a.view(),
        &b.view(),
        beta,
        &mut c.view_mut(),
        &cfg,
    )?;
    Ok(c.as_slice().iter().map(|x| x.to_bits()).collect())
}

/// The C a `β = 0` call must not read: NaN and −0.0 alternating.
fn poisoned() -> Matrix {
    let (m, n, _) = IN_PLACE;
    Matrix::from_fn(m, n, |i, j| if (i + j) % 2 == 0 { f64::NAN } else { -0.0 })
}

/// The grid [`IN_PLACE`] is cut into on `Pool(degree)` with B stored as
/// `tb` says, whatever β is (its panels are too small for any L2 to
/// matter), and each cell's row tasks per panel. A packed B — transposed,
/// or on the portable kernel — splits the columns, each cell packing its
/// own; B read in place by a SIMD kernel splits the rows (and, on four
/// threads, the columns too), each cell packing half of A and no B.
fn in_place_grid(degree: usize, tb: Transpose) -> ((usize, usize), usize) {
    let (m, n, k) = IN_PLACE;
    let (kc, mc, _) = IN_PLACE_BLOCKS;
    let isa = KernelSet::isa(&MicroKernelKind::Mk8x6);
    let b = if tb == Transpose::No && isa > Isa::Portable {
        BSource::InPlace
    } else {
        BSource::Packed
    };
    let grid = cell_grid(m, n, k, kc, mc, 6, degree, b, isa, None);
    let want = match b {
        BSource::InPlace => (2, degree / 2),
        _ => (1, degree),
    };
    assert_eq!(grid, want, "Pool({degree}), {tb:?}");
    (grid, IN_PLACE_TASKS / grid.0)
}

/// A cell that panics after it has stored part of C is replayed straight
/// on C: under `β = 0` the replay's first `kk` panel stores every element
/// of the cell without reading it, so what the failed run left is
/// overwritten, to the bit of the serial call. The same panic in a
/// `β ≠ 0` call on the same grid hits a cell that has scaled and updated
/// its part of C too: it restores C from its undo copy before the replay.
#[test]
fn a_panicked_in_place_cell_is_overwritten_by_its_replay() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear();
    let want = in_place_call(Parallelism::Serial, Transpose::No, 0.0, &poisoned())
        .expect("no plan is installed");
    assert!(want.iter().all(|&x| f64::from_bits(x).is_finite()));
    let c0 = Matrix::random(IN_PLACE.0, IN_PLACE.1, 63);
    let want_beta =
        in_place_call(Parallelism::Serial, Transpose::No, 0.5, &c0).expect("no plan is installed");
    for p in [2, 4] {
        // a cell's blocks over the call: its row tasks in each of two panels
        let blocks = 2 * in_place_grid(p, Transpose::No).1 as u64;
        let pool = Parallelism::Pool(p);
        assert!(in_place_call(pool, Transpose::No, 0.0, &poisoned()).unwrap() == want);
        // The other p − 1 cells account for at most (p − 1)·blocks of the
        // panic site's occurrences, so the cell that reaches occurrence
        // (p − 1)·blocks + 1 has finished at least one block before it:
        // it has written C.
        let panic_after_a_block = Trigger::once((p as u64 - 1) * blocks + 1);
        for (beta, c0, want) in [(0.0, poisoned(), &want), (0.5, c0.clone(), &want_beta)] {
            let contained0 = status().faults_contained;
            faults::install(FaultPlan {
                worker_panic: Some(panic_after_a_block),
                ..FaultPlan::default()
            });
            let got = in_place_call(pool, Transpose::No, beta, &c0);
            faults::clear();
            let got = got.unwrap_or_else(|e| panic!("Pool({p}), β = {beta}: {e}"));
            assert!(
                got == *want,
                "Pool({p}), β = {beta}: the replay changed a bit"
            );
            assert!(
                status().faults_contained > contained0,
                "Pool({p}), β = {beta}: the panic was not contained"
            );
        }
        assert!(in_place_call(pool, Transpose::No, 0.0, &poisoned()).unwrap() == want);
    }
}

/// Each allocation of the in-place cells' call failed in turn. The cells
/// run one after the other on the calling thread — a fresh shard that can
/// spawn no worker — so the n-th allocation is known: per cell, under
/// `β ≠ 0` its undo copy of C first, then per `kk` panel the pack of its B
/// columns, where the call packs B, and the A pack of each of its blocks.
/// A transposed B read by six row groups is packed on every host; B as
/// stored only by the portable kernel, a SIMD one reading it in place
/// (DESIGN.md §19). A failed undo copy sends
/// the cell, which has not touched C, to the caller. A failed B pack
/// halves its chunk inside the cell. A failed A pack at `mc = mr` has no
/// smaller chunk, so the cell — which may have stored C already, and is
/// restored from its undo copy under `β ≠ 0` — is replayed by the caller:
/// one fault contained. Every result is the serial one, bit for bit.
#[test]
fn every_failed_allocation_of_an_in_place_cell_leaves_c_exact() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear();
    let portable = KernelSet::isa(&MicroKernelKind::Mk8x6) == Isa::Portable;
    for (tb, packs_b) in [(Transpose::Yes, true), (Transpose::No, portable)] {
        every_failed_allocation_leaves_c_exact(tb, packs_b);
    }
}

fn every_failed_allocation_leaves_c_exact(tb: Transpose, packs_b: bool) {
    let c0 = Matrix::random(IN_PLACE.0, IN_PLACE.1, 63);
    for (beta, c0) in [(0.0, poisoned()), (0.5, c0)] {
        let want = in_place_call(Parallelism::Serial, tb, beta, &c0).expect("no plan is installed");
        let undo = u64::from(beta != 0.0);
        for p in [2, 4] {
            let per_panel = u64::from(packs_b) + in_place_grid(p, tb).1 as u64;
            let per_cell = undo + 2 * per_panel;
            let shard = WorkerPool::new_shard("in-place-alloc");
            for nth in 0..per_cell * p as u64 {
                let contained0 = status().faults_contained;
                faults::install(FaultPlan {
                    spawn_fail: Some(Trigger {
                        nth: 0,
                        count: u64::MAX,
                    }),
                    alloc_fail: Some(Trigger::once(nth)),
                    ..FaultPlan::default()
                });
                let call = || in_place_call(Parallelism::Pool(p), tb, beta, &c0);
                let got = with_pool(&shard, call);
                faults::clear();
                let case = format!("Pool({p}), {tb:?}, β = {beta}: alloc fault #{nth}");
                let got = got.unwrap_or_else(|e| panic!("{case}: {e}"));
                assert!(got == want, "{case} changed a bit");
                let site = nth % per_cell;
                // a failed B pack halves its chunk; every other fault replays
                let b_pack = |s: u64| packs_b && s.is_multiple_of(per_panel);
                let replayed = site < undo || !b_pack(site - undo);
                assert_eq!(
                    status().faults_contained - contained0,
                    u64::from(replayed),
                    "{case}"
                );
            }
            assert_eq!(shard.workers(), 0, "the shard spawned a worker");
        }
    }
}

/// A batch whose `mc` blocks straddle entries: five 13-row entries
/// stacked into 65 rows, cut in 8-row blocks, on two threads — a row
/// split of 40 and 25 rows. The 4×4 kernel's 4-row slivers let a block's
/// pack halve once, and the halved chunk of rows 12..16 straddles too.
const ENTRIES: usize = 5;
const ROWS: usize = 13;

fn run_batch(par: Parallelism, beta: f64) -> Result<Vec<Matrix>, dgemm_core::GemmError> {
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
        beta,
        &mut views,
        &cfg,
    )?;
    drop(views);
    Ok(c)
}

/// The batch as a loop of single calls, one entry each: blocks that
/// never straddle anything.
fn loop_oracle(beta: f64) -> Vec<Matrix> {
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
                beta,
                &mut c.view_mut(),
                &cfg,
            )
            .expect("no plan is installed");
            c
        })
        .collect()
}

/// The cells are the row ranges 0..40 and 40..65, five and four blocks
/// deep, over three `kk` panels: in the first panel the one cell reaches
/// the panic site 15 times and the other 12. So the 17th block to start,
/// whichever cell runs it, belongs to a cell that has finished a block of
/// C. Under `β ≠ 0` that cell restores C from its undo copy, under `β = 0`
/// the replay stores over what it wrote; either way the replay, straight
/// on C, makes the loop's kernel calls.
#[test]
fn a_panicked_straddling_cell_is_replayed_on_c_bit_identically() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for beta in [0.5, 0.0] {
        let want = loop_oracle(beta);
        assert_eq!(run_batch(Parallelism::Pool(2), beta).unwrap(), want);
        let contained0 = status().faults_contained;
        faults::install(FaultPlan {
            worker_panic: Some(Trigger::once(16)),
            ..FaultPlan::default()
        });
        let got = run_batch(Parallelism::Pool(2), beta).expect("single panic must be contained");
        faults::clear();
        assert_eq!(
            got, want,
            "β = {beta}: the replay must make the loop's kernel calls"
        );
        assert!(status().faults_contained > contained0, "β = {beta}");
    }

    // When every block panics, replays included, the call names the
    // first stacked row of the last cell that failed: row 40 of the
    // stack, row 1 of entry 3.
    let want = loop_oracle(0.5);
    faults::install(FaultPlan {
        worker_panic: Some(Trigger {
            nth: 0,
            count: u64::MAX,
        }),
        ..FaultPlan::default()
    });
    let double = run_batch(Parallelism::Pool(2), 0.5);
    faults::clear();
    assert!(
        matches!(
            double,
            Err(dgemm_core::GemmError::WorkerFault { entry: 3, row0: 1 })
        ),
        "got {double:?}"
    );
    assert_eq!(run_batch(Parallelism::Pool(2), 0.5).unwrap(), want);
}

#[test]
fn a_failed_stacked_pack_degrades_to_halved_chunks_bit_identically() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let want = loop_oracle(0.5);
    let pack_a_spans = || {
        let snap = dgemm_core::telemetry::snapshot();
        let at = dgemm_core::telemetry::TraceKind::ALL
            .iter()
            .position(|p| *p == dgemm_core::telemetry::TraceKind::PackA)
            .unwrap();
        snap.threads.iter().map(|t| t.phase_hits[at]).sum::<u64>()
    };
    dgemm_core::telemetry::reset();
    assert_eq!(run_batch(Parallelism::Pool(2), 0.5).unwrap(), want);
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
        let got = run_batch(Parallelism::Pool(2), 0.5)
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
