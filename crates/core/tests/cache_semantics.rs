//! Semantics of the pre-packed-B cache: exact accounting, the LRU
//! capacity bound, the coherence contract (stale-by-design until
//! invalidated), and concurrent sharing.
//!
//! Every test that touches the process-wide `f64` cache or the global
//! telemetry counters takes [`LOCK`] first: the accounting assertions
//! here are *exact*, which is only meaningful when no other test is
//! moving the counters concurrently. (The per-instance tests on local
//! [`PackCache`]s still take it, because local caches mirror their
//! events into the same global telemetry counters.)

use std::sync::Mutex;

use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::pool::PoolScalar;
use dgemm_core::prepack::{CacheStats, PackCache};
use dgemm_core::telemetry;
use dgemm_core::{Parallelism, Transpose};

/// Serializes every test in this binary (see module docs).
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small cached configuration (serial: the runtime is irrelevant to
/// the accounting, and serial keeps the counters deterministic).
fn cached_cfg() -> GemmConfig {
    GemmConfig::default()
        .with_blocks(8, 16, 12)
        .with_pack_cache(true)
}

fn run_gemm(a: &Matrix, b: &Matrix, c0: &Matrix, cfg: &GemmConfig) -> Matrix {
    let mut c = c0.clone();
    gemm(
        Transpose::No,
        Transpose::No,
        1.5,
        &a.view(),
        &b.view(),
        -0.5,
        &mut c.view_mut(),
        cfg,
    );
    c
}

fn stats_delta(after: CacheStats, before: CacheStats) -> (u64, u64, u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.evictions - before.evictions,
        after.invalidations - before.invalidations,
        after.bytes_saved - before.bytes_saved,
    )
}

/// The transparent GEMM path moves the per-cache stats and the global
/// telemetry counters in lockstep, one lookup per call: miss on first
/// use, hit on every repeat, invalidation on cleanup.
#[test]
fn gemm_accounting_matches_telemetry_exactly() {
    let _g = lock();
    let cache = f64::pack_cache();
    let a = Matrix::random(24, 20, 1);
    let b = Matrix::random(20, 22, 2);
    let c0 = Matrix::random(24, 22, 3);
    cache.invalidate(&b.view()); // scrub any aliased leftover

    telemetry::reset();
    let s0 = cache.stats();
    let t0 = telemetry::snapshot().cache;
    assert_eq!(t0, Default::default(), "reset() must zero cache counters");

    let cfg = cached_cfg();
    run_gemm(&a, &b, &c0, &cfg); // miss + insert
    run_gemm(&a, &b, &c0, &cfg); // hit
    run_gemm(&a, &b, &c0, &cfg); // hit
    let removed = cache.invalidate(&b.view());
    assert_eq!(removed, 1, "exactly the one entry for b");

    let (hits, misses, evictions, invalidations, bytes_saved) = stats_delta(cache.stats(), s0);
    assert_eq!((hits, misses), (2, 1));
    assert_eq!(evictions, 0);
    assert_eq!(invalidations, 1);
    assert!(bytes_saved > 0, "hits must bank the re-pack they avoided");

    let t = telemetry::snapshot().cache;
    assert_eq!(
        (
            t.hits,
            t.misses,
            t.evictions,
            t.invalidations,
            t.bytes_saved
        ),
        (hits, misses, evictions, invalidations, bytes_saved),
        "global telemetry must mirror the per-cache stats exactly"
    );
}

/// A local cache under churn never exceeds its byte capacity, evicts
/// strictly least-recently-used, and mirrors each eviction into the
/// global telemetry counters.
#[test]
fn lru_bound_holds_under_churn() {
    let _g = lock();
    telemetry::reset();

    // size one entry, then allow three of them
    let probe: Matrix = Matrix::random(16, 12, 10);
    let sizer: PackCache = PackCache::new();
    let entry_bytes = sizer
        .get_or_pack(&probe.view(), Transpose::No, 6, 8, 8)
        .unwrap()
        .bytes();
    let cache: PackCache = PackCache::with_capacity(3 * entry_bytes);

    // keep the matrices alive so no address is ever reused mid-test
    let mats: Vec<Matrix> = (0..12).map(|i| Matrix::random(16, 12, 100 + i)).collect();
    for m in &mats {
        cache
            .get_or_pack(&m.view(), Transpose::No, 6, 8, 8)
            .unwrap();
        assert!(
            cache.bytes() <= cache.capacity(),
            "capacity bound violated: {} > {}",
            cache.bytes(),
            cache.capacity()
        );
        assert!(cache.len() <= 3);
    }
    assert_eq!(cache.len(), 3);
    let s = cache.stats();
    assert_eq!(s.misses, 12);
    assert_eq!(s.evictions, 9, "12 inserts into 3 slots evict 9");

    // LRU order: the survivors are exactly the three most recent...
    for (i, m) in mats.iter().enumerate().skip(9) {
        let before = cache.stats().hits;
        cache
            .get_or_pack(&m.view(), Transpose::No, 6, 8, 8)
            .unwrap();
        assert!(
            cache.stats().hits > before,
            "entry {i} should have survived"
        );
    }
    // ...and an early entry is long gone (probing it re-packs)
    let before = cache.stats().misses;
    cache
        .get_or_pack(&mats[0].view(), Transpose::No, 6, 8, 8)
        .unwrap();
    assert_eq!(
        cache.stats().misses,
        before + 1,
        "entry 0 should be evicted"
    );

    let t = telemetry::snapshot().cache;
    assert!(t.evictions >= 9, "local evictions must reach telemetry");
}

/// The documented staleness rule, exercised through the aliasing that
/// motivates it: mutating B in place leaves the entry stale by design;
/// `invalidate` (same pointer) forces the re-pack.
#[test]
fn mutated_b_is_stale_until_invalidated() {
    let _g = lock();
    let cache = f64::pack_cache();
    let a = Matrix::random(20, 16, 20);
    let mut b = Matrix::random(16, 18, 21);
    let c0 = Matrix::random(20, 18, 22);
    cache.invalidate(&b.view());

    let cfg = cached_cfg();
    let uncached_cfg = cfg.with_pack_cache(false);

    let before = run_gemm(&a, &b, &c0, &cfg); // packs + caches b
    b.set(0, 0, b.get(0, 0) + 100.0); // in-place mutation, same pointer

    let fresh = run_gemm(&a, &b, &c0, &uncached_cfg);
    let stale = run_gemm(&a, &b, &c0, &cfg);
    assert_eq!(
        stale.view().data(),
        before.view().data(),
        "without invalidation the cache must serve the old panels"
    );
    assert!(
        stale.max_abs_diff(&fresh) > 1.0,
        "test is vacuous: mutation did not change the product"
    );

    assert_eq!(cache.invalidate(&b.view()), 1);
    let repacked = run_gemm(&a, &b, &c0, &cfg);
    assert_eq!(
        repacked.view().data(),
        fresh.view().data(),
        "after invalidation the re-pack must see the mutation"
    );
    cache.invalidate(&b.view());
}

/// N concurrent GEMMs against one weight matrix: the first lookup
/// packs (under the cache lock), the other N−1 hit and share the same
/// panels — and every result is bit-identical to the uncached serial
/// run.
#[test]
fn concurrent_gemms_share_one_entry_bit_identically() {
    let _g = lock();
    let cache = f64::pack_cache();
    let threads = 4;
    let a = Matrix::random(40, 32, 40);
    let b = Matrix::random(32, 36, 41);
    let c0 = Matrix::random(40, 36, 42);
    cache.invalidate(&b.view());

    let cfg = cached_cfg();
    let want = run_gemm(&a, &b, &c0, &cfg.with_pack_cache(false));

    let s0 = cache.stats();
    let results: Vec<Matrix> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| run_gemm(&a, &b, &c0, &cfg)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results {
        assert_eq!(
            r.view().data(),
            want.view().data(),
            "cached concurrent result diverges bitwise from uncached serial"
        );
    }
    let (hits, misses, ..) = stats_delta(cache.stats(), s0);
    assert_eq!(
        (hits, misses),
        (threads as u64 - 1, 1),
        "packing under the cache lock must dedup concurrent misses"
    );
    cache.invalidate(&b.view());
}

/// The cache is opt-in: a default configuration moves no cache counter
/// and inserts no entry.
#[test]
fn disabled_by_default_moves_nothing() {
    let _g = lock();
    let cache = f64::pack_cache();
    let a = Matrix::random(20, 16, 50);
    let b = Matrix::random(16, 18, 51);
    let c0 = Matrix::random(20, 18, 52);

    telemetry::reset();
    let s0 = cache.stats();
    let len0 = cache.len();
    for par in [Parallelism::Serial, Parallelism::Pool(2)] {
        run_gemm(&a, &b, &c0, &GemmConfig::default().with_parallelism(par));
    }
    assert_eq!(cache.stats(), s0);
    assert_eq!(cache.len(), len0);
    assert_eq!(telemetry::snapshot().cache, Default::default());
}
