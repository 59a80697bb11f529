//! Integration tests for the closed-loop autotuner (DESIGN.md §14):
//! the persistent tuning DB round-trips through disk, corrupt or
//! stale-version DBs degrade silently to the analytic defaults, a
//! populated DB drives `auto()`'s kernel and blocking selection for both
//! kernel families, and a tuned blocking stays bitwise identical across
//! every runtime.
//!
//! Environment-touching tests in this binary serialize on a local lock
//! (each one restores the variables it sets); the pure-DB and
//! bit-identity tests don't need it.

use dgemm_core::autotune::{self, AutotuneMode, TuneDb, TuneEntry, TuneOptions};
use dgemm_core::dispatch::DispatchMode;
use dgemm_core::gemm::{try_gemm, Config, GemmConfig, KernelFamily};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::{MicroKernelKind, SgemmKernelKind};
use dgemm_core::reference::naive_gemm;
use dgemm_core::scalar::Scalar;
use dgemm_core::util::gemm_tolerance;
use dgemm_core::{Parallelism, Transpose};
use perfmodel::tuning::ShapeClass;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Serialize the tests that mutate `DGEMM_*` environment variables.
fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgemm-autotune-it-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

/// A stored winner for `kernel`'s family at `class`, dated November
/// 2023.
fn entry_for<K: KernelFamily>(
    kernel: K,
    class: &ShapeClass,
    kc: usize,
    mc: usize,
    nc: usize,
) -> TuneEntry {
    TuneEntry {
        cpu: autotune::cpu_id().to_owned(),
        dtype: K::DTYPE.to_owned(),
        class: class.label(),
        mr: kernel.mr(),
        nr: kernel.nr(),
        kc,
        mc,
        nc,
        gflops: 10.0,
        untuned_gflops: 9.0,
        candidates: 7,
        tuned_at: 1_700_000_000,
        version: autotune::LIB_VERSION.to_owned(),
    }
}

/// Oracle check: `cfg` computes the right answer for a modest problem.
fn assert_correct<K: KernelFamily>(cfg: &Config<K>, m: usize, n: usize, k: usize) {
    let (one, zero) = (K::Elem::ONE, K::Elem::ZERO);
    let a = Matrix::<K::Elem>::random(m, k, 11);
    let b = Matrix::<K::Elem>::random(k, n, 12);
    let mut want = Matrix::<K::Elem>::zeros(m, n);
    naive_gemm(
        Transpose::No,
        Transpose::No,
        one,
        &a.view(),
        &b.view(),
        zero,
        &mut want.view_mut(),
    );
    let mut got = Matrix::<K::Elem>::zeros(m, n);
    try_gemm(
        Transpose::No,
        Transpose::No,
        one,
        &a.view(),
        &b.view(),
        zero,
        &mut got.view_mut(),
        cfg,
    )
    .expect("gemm must succeed");
    let err = got.max_abs_diff(&want);
    // the f64 tolerance at this element type's unit roundoff
    let tol = gemm_tolerance(k, 1.0) * (K::Elem::EPSILON.to_f64() / f64::EPSILON);
    assert!(err <= tol, "{}: err {err} > tol {tol}", K::DTYPE);
}

#[test]
fn db_round_trips_through_disk() {
    let path = scratch("roundtrip.json");
    let _ = std::fs::remove_file(&path);
    let mut db = TuneDb::default();
    let class = ShapeClass::of(512, 512, 512);
    db.upsert(entry_for(MicroKernelKind::Mk8x6, &class, 384, 48, 960));
    autotune::store_db(&path, &db).expect("store");
    autotune::invalidate_db_cache();
    let back = autotune::load_db(&path);
    assert_eq!(back, db);
    // and again purely through the in-memory cache
    assert_eq!(autotune::load_db(&path), db);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_and_stale_dbs_fall_back_without_panic() {
    let _guard = env_lock();
    // A v1 document (runtimes and dispatcher calibration alongside the
    // blockings) holding an otherwise valid winner for this host and
    // class: its schema tag alone makes it an empty DB.
    let v1 = format!(
        "{{\"schema\":\"dgemm-tune-v1\",\
         \"hosts\":[{{\"cpu\":\"{cpu}\",\"serial_cal\":1.5,\"pool_cal\":0.75}}],\
         \"entries\":[{{\"cpu\":\"{cpu}\",\"dtype\":\"f64\",\"class\":\"{class}\",\
         \"mr\":8,\"nr\":6,\"kc\":96,\"mc\":40,\"nc\":126,\"runtime\":\"pool\",\"threads\":2,\
         \"gflops\":10,\"untuned_gflops\":9,\"candidates\":7,\
         \"tuned_at\":1700000000,\"version\":\"{version}\"}}]}}",
        cpu = autotune::cpu_id(),
        class = ShapeClass::of(96, 96, 96).label(),
        version = autotune::LIB_VERSION,
    );
    for (name, contents) in [
        ("corrupt.json", "{\"schema\": \"dgemm-tu"),
        ("binary.json", "\u{0}\u{1}\u{2}junk"),
        (
            "stale.json",
            "{\"schema\":\"dgemm-tune-v0\",\"hosts\":[],\"entries\":[]}",
        ),
        ("v1.json", v1.as_str()),
    ] {
        let path = scratch(name);
        std::fs::write(&path, contents).expect("write scratch db");
        autotune::invalidate_db_cache();
        std::env::set_var("DGEMM_TUNE_DB", &path);
        std::env::set_var("DGEMM_AUTOTUNE", "read");
        std::env::remove_var("DGEMM_NUM_THREADS");
        // auto() parses the env fine (the path is well-formed), the DB
        // contents silently degrade to the analytic blocking …
        let cfg = GemmConfig::auto().expect("auto with unreadable DB");
        assert_eq!(cfg.autotune, AutotuneMode::Read);
        let tuned = autotune::tuned(&cfg, 96, 96, 96);
        assert_eq!(tuned.blocks.label(), cfg.blocks.label(), "{name}");
        // … and GEMM still computes the right answer.
        assert_correct(&cfg, 96, 64, 48);
        let _ = std::fs::remove_file(&path);
    }
    std::env::remove_var("DGEMM_TUNE_DB");
    std::env::remove_var("DGEMM_AUTOTUNE");
}

#[test]
fn malformed_autotune_env_is_a_typed_error() {
    let _guard = env_lock();
    std::env::remove_var("DGEMM_NUM_THREADS");
    std::env::set_var("DGEMM_AUTOTUNE", "sometimes");
    assert!(GemmConfig::auto().is_err());
    std::env::set_var("DGEMM_AUTOTUNE", "read");
    std::env::set_var("DGEMM_TUNE_DB", "");
    assert!(GemmConfig::auto().is_err());
    std::env::set_var("DGEMM_TUNE_DB", "/tmp/fine.json");
    std::env::set_var("DGEMM_AUTOTUNE_BUDGET", "zero");
    assert!(GemmConfig::auto().is_err());
    std::env::remove_var("DGEMM_AUTOTUNE_BUDGET");
    std::env::set_var("DGEMM_TUNE_MAX_AGE_DAYS", "fortnight");
    assert!(GemmConfig::auto().is_err());
    std::env::remove_var("DGEMM_TUNE_MAX_AGE_DAYS");
    assert!(GemmConfig::auto().is_ok());
    std::env::remove_var("DGEMM_AUTOTUNE");
    std::env::remove_var("DGEMM_TUNE_DB");
}

/// A stored winner reaches the calls of its class through `auto()`:
/// kernel and blocking, never the runtime. `Read` applies what is stored
/// and never measures.
fn stored_winner_drives_selection<K: KernelFamily>() {
    let path = scratch(&format!("selected-{}.json", K::DTYPE));
    let _ = std::fs::remove_file(&path);
    let class = ShapeClass::of(200, 200, 200);
    // A winner no analytic solve produces: a kernel that is not the
    // family's default and a distinctive (but valid) blocking for it.
    let kernel = K::ALL[1];
    assert_ne!(kernel, K::DEFAULT);
    let (mc, nc) = (5 * kernel.mr(), 21 * kernel.nr());
    let mut db = TuneDb::default();
    db.upsert(entry_for(kernel, &class, 96, mc, nc));
    autotune::store_db(&path, &db).expect("store");
    autotune::invalidate_db_cache();

    std::env::set_var("DGEMM_TUNE_DB", &path);
    std::env::set_var("DGEMM_AUTOTUNE", "read");
    std::env::set_var("DGEMM_NUM_THREADS", "1");
    let cfg = Config::<K>::auto().expect("auto");
    assert_eq!(
        (cfg.kernel, cfg.parallelism),
        (K::DEFAULT, Parallelism::Serial)
    );
    // The stored winner is selected for shapes in its class …
    let label = format!("{}x{}x96x{mc}x{nc}", kernel.mr(), kernel.nr());
    let tuned = autotune::tuned(&cfg, 200, 200, 200);
    assert_eq!(tuned.kernel, kernel);
    assert_eq!(tuned.blocks.label(), label);
    // … the runtime stays the dispatcher's: parallelism and dispatch
    // mode come back as configured, under `Fixed` as under `Auto` …
    for dispatch in [DispatchMode::Fixed, DispatchMode::Auto] {
        for parallelism in [Parallelism::Serial, Parallelism::Pool(3)] {
            let cfg = cfg.with_dispatch(dispatch).with_parallelism(parallelism);
            let tuned = autotune::tuned(&cfg, 200, 200, 200);
            assert_eq!(tuned.blocks.label(), label);
            assert_eq!(
                (tuned.parallelism, tuned.dispatch),
                (parallelism, dispatch),
                "runtime changed by the tuner"
            );
        }
    }
    // … other classes fall through to the analytic blocking, and a miss
    // under Read starts no sweep: the DB on disk is what was stored.
    let other = autotune::tuned(&cfg, 2500, 2500, 2500);
    assert_eq!(other.blocks.label(), cfg.blocks.label());
    autotune::wait_for_background_tuning();
    autotune::invalidate_db_cache();
    assert_eq!(autotune::load_db(&path), db, "Read measured something");
    // And the tuned path computes the right answer end to end.
    assert_correct(&cfg, 200, 200, 200);
    std::env::remove_var("DGEMM_TUNE_DB");
    std::env::remove_var("DGEMM_AUTOTUNE");
    std::env::remove_var("DGEMM_NUM_THREADS");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn populated_db_drives_auto_config_selection() {
    let _guard = env_lock();
    stored_winner_drives_selection::<MicroKernelKind>();
    stored_winner_drives_selection::<SgemmKernelKind>();
}

/// The closed loop end to end: a sweep through the public API (explicitly,
/// with a tiny budget — the transparent Full-mode path shares this code
/// and is taken by `full_mode_first_miss_tunes_in_the_background`) lands a
/// winner under the family's dtype, and a fresh Read-mode config serves it.
fn sweep_persists_and_rereads<K: KernelFamily>() {
    let path = scratch(&format!("full-loop-{}.json", K::DTYPE));
    let _ = std::fs::remove_file(&path);
    autotune::invalidate_db_cache();
    std::env::set_var("DGEMM_TUNE_DB", &path);
    let class = ShapeClass::of(64, 64, 64);
    let opts = TuneOptions { budget: 3, reps: 1 };
    let entry = autotune::tune_and_store(&path, K::DEFAULT, 1, class, &opts)
        .expect("sweep produced a winner");
    assert_eq!(entry.dtype, K::DTYPE);
    assert!(entry.candidates <= 3);
    assert!(entry.gflops >= entry.untuned_gflops - 1e-12);
    // The DB on disk now feeds a fresh Read-mode config.
    autotune::invalidate_db_cache();
    std::env::set_var("DGEMM_AUTOTUNE", "read");
    std::env::remove_var("DGEMM_NUM_THREADS");
    let cfg = Config::<K>::auto().expect("auto");
    let tuned = autotune::tuned(&cfg, 64, 64, 64);
    assert_eq!(tuned.blocks.label(), entry.blocks().label());
    assert_eq!((tuned.kernel.mr(), tuned.kernel.nr()), (entry.mr, entry.nr));
    // The file on disk carries the current schema.
    let text = std::fs::read_to_string(&path).expect("DB written");
    assert!(text.starts_with("{\"schema\":\"dgemm-tune-v2\""), "{text}");
    std::env::remove_var("DGEMM_TUNE_DB");
    std::env::remove_var("DGEMM_AUTOTUNE");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn full_mode_tunes_persists_and_rereads() {
    let _guard = env_lock();
    sweep_persists_and_rereads::<MicroKernelKind>();
    sweep_persists_and_rereads::<SgemmKernelKind>();
}

/// The first Full-mode miss of a shape class must not stall the caller
/// behind a multi-second sweep: it serves the analytic config
/// immediately and runs the sweep on a warm-up thread; once the winner
/// lands in the DB, subsequent calls of the class serve it.
#[test]
fn full_mode_first_miss_tunes_in_the_background() {
    let _guard = env_lock();
    let path = scratch("background.json");
    let _ = std::fs::remove_file(&path);
    autotune::invalidate_db_cache();
    std::env::set_var("DGEMM_TUNE_DB", &path);
    std::env::set_var("DGEMM_AUTOTUNE_BUDGET", "2");
    std::env::set_var("DGEMM_AUTOTUNE_REPS", "1");
    let mut cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1);
    cfg.autotune = AutotuneMode::Full;
    let first = autotune::tuned(&cfg, 64, 64, 64);
    // Served analytically, unchanged: the sweep is off-thread.
    assert_eq!(first.blocks.label(), cfg.blocks.label());
    assert_eq!(first.kernel, cfg.kernel);
    autotune::wait_for_background_tuning();
    autotune::invalidate_db_cache();
    let class = ShapeClass::of(64, 64, 64);
    let entry = autotune::load_db(&path)
        .find(autotune::cpu_id(), "f64", &class.label())
        .cloned()
        .expect("background sweep persisted a winner");
    assert_eq!(entry.version, autotune::LIB_VERSION);
    assert!(entry.tuned_at > 0, "sweep stamps its wall-clock time");
    // The next call of the class picks the stored winner up.
    let second = autotune::tuned(&cfg, 64, 64, 64);
    assert_eq!(second.blocks.label(), entry.blocks().label());
    std::env::remove_var("DGEMM_TUNE_DB");
    std::env::remove_var("DGEMM_AUTOTUNE_BUDGET");
    std::env::remove_var("DGEMM_AUTOTUNE_REPS");
    let _ = std::fs::remove_file(&path);
}

/// Entries older than `DGEMM_TUNE_MAX_AGE_DAYS` are a *miss* under
/// Full mode — the analytic config serves while a background sweep
/// re-tunes and re-stamps the class — but Read mode still applies the
/// stale winner (Read never measures; a dated winner beats the
/// untuned default).
#[test]
fn over_age_entries_retune_under_full_but_apply_under_read() {
    let _guard = env_lock();
    let path = scratch("age-expiry.json");
    let _ = std::fs::remove_file(&path);
    // A class no other Full-mode test touches: the per-process
    // first-attempt gate must still be open for it here.
    let class = ShapeClass::of(32, 32, 32);
    let stale = entry_for(MicroKernelKind::Mk8x6, &class, 96, 40, 126); // tuned_at ≈ Nov 2023
    let mut db = TuneDb::default();
    db.upsert(stale.clone());
    autotune::store_db(&path, &db).expect("store");
    autotune::invalidate_db_cache();
    std::env::set_var("DGEMM_TUNE_DB", &path);
    std::env::set_var("DGEMM_TUNE_MAX_AGE_DAYS", "30");
    std::env::set_var("DGEMM_AUTOTUNE_BUDGET", "2");
    std::env::set_var("DGEMM_AUTOTUNE_REPS", "1");

    // Read mode: the over-age entry still applies.
    let mut cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1);
    cfg.autotune = AutotuneMode::Read;
    let read = autotune::tuned(&cfg, 32, 32, 32);
    assert_eq!(read.blocks.label(), "8x6x96x40x126");

    // Full mode: expired ⇒ miss ⇒ analytic now, re-tune off-thread.
    cfg.autotune = AutotuneMode::Full;
    let first = autotune::tuned(&cfg, 32, 32, 32);
    assert_eq!(
        first.blocks.label(),
        cfg.blocks.label(),
        "analytic config serves while the re-tune runs"
    );
    autotune::wait_for_background_tuning();
    autotune::invalidate_db_cache();
    let entry = autotune::load_db(&path)
        .find(autotune::cpu_id(), "f64", &class.label())
        .cloned()
        .expect("re-tune persisted a fresh winner");
    assert!(entry.tuned_at > stale.tuned_at, "tuned_at was re-stamped");
    // The refreshed winner is inside the age window: the next Full-mode
    // call serves it instead of the analytic fallback.
    let second = autotune::tuned(&cfg, 32, 32, 32);
    assert_eq!(second.blocks.label(), entry.blocks().label());

    std::env::remove_var("DGEMM_TUNE_DB");
    std::env::remove_var("DGEMM_TUNE_MAX_AGE_DAYS");
    std::env::remove_var("DGEMM_AUTOTUNE_BUDGET");
    std::env::remove_var("DGEMM_AUTOTUNE_REPS");
    let _ = std::fs::remove_file(&path);
}

/// A tuned blocking must preserve the bitwise cross-runtime contract:
/// for one fixed `(kernel, blocking)`, Serial and Pool runs are
/// bit-identical (the `(jj, kk)` epoch walk fixes accumulation order).
#[test]
fn tuned_blocking_is_bitwise_identical_across_runtimes() {
    let (m, n, k) = (150, 90, 130);
    let a = Matrix::random(m, k, 21);
    let b = Matrix::random(k, n, 22);
    let c0: Matrix<f64> = Matrix::random(m, n, 23);
    // a "tuned" blocking the analytic solver would not pick
    let base = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1).with_blocks(96, 40, 126);
    let mut reference: Option<Matrix<f64>> = None;
    for runtime in [Parallelism::Serial, Parallelism::Pool(4)] {
        let cfg = base.with_parallelism(runtime);
        let mut got = c0.clone();
        try_gemm(
            Transpose::No,
            Transpose::No,
            1.25,
            &a.view(),
            &b.view(),
            -0.5,
            &mut got.view_mut(),
            &cfg,
        )
        .expect("gemm");
        match &reference {
            None => reference = Some(got),
            Some(want) => {
                assert_eq!(
                    want.max_abs_diff(&got),
                    0.0,
                    "runtime {runtime:?} diverged bitwise on the tuned blocking"
                );
            }
        }
    }
}
