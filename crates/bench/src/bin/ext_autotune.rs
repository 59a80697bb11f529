//! Extension — the closed-loop autotuner on the native engine
//! (DESIGN.md §14): for each swept shape class, run the model-seeded
//! sweep ([`dgemm_core::autotune::tune_and_store`]), persist the winning
//! blocking in the tuning DB, then re-measure the configuration the DB
//! now serves to `GemmConfig::auto()` against the untuned one — an
//! independent check of what the sweep stored.
//!
//! Prints the before/after table (`scripts/reproduce_all.sh` captures
//! it as `results/ext_autotune.txt`). What the loop must *do* — persist,
//! re-read, stay inside the budget, serve bit-exact blockings — is held
//! by `crates/core/tests/autotune_db.rs`, not by this driver.
//!
//! Options: `--quick` (small shapes, small budget). `DGEMM_NUM_THREADS`,
//! `DGEMM_TUNE_DB`, `DGEMM_AUTOTUNE_BUDGET` and `DGEMM_AUTOTUNE_REPS` are
//! read through the library's environment table (`GemmConfig::auto`,
//! `autotune::TuneOptions::from_env`, `autotune::db_path`; README,
//! "Environment variables"), so a malformed or non-unicode value exits 2.

use dgemm_core::autotune::{self, AutotuneMode, TuneOptions};
use dgemm_core::gemm::{try_gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::util::gemm_flops;
use dgemm_core::Transpose;
use perfmodel::tuning::ShapeClass;
use std::path::PathBuf;
use std::time::Instant;

/// Minimum wall time per timing sample. Small shapes run a fraction of
/// a millisecond per call; a single-call sample is dominated by host
/// scheduling noise, so calls are batched until a sample is this long.
const SAMPLE_SECS: f64 = 0.025;

/// Interleaved GFLOPS measurement of two configurations at one shape:
/// alternating batched samples (untuned, tuned, untuned, ...) so that
/// bursty host contention hits both configs equally, median per config.
fn measure_pair(
    cfg_a: &GemmConfig,
    cfg_b: &GemmConfig,
    m: usize,
    n: usize,
    k: usize,
    samples: usize,
) -> (f64, f64) {
    let a = Matrix::random(m, k, 0x51);
    let b = Matrix::random(k, n, 0x52);
    let mut c = Matrix::zeros(m, n);
    let flops = gemm_flops(m, n, k) as f64;
    let run = |cfg: &GemmConfig, c: &mut Matrix<f64>| {
        try_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            cfg,
        )
        .expect("gemm failed during measurement");
    };
    // Warm-up both (arena growth, pool spin-up) and size the batch so
    // one sample is long enough to time reliably.
    let mut iters = 1usize;
    for cfg in [cfg_a, cfg_b] {
        let t = Instant::now();
        run(cfg, &mut c);
        let per_call = t.elapsed().as_secs_f64().max(1e-9);
        iters = iters.max((SAMPLE_SECS / per_call).ceil() as usize);
    }
    let mut times_a = Vec::new();
    let mut times_b = Vec::new();
    for _ in 0..samples.max(3) {
        for (cfg, times) in [(cfg_a, &mut times_a), (cfg_b, &mut times_b)] {
            let t = Instant::now();
            for _ in 0..iters {
                run(cfg, &mut c);
            }
            times.push(t.elapsed().as_secs_f64() / iters as f64);
        }
    }
    let median = |times: &mut Vec<f64>| {
        times.sort_by(f64::total_cmp);
        flops / times[times.len() / 2] / 1e9
    };
    (median(&mut times_a), median(&mut times_b))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // The library's own parsers: a malformed value is an error here as
    // everywhere else, not a silent default.
    let (threads, mut opts) =
        match GemmConfig::auto().and_then(|cfg| Ok((cfg.threads(), TuneOptions::from_env()?))) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("bad environment: {e}");
                std::process::exit(2);
            }
        };

    // The sweep budget: env wins, otherwise a rich budget for the full
    // run and a tight one for --quick.
    if quick && std::env::var_os("DGEMM_AUTOTUNE_BUDGET").is_none() {
        opts.budget = 6;
    }
    if quick && std::env::var_os("DGEMM_AUTOTUNE_REPS").is_none() {
        opts.reps = 1;
    }

    // Resolve (and pin) the DB path so the tune/apply halves of the
    // loop agree even when no DGEMM_TUNE_DB was exported.
    let db: PathBuf = match autotune::db_path() {
        Ok(Some(p)) => p,
        Ok(None) => PathBuf::from("tune.json"),
        Err(e) => {
            eprintln!("bad tuning-DB environment: {e}");
            std::process::exit(2);
        }
    };
    std::env::set_var("DGEMM_TUNE_DB", &db);

    let shapes: &[(usize, usize, usize)] = if quick {
        &[(96, 96, 96), (160, 160, 160), (8, 192, 192)]
    } else {
        &[
            (256, 256, 256),
            (512, 512, 512),
            (1024, 1024, 1024),
            (8, 512, 512),
            (512, 512, 64),
        ]
    };
    let samples = if quick { 2 } else { 9 };

    // Native measurement (not the simulator), so not dgemm_bench::banner.
    println!("================================================================");
    println!("Extension — closed-loop autotuning on the native engine");
    println!("model-seeded sweep per shape class, winners persisted per host");
    println!("(native host measurement; see DESIGN.md §14 and EXPERIMENTS.md)");
    println!("================================================================");
    println!("host {:?}, {} thread(s)", autotune::cpu_id(), threads);
    println!(
        "db {} | budget {} configs/class, {} pair(s)/candidate",
        db.display(),
        opts.budget,
        opts.reps
    );
    println!();
    println!(
        "{:>5} {:>5} {:>5}  {:<18} {:>9} {:>9} {:>8}  winner",
        "m", "n", "k", "class", "untuned", "tuned", "speedup"
    );

    for &(m, n, k) in shapes {
        let class = ShapeClass::of(m, n, k);
        let untuned_cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, threads);

        if autotune::tune_and_store(&db, untuned_cfg.kernel, threads, class, &opts).is_none() {
            eprintln!("sweep produced no winner for {}", class.label());
            continue;
        }
        // Measure exactly what auto() will now serve for this class,
        // interleaved against the untuned baseline.
        let tuned_cfg = autotune::tuned(&untuned_cfg.with_autotune(AutotuneMode::Read), m, n, k);
        let (untuned, tuned) = measure_pair(&untuned_cfg, &tuned_cfg, m, n, k, samples);

        println!(
            "{m:>5} {n:>5} {k:>5}  {:<18} {untuned:>9.3} {tuned:>9.3} {:>7.3}x  {}",
            class.label(),
            tuned / untuned.max(1e-12),
            tuned_cfg.blocks.label(),
        );
    }

    println!();
    println!("The sweep is model-seeded, never brute force: candidates come from the");
    println!("analytic solve (eqs. 15-20), the Goto heuristic, and Table-VI-axis");
    println!("neighbors, pruned by the eq. (4) bound before anything is timed. On the");
    println!("paper's machine the analytic choice usually wins outright (its thesis);");
    println!("on other hosts the loop recovers whatever the closed form leaves behind,");
    println!("and the DB remembers it per (cpu, dtype, shape-class).");
}
