//! Cross-runtime conformance suite: one differential oracle, every
//! execution configuration.
//!
//! Every case is run through the full matrix of
//! `{Serial, Pool} × {pack cache off, pack cache on}` (and, in
//! the property test, every register kernel) and must satisfy two
//! contracts simultaneously:
//!
//! 1. **Accuracy** — within `gemm_tolerance` of the naive triple-loop
//!    oracle ([`naive_gemm`]).
//! 2. **Bitwise determinism** — bit-identical to the serial, uncached
//!    run. The layered algorithm fixes each C element's accumulation
//!    order by the `(jj, kk)` epoch walk, and the pre-packed cache
//!    builds its tiles with the same packing code, so neither threading
//!    nor caching may change a single bit.
//!
//! The β = 0 rule gets special care throughout: BLAS semantics are
//! *overwrite*, not *scale* — a NaN or Inf in the stale C must never
//! leak into the result. The oracle itself is evaluated on a zeroed C
//! when β = 0 so the comparison can't be poisoned either.
//!
//! That baseline is the walk every other configuration runs, on one cell
//! (`Parallelism::Serial` is the pool's cell body, uncontained): a bug in
//! the shared body would move judge and judged together. So the baseline
//! itself is held, bit for bit, to a textbook loop nest written here from
//! the public packing routines and `gebp`
//! ([`the_serial_walk_is_the_textbook_nest_bit_for_bit`]).
//!
//! Every case builds its configuration explicitly, so the suite does not
//! depend on the environment it runs in: what `DGEMM_NUM_THREADS`,
//! `DGEMM_DISPATCH` and `DGEMM_PACK_CACHE` can make of
//! `GemmConfig::auto()` is swept in process by
//! [`auto_config_conforms_in_this_environment`], which also takes one
//! pass through `auto()` itself.

use dgemm_core::batch::{gemm_batch_prepacked, gemm_batch_shared_b};
use dgemm_core::dispatch::DispatchMode;
use dgemm_core::gebp::gebp;
use dgemm_core::gemm::{try_gemm, BSource, GemmConfig, KernelFamily};
use dgemm_core::matrix::{Matrix, MatrixView, MatrixViewMut};
use dgemm_core::microkernel::{KernelSet, MicroKernelKind};
use dgemm_core::pack::{PackedA, PackedB};
use dgemm_core::pool::{cell_grid, PoolScalar};
use dgemm_core::prepack::PrepackedB;
use dgemm_core::reference::naive_gemm;
use dgemm_core::sgemm::{sgemm, SgemmConfig};
use dgemm_core::simd::Isa;
use dgemm_core::store;
use dgemm_core::tile::TileMut;
use dgemm_core::util::gemm_tolerance;
use dgemm_core::{Parallelism, Transpose};
use proptest::prelude::*;

/// The runtime sweep: serial and the persistent pool (4 workers so
/// `blocks % workers != 0` shows up on most shapes).
const RUNTIMES: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Pool(4)];

fn stored_dims(t: Transpose, rows: usize, cols: usize) -> (usize, usize) {
    match t {
        Transpose::No => (rows, cols),
        Transpose::Yes => (cols, rows),
    }
}

/// Run one problem through every `runtime × caching` combination and
/// assert accuracy against the oracle plus bitwise equality with the
/// serial uncached baseline. Cache entries created for `b` are
/// invalidated before returning (coherence contract: the matrix is
/// about to be freed).
#[allow(clippy::too_many_arguments)]
fn check_all_runtimes(
    kind: MicroKernelKind,
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    beta: f64,
    a: &Matrix,
    b: &Matrix,
    c0: &Matrix,
    blocks: Option<(usize, usize, usize)>,
    k: usize,
) {
    let (m, n) = (c0.rows(), c0.cols());

    // β = 0 is overwrite, not scale: evaluate the oracle on a zeroed C
    // so stale NaN/Inf can't reach it through the β·C term.
    let mut want = if beta == 0.0 {
        Matrix::zeros(m, n)
    } else {
        c0.clone()
    };
    naive_gemm(
        ta,
        tb,
        alpha,
        &a.view(),
        &b.view(),
        beta,
        &mut want.view_mut(),
    );
    let tol = gemm_tolerance(k, 4.0);

    let mut baseline: Option<Matrix> = None;
    for par in RUNTIMES {
        for cached in [false, true] {
            let mut cfg = GemmConfig::for_kernel(kind, 1)
                .with_parallelism(par)
                .with_pack_cache(cached);
            if let Some((kc, mc, nc)) = blocks {
                cfg = cfg.with_blocks(kc, mc, nc);
            }
            let mut c = c0.clone();
            try_gemm(
                ta,
                tb,
                alpha,
                &a.view(),
                &b.view(),
                beta,
                &mut c.view_mut(),
                &cfg,
            )
            .unwrap_or_else(|e| panic!("{par:?} cached={cached}: {e}"));

            for j in 0..n {
                for i in 0..m {
                    let (got, oracle) = (c.get(i, j), want.get(i, j));
                    assert!(
                        got.is_finite(),
                        "{kind:?} {par:?} cached={cached} ({m}x{n}x{k}): \
                         non-finite C[{i},{j}] = {got}"
                    );
                    assert!(
                        (got - oracle).abs() <= tol,
                        "{kind:?} {par:?} cached={cached} ({m}x{n}x{k}): \
                         C[{i},{j}] = {got} vs oracle {oracle} (tol {tol})"
                    );
                }
            }
            match &baseline {
                None => baseline = Some(c),
                Some(base) => assert_eq!(
                    c.view().data(),
                    base.view().data(),
                    "{kind:?} {par:?} cached={cached} ({m}x{n}x{k}): \
                     not bit-identical to serial uncached"
                ),
            }
        }
    }
    f64::pack_cache().invalidate(&b.view());
}

/// Random-operand wrapper around [`check_all_runtimes`].
#[allow(clippy::too_many_arguments)]
fn check_random(
    kind: MicroKernelKind,
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    beta: f64,
    (m, n, k): (usize, usize, usize),
    blocks: Option<(usize, usize, usize)>,
    seed: u64,
) {
    let (ar, ac) = stored_dims(ta, m, k);
    let (br, bc) = stored_dims(tb, k, n);
    let a = Matrix::random(ar, ac, seed);
    let b = Matrix::random(br, bc, seed + 1);
    let c0 = Matrix::random(m, n, seed + 2);
    check_all_runtimes(kind, ta, tb, alpha, beta, &a, &b, &c0, blocks, k);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central differential property: arbitrary shape, kernel,
    /// transposes, scalars and (deliberately hostile) blocking — every
    /// runtime, cached and uncached, matches the oracle and the serial
    /// uncached bits.
    #[test]
    fn every_configuration_matches_the_oracle(
        m in 1usize..40,
        n in 1usize..40,
        k in 0usize..40,
        kind in prop::sample::select(MicroKernelKind::ALL.to_vec()),
        ta in prop::bool::ANY.prop_map(|b| if b { Transpose::Yes } else { Transpose::No }),
        tb in prop::bool::ANY.prop_map(|b| if b { Transpose::Yes } else { Transpose::No }),
        alpha in prop_oneof![
            Just(0.0f64),
            Just(1.0f64),
            Just(-1.0f64),
            (-25i64..25).prop_map(|q| q as f64 / 10.0),
        ],
        beta in prop_oneof![
            Just(0.0f64),
            Just(1.0f64),
            Just(-1.0f64),
            (-17i64..17).prop_map(|q| q as f64 / 10.0),
        ],
        kc in 3usize..36,
        mc_mult in 1usize..4,
        nc_mult in 1usize..5,
        seed in 0u64..10_000,
    ) {
        check_random(
            kind,
            ta,
            tb,
            alpha,
            beta,
            (m, n, k),
            Some((kc, kind.mr() * mc_mult, kind.nr() * nc_mult)),
            seed,
        );
    }
}

/// m, n and k each one past / one short of the register and cache
/// granularities: every remainder path (ragged sliver, partial kc, odd
/// band) for every kernel.
#[test]
fn remainder_shapes_conform() {
    for kind in MicroKernelKind::ALL {
        let (mr, nr) = (kind.mr(), kind.nr());
        let kc = 16;
        for (m, n, k) in [
            (2 * mr + 3, 3 * nr + 1, kc + 7),
            (mr + 1, nr + 1, kc - 1),
            (3 * mr - 1, 2 * nr - 1, 2 * kc + 1),
        ] {
            check_random(
                kind,
                Transpose::No,
                Transpose::No,
                1.5,
                -0.5,
                (m, n, k),
                Some((kc, 2 * mr, 2 * nr)),
                11 + m as u64,
            );
        }
    }
}

/// m strictly below mr: the whole matrix is one ragged sliver.
#[test]
fn m_smaller_than_register_tile_conforms() {
    for kind in MicroKernelKind::ALL {
        for m in [1, kind.mr() - 1] {
            check_random(
                kind,
                Transpose::No,
                Transpose::Yes,
                -1.0,
                1.0,
                (m, 3 * kind.nr() + 2, 19),
                Some((8, kind.mr(), 2 * kind.nr())),
                23 + m as u64,
            );
        }
    }
}

/// k = 0 is a pure β-scale: no packing, no kernel call — and with β = 0
/// it must *overwrite*, scrubbing stale NaN/Inf from C.
#[test]
fn k_zero_is_pure_beta_scale() {
    // finite C, β ≠ 0: exact scale
    check_random(
        MicroKernelKind::Mk8x6,
        Transpose::No,
        Transpose::No,
        1.0,
        2.0,
        (17, 13, 0),
        None,
        31,
    );

    // poisoned C, β = 0: every runtime must produce exact zeros
    let a = Matrix::zeros(9, 0);
    let b = Matrix::zeros(0, 7);
    let c0 = Matrix::from_fn(9, 7, |i, j| {
        if (i + j) % 3 == 0 {
            f64::NAN
        } else {
            f64::INFINITY
        }
    });
    for par in RUNTIMES {
        for cached in [false, true] {
            let cfg = GemmConfig::default()
                .with_parallelism(par)
                .with_pack_cache(cached);
            let mut c = c0.clone();
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
            .unwrap();
            for j in 0..7 {
                for i in 0..9 {
                    assert_eq!(
                        c.get(i, j),
                        0.0,
                        "{par:?} cached={cached}: stale C leaked through k=0, beta=0"
                    );
                }
            }
        }
    }
    f64::pack_cache().invalidate(&b.view());
}

/// β = 0 with k > 0: the product must fully overwrite a NaN/Inf-filled
/// C on every runtime, cached or not. Nothing zeroes C first: the first
/// `kk` panel's kernels store it, unread, straight on C or — where a
/// register tile's rows cross two batch entries — on a scratch tile that
/// is sized but not cleared. So every case is held, bit for bit, to
/// [`textbook_gemm`], which does zero C first: batches (whose blocks
/// straddle entries on every runtime), a scratch tile left full by the
/// batch before on the same thread and a β = 1 call just before each,
/// `k` over three `kc` panels of which only the first may store,
/// and rows of A that are zero under a negative α, whose exact −0.0
/// product must store +0.0 as `+0.0 + (−0.0)` does.
#[test]
fn beta_zero_overwrites_poisoned_c() {
    let (m, n, k) = (21, 18, 19);
    let blocks = (8, 16, 12);
    let poisoned = || {
        Matrix::from_fn(m, n, |i, j| {
            if (i ^ j) & 1 == 0 {
                f64::NAN
            } else {
                -f64::INFINITY
            }
        })
    };
    // every fifth row of A zero: C's row is then α·(+0.0) = −0.0 unstored
    let a: Vec<Matrix> = (0..5u64)
        .map(|e| Matrix::random(m, k, 41 + e))
        .map(|a| Matrix::from_fn(m, k, |i, p| if i % 5 == 0 { 0.0 } else { a.get(i, p) }))
        .collect();
    let b = Matrix::random(k, n, 42);
    let alpha = -1.25;
    check_all_runtimes(
        MicroKernelKind::Mk8x6,
        Transpose::No,
        Transpose::No,
        alpha,
        0.0,
        &a[0],
        &b,
        &poisoned(),
        Some(blocks),
        k,
    );

    let bits = |c: &Matrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let want: Vec<Vec<u64>> = a
        .iter()
        .map(|a| {
            let mut c = poisoned();
            let (av, bv) = (a.view(), b.view());
            let (ta, tb) = (Transpose::No, Transpose::No);
            textbook_gemm(
                MicroKernelKind::Mk8x6,
                ta,
                tb,
                alpha,
                &av,
                &bv,
                0.0,
                &mut c.view_mut(),
                blocks,
            );
            bits(&c)
        })
        .collect();
    for (e, want) in want.iter().enumerate() {
        let zero_rows = (0..n).flat_map(|j| (0..m).step_by(5).map(move |i| i + j * m));
        assert!(
            zero_rows.clone().all(|x| want[x] == 0),
            "entry {e}: not +0.0"
        );
    }
    let cfg = |par: Parallelism, cached: bool| {
        GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1)
            .with_blocks(blocks.0, blocks.1, blocks.2)
            .with_parallelism(par)
            .with_pack_cache(cached)
    };
    let runtimes = [
        Parallelism::Serial,
        Parallelism::Pool(1),
        Parallelism::Pool(2),
        Parallelism::Pool(3),
    ];
    for (par, cached) in runtimes.iter().flat_map(|&par| [(par, false), (par, true)]) {
        for entries in 1..=5 {
            let case = format!("{par:?} cached={cached}: batch of {entries}");
            // a β = 1 call first, on the same buffers: nothing it leaves
            // there may reach the β = 0 batch
            let mut warm = Matrix::random(m, n, 43);
            let (av, bv) = (a[0].view(), b.view());
            let cfg = cfg(par, cached);
            try_gemm(
                Transpose::No,
                Transpose::No,
                3.0,
                &av,
                &bv,
                1.0,
                &mut warm.view_mut(),
                &cfg,
            )
            .unwrap_or_else(|e| panic!("{case}, β = 1: {e}"));
            let mut c: Vec<Matrix> = (0..entries).map(|_| poisoned()).collect();
            let a_views: Vec<MatrixView<'_>> = a[..entries].iter().map(Matrix::view).collect();
            let mut c_views: Vec<MatrixViewMut<'_>> = c.iter_mut().map(Matrix::view_mut).collect();
            gemm_batch_shared_b(alpha, &a_views, Transpose::No, &bv, 0.0, &mut c_views, &cfg)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            drop(c_views);
            for (e, c) in c.iter().enumerate() {
                assert!(
                    bits(c) == want[e],
                    "{case}: entry {e} is not the textbook nest's"
                );
            }
        }
    }
    f64::pack_cache().invalidate(&b.view());
}

/// Pooled cells under `β = 0`: a call of one entry whose grid on
/// `Pool(2)`, `Pool(3)` and `Pool(4)` splits columns where B is packed
/// — but for the ragged last panel on `Pool(3)`, which splits rows; a B
/// read in place splits both panels' rows there — each cell storing
/// straight into its own tiles of a C of NaN, −∞ and −0.0 — over three
/// `jj` panels, two `kc` panels and up to three row blocks per cell, for
/// every transpose. Each result is `Serial`'s, bit for bit, and finite.
#[test]
fn pooled_in_place_column_cells_overwrite_poisoned_c() {
    let (m, n, k) = (40, 168, 45);
    let (kc, mc, nc) = (24, 16, 64);
    let poisoned = || {
        Matrix::from_fn(m, n, |i, j| match (i + 2 * j) % 3 {
            0 => f64::NAN,
            1 => f64::NEG_INFINITY,
            _ => -0.0,
        })
    };
    let transposes = [Transpose::No, Transpose::Yes];
    for (ta, tb) in transposes
        .iter()
        .flat_map(|&ta| transposes.map(|tb| (ta, tb)))
    {
        let (ar, ac) = stored_dims(ta, m, k);
        let (br, bc) = stored_dims(tb, k, n);
        let a = Matrix::random(ar, ac, 201);
        let b = Matrix::random(br, bc, 202);
        let run = |par: Parallelism| {
            let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1)
                .with_blocks(kc, mc, nc)
                .with_parallelism(par);
            let mut c = poisoned();
            try_gemm(
                ta,
                tb,
                -1.25,
                &a.view(),
                &b.view(),
                0.0,
                &mut c.view_mut(),
                &cfg,
            )
            .unwrap_or_else(|e| panic!("{par:?} ta={ta:?} tb={tb:?}: {e}"));
            c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let want = run(Parallelism::Serial);
        assert!(want.iter().all(|&x| f64::from_bits(x).is_finite()));
        for p in [2, 3, 4] {
            // A packed B (a transposed one, 40 rows being more than a
            // row group): on three threads the 40-wide panel's three
            // one-block row ranges copy 45·(16 + 40) = 2 520 words a
            // cell, against 45·(40 + 18) = 2 610 for three column chunks.
            let isa = KernelSet::isa(&MicroKernelKind::Mk8x6);
            for width in [nc, n % nc] {
                let want = if (p, width) == (3, n % nc) {
                    (3, 1)
                } else {
                    (1, p)
                };
                let grid = cell_grid(m, width, k, kc, mc, 6, p, BSource::Packed, isa, None);
                assert_eq!(grid, want, "Pool({p}), a panel {width} wide");
            }
            assert!(
                run(Parallelism::Pool(p)) == want,
                "Pool({p}) ta={ta:?} tb={tb:?}: not Serial's bits"
            );
        }
    }
}

/// n = 1: GEMV-shaped problems exercise the narrowest possible B panel
/// (one ragged nr-sliver per tile).
#[test]
fn single_column_conforms() {
    for kind in MicroKernelKind::ALL {
        check_random(
            kind,
            Transpose::No,
            Transpose::No,
            2.0,
            0.5,
            (3 * kind.mr() + 1, 1, 27),
            Some((10, 2 * kind.mr(), kind.nr())),
            53,
        );
    }
}

/// mc > m and the whole problem inside a single kc×nc tile: the
/// analytic (default) blocking on a matrix far smaller than its design
/// point, where layer 3 has exactly one block.
#[test]
fn blocking_larger_than_problem_conforms() {
    // default blocks: kc=512 and nc=1920 exceed the shape, and so does mc
    // (56, or this host's: at least 64 on an L2 of 1 MiB or more)
    check_random(
        MicroKernelKind::Mk8x6,
        Transpose::No,
        Transpose::No,
        1.0,
        1.0,
        (40, 33, 25),
        None,
        61,
    );
    check_random(
        MicroKernelKind::Mk8x4,
        Transpose::Yes,
        Transpose::Yes,
        -0.75,
        0.25,
        (13, 29, 31),
        None,
        67,
    );
}

/// Zero-sized problems: m = 0 and n = 0 are no-ops that must not touch
/// the (empty) C or crash any runtime.
#[test]
fn empty_dimensions_conform() {
    check_random(
        MicroKernelKind::Mk8x6,
        Transpose::No,
        Transpose::No,
        1.0,
        0.0,
        (0, 11, 7),
        None,
        71,
    );
    check_random(
        MicroKernelKind::Mk8x6,
        Transpose::No,
        Transpose::No,
        1.0,
        0.0,
        (11, 0, 7),
        None,
        73,
    );
}

/// α = 0 never reads A or B (which here are NaN-poisoned): the result
/// is exactly β·C on every runtime.
#[test]
fn alpha_zero_never_reads_operands() {
    let (m, n, k) = (12, 10, 8);
    let a = Matrix::from_fn(m, k, |_, _| f64::NAN);
    let b = Matrix::from_fn(k, n, |_, _| f64::NAN);
    let c0 = Matrix::random(m, n, 83);
    for par in RUNTIMES {
        for cached in [false, true] {
            let cfg = GemmConfig::default()
                .with_parallelism(par)
                .with_pack_cache(cached);
            let mut c = c0.clone();
            try_gemm(
                Transpose::No,
                Transpose::No,
                0.0,
                &a.view(),
                &b.view(),
                -0.5,
                &mut c.view_mut(),
                &cfg,
            )
            .unwrap();
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(c.get(i, j), -0.5 * c0.get(i, j), "{par:?} cached={cached}");
                }
            }
        }
    }
    f64::pack_cache().invalidate(&b.view());
}

/// Store-loaded panels vs live packing, through the full oracle: for
/// every kernel, a B pre-packed → serialized → decoded and handed to
/// `gemm_batch_prepacked` must leave every runtime bit-identical to the
/// serial uncached (live-packing) run, which `check_all_runtimes` holds
/// to the naive oracle — a blob from disk is indistinguishable from
/// panels packed this instant. Ragged edges included: `n % nc != 0`,
/// `n % nr != 0`, `k % kc != 0`.
#[test]
fn store_loaded_panels_conform() {
    for (kind, tb) in [
        (MicroKernelKind::Mk8x6, Transpose::No),
        (MicroKernelKind::Mk8x4, Transpose::Yes),
        (MicroKernelKind::Mk4x4, Transpose::No),
    ] {
        let (mr, nr) = (kind.mr(), kind.nr());
        let kc = 16;
        let nc = 2 * nr;
        let (m, n, k) = (2 * mr + 3, nc + nr + 1, kc + 7);
        let (br, bc) = stored_dims(tb, k, n);
        let a = Matrix::random(m, k, 141);
        let b = Matrix::random(br, bc, 142);
        let c0 = Matrix::random(m, n, 143);
        let blocks = (kc, 2 * mr, nc);
        check_all_runtimes(
            kind,
            Transpose::No,
            tb,
            1.25,
            -0.5,
            &a,
            &b,
            &c0,
            Some(blocks),
            k,
        );

        let live = PrepackedB::try_build(&b.view(), tb, nr, kc, nc).expect("live pack");
        let loaded = store::decode::<f64>(&store::encode(&live)).expect("roundtrip");
        let cfg = GemmConfig::for_kernel(kind, 1).with_blocks(kc, 2 * mr, nc);
        let mut base = c0.clone();
        let (a, b) = (a.view(), b.view());
        try_gemm(
            Transpose::No,
            tb,
            1.25,
            &a,
            &b,
            -0.5,
            &mut base.view_mut(),
            &cfg,
        )
        .unwrap();
        for par in RUNTIMES {
            let mut c = c0.clone();
            let cfg = cfg.with_parallelism(par);
            gemm_batch_prepacked(1.25, &[a], &loaded.panels, -0.5, &mut [c.view_mut()], &cfg)
                .unwrap_or_else(|e| panic!("{kind:?} {par:?}: {e}"));
            assert_eq!(
                c.view().data(),
                base.view().data(),
                "{kind:?} {par:?}: loaded panels diverge from live-packed serial"
            );
        }
    }
}

/// NaN where `i ^ j` is even and +Inf where it is odd: what lies around
/// every window the B-source cases hand the library.
fn junk(i: usize, j: usize) -> f64 {
    if (i ^ j) & 1 == 0 {
        f64::NAN
    } else {
        f64::INFINITY
    }
}

/// `inner` as the window at `(2, 1)` of a parent that is `outside`
/// elsewhere and shares the window's last element: the window's last
/// column ends the allocation.
fn windowed(inner: &Matrix, outside: &dyn Fn(usize, usize) -> f64) -> Matrix {
    let (rows, cols) = (inner.rows(), inner.cols());
    Matrix::from_fn(rows + 2, cols + 1, |i, j| {
        if i >= 2 && j >= 1 {
            inner.get(i - 2, j - 1)
        } else {
            outside(i, j)
        }
    })
}

/// The sources of B the B-source cases run every call through, as
/// `(runtime, prepacked)`: B as the caller stored it — read in place or
/// packed per call, as the plan's rule says — and the same B as a
/// `PrepackedB` handed to `gemm_batch_prepacked`, each serially and on
/// two and four threads. The first is the baseline every other is held
/// to bit for bit.
const B_SOURCES: [(Parallelism, bool); 6] = [
    (Parallelism::Serial, false),
    (Parallelism::Pool(2), false),
    (Parallelism::Pool(4), false),
    (Parallelism::Serial, true),
    (Parallelism::Pool(2), true),
    (Parallelism::Pool(4), true),
];

/// `C := α·op(A)·op(B) + β·C` on the window `(2, 1)` of `c_parent`,
/// from `b` as stored or — `prepacked` — from a `PrepackedB` of it,
/// which `gemm_batch_prepacked` takes with `op(A)` stored as is.
#[allow(clippy::too_many_arguments)]
fn run_b_source(
    (ta, tb): (Transpose, Transpose),
    alpha: f64,
    a: &Matrix,
    b: &MatrixView<'_>,
    beta: f64,
    c_parent: &mut Matrix,
    cfg: &GemmConfig,
    prepacked: bool,
) -> Result<(), dgemm_core::GemmError> {
    let (m, k) = match ta {
        Transpose::No => (a.rows(), a.cols()),
        Transpose::Yes => (a.cols(), a.rows()),
    };
    let n = c_parent.cols() - 1;
    let mut parent = c_parent.view_mut();
    let mut c = parent.sub_mut(2, 1, m, n);
    if !prepacked {
        return try_gemm(ta, tb, alpha, &a.view(), b, beta, &mut c, cfg);
    }
    let op_a = Matrix::from_fn(m, k, |i, p| match ta {
        Transpose::No => a.get(i, p),
        Transpose::Yes => a.get(p, i),
    });
    let (nr, kc, nc) = (cfg.kernel.nr(), cfg.blocks.kc, cfg.blocks.nc);
    let panels = PrepackedB::try_build(b, tb, nr, kc, nc)?;
    gemm_batch_prepacked(alpha, &[op_a.view()], &panels, beta, &mut [c], cfg)
}

/// The "B source" axis: where the register kernels read B from must not
/// change a bit. For every kernel family and either transpose, three
/// row counts at an `mc` of two row groups (`mr·row_group` rows, the
/// rows one kernel call covers on this host): one row group, where each
/// sliver of B is read by one kernel call and even a transposed B is
/// read in place; two row groups of one block; and two blocks. Each runs
/// on a stored B — read in place or packed, as the plan's rule has it —
/// and on the same B as a `PrepackedB`, serially and on the pool, and
/// all of them must agree bitwise and with the oracle.
///
/// B and C are windows of larger parents (`ld > rows`) whose last
/// column ends the allocation. Everything of B's parent outside the
/// window is NaN/Inf, so one element read from outside it — a ragged
/// sliver's missing columns, the rows under a column — poisons C or
/// runs off the slice. C's parent border is `-0.0`, which any stray
/// read-modify-write flips; under β = 0 the window itself starts as
/// NaN/Inf and must be overwritten.
#[test]
fn b_source_axis_conforms() {
    const POISON: u64 = 0x8000_0000_0000_0000;
    let transposes = [Transpose::No, Transpose::Yes];
    for kind in MicroKernelKind::ALL {
        let (mr, nr) = (kind.mr(), kind.nr());
        let group = mr * KernelSet::row_group(&kind);
        let (kc, mc, nc) = (16, 2 * group, 2 * nr);
        let n = nc + nr + 1; // two panels, the second with a ragged sliver
        for (ta, tb) in transposes
            .iter()
            .flat_map(|&ta| transposes.map(|tb| (ta, tb)))
        {
            for (alpha, beta) in [(1.0, 0.0), (-1.5, 0.5), (0.0, 2.0)] {
                for k in [1, kc, kc + 7] {
                    // one ragged row group, two groups of one block, two
                    // blocks
                    for m in [group.saturating_sub(3).max(1), mc, mc + 3] {
                        let what = format!(
                            "{kind:?} ta={ta:?} tb={tb:?} alpha={alpha} beta={beta} {m}x{n}x{k}"
                        );
                        let (ar, ac) = stored_dims(ta, m, k);
                        let (br, bc) = stored_dims(tb, k, n);
                        let a = Matrix::random(ar, ac, 151);
                        let b_parent = windowed(&Matrix::random(br, bc, 152), &junk);
                        let b: MatrixView<'_> = b_parent.view().sub(2, 1, br, bc);
                        assert!(b.ld() > b.rows() && b.data().len() == (bc - 1) * b.ld() + br);
                        let c0 = if beta == 0.0 {
                            Matrix::from_fn(m, n, junk)
                        } else {
                            Matrix::random(m, n, 153)
                        };
                        let c_parent = windowed(&c0, &|_, _| f64::from_bits(POISON));

                        let mut want = if beta == 0.0 {
                            Matrix::zeros(m, n)
                        } else {
                            c0.clone()
                        };
                        naive_gemm(ta, tb, alpha, &a.view(), &b, beta, &mut want.view_mut());
                        let tol = gemm_tolerance(k, 4.0);

                        let mut baseline: Option<Vec<u64>> = None;
                        for (par, prepacked) in B_SOURCES {
                            let source = format!("{what} {par:?} prepacked={prepacked}");
                            let cfg = GemmConfig::for_kernel(kind, 1)
                                .with_blocks(kc, mc, nc)
                                .with_parallelism(par);
                            let mut parent = c_parent.clone();
                            let ops = (ta, tb);
                            run_b_source(ops, alpha, &a, &b, beta, &mut parent, &cfg, prepacked)
                                .unwrap_or_else(|e| panic!("{source}: {e}"));
                            for j in 0..n {
                                for i in 0..m {
                                    let (got, oracle) = (parent.get(i + 2, j + 1), want.get(i, j));
                                    assert!(
                                        (got - oracle).abs() <= tol,
                                        "{source}: C[{i},{j}] = {got} vs oracle {oracle}"
                                    );
                                }
                            }
                            let bits: Vec<u64> =
                                parent.as_slice().iter().map(|x| x.to_bits()).collect();
                            for j in 0..n + 1 {
                                for i in 0..m + 2 {
                                    assert!(
                                        (i >= 2 && j >= 1) || bits[i + j * (m + 2)] == POISON,
                                        "{source}: C's border written at ({i},{j})"
                                    );
                                }
                            }
                            match &baseline {
                                None => baseline = Some(bits),
                                Some(base) => assert_eq!(
                                    &bits, base,
                                    "{source}: not bit-identical to serial on the stored B"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
}

/// IEEE specials *inside* B: NaN, ±Inf, −0.0 and a subnormal planted in
/// the window itself, in different panels, slivers and depth blocks, on
/// three calls of the default kernel — a multi-block call on a stored B
/// (read in place by a SIMD kernel), a one-row-group call on a stored Bᵀ
/// (read in place by every kernel), and each of them on the same B as a
/// `PrepackedB` — on `Serial`, `Pool(2)` and `Pool(4)`, at β = 0 over a
/// poisoned C and at β = 0.5. Every source gives the same bits, NaN and
/// ±Inf land exactly where the naive oracle puts them, and every finite
/// element is within its tolerance.
#[test]
fn ieee_specials_inside_b_conform() {
    let kind = GemmConfig::default().kernel;
    let (mr, nr) = (kind.mr(), kind.nr());
    let group = mr * KernelSet::row_group(&kind);
    let (kc, mc, nc) = (16, 2 * group, 2 * nr);
    let (n, k) = (nc + nr + 1, kc + 7);
    // (row p, column j) of op(B), and what goes there
    let specials = [
        (1, 2, f64::NAN),
        (kc + 2, n - 1, f64::INFINITY),
        (kc - 1, nr, f64::NEG_INFINITY),
        (0, nc, -0.0),
        (kc + 5, 1, f64::MIN_POSITIVE / 8.0),
    ];
    let op_b = {
        let mut op_b = Matrix::random(k, n, 161);
        for (p, j, x) in specials {
            op_b.set(p, j, x);
        }
        op_b
    };
    assert!((f64::MIN_POSITIVE / 8.0).is_subnormal());
    for (m, tb) in [
        (2 * mc + 3, Transpose::No),
        (group.min(mr + 1), Transpose::Yes),
    ] {
        let (br, bc) = stored_dims(tb, k, n);
        let stored = Matrix::from_fn(br, bc, |i, j| match tb {
            Transpose::No => op_b.get(i, j),
            Transpose::Yes => op_b.get(j, i),
        });
        let b_parent = windowed(&stored, &junk);
        let b = b_parent.view().sub(2, 1, br, bc);
        let a = Matrix::random(m, k, 162);
        for beta in [0.0, 0.5] {
            let what = format!("{m}x{n}x{k} tb={tb:?} beta={beta}");
            let c0 = if beta == 0.0 {
                Matrix::from_fn(m, n, junk)
            } else {
                Matrix::random(m, n, 163)
            };
            let mut want = if beta == 0.0 {
                Matrix::zeros(m, n)
            } else {
                c0.clone()
            };
            let ops = (Transpose::No, tb);
            naive_gemm(ops.0, tb, 1.5, &a.view(), &b, beta, &mut want.view_mut());
            assert!(
                want.as_slice().iter().any(|x| x.is_nan())
                    && want.as_slice().iter().any(|x| x.is_infinite()),
                "{what}: the oracle sees the specials"
            );
            let tol = gemm_tolerance(k, 4.0);
            let mut baseline: Option<Vec<u64>> = None;
            for (par, prepacked) in B_SOURCES {
                let source = format!("{what} {par:?} prepacked={prepacked}");
                let cfg = GemmConfig::default()
                    .with_blocks(kc, mc, nc)
                    .with_parallelism(par);
                let mut parent = windowed(&c0, &|_, _| 0.0);
                run_b_source(ops, 1.5, &a, &b, beta, &mut parent, &cfg, prepacked)
                    .unwrap_or_else(|e| panic!("{source}: {e}"));
                for j in 0..n {
                    for i in 0..m {
                        let (got, oracle) = (parent.get(i + 2, j + 1), want.get(i, j));
                        let lands = if oracle.is_nan() {
                            got.is_nan()
                        } else if oracle.is_infinite() {
                            got == oracle
                        } else {
                            (got - oracle).abs() <= tol
                        };
                        assert!(lands, "{source}: C[{i},{j}] = {got} vs oracle {oracle}");
                    }
                }
                let bits: Vec<u64> = parent.as_slice().iter().map(|x| x.to_bits()).collect();
                match &baseline {
                    None => baseline = Some(bits),
                    Some(base) => assert_eq!(&bits, base, "{source}: not the serial stored bits"),
                }
            }
        }
    }
}

/// IEEE specials *inside* A: NaN, ±Inf, −0.0 and a subnormal planted in
/// the window of A itself — a window of a NaN/Inf parent — in different
/// rows, row blocks and depth panels, for either transpose of A, on the
/// default kernel and a B as stored. Each runs under a row split (four
/// `mc` blocks, so every pooled cell packs a range of A's rows) and a
/// column split (one block, so every cell packs all of them), on
/// `Serial`, `Pool(2)` and `Pool(4)`, at β = 0 over a poisoned C and at
/// β = 0.5. Every runtime gives the serial bits, NaN and ±Inf land
/// exactly where the naive oracle puts them, and every finite element is
/// within its tolerance.
#[test]
fn ieee_specials_inside_a_conform() {
    let kind = GemmConfig::default().kernel;
    let (mr, nr) = (kind.mr(), kind.nr());
    let isa = KernelSet::isa(&kind);
    let (kc, mc, nc) = (16, mr * KernelSet::row_group(&kind), 4 * nr);
    let (n, k) = (nc + nr + 1, kc + 7);
    // B as stored is read in place by a SIMD kernel and packed past one
    // block by the portable one
    let b_source = if isa > Isa::Portable {
        BSource::InPlace
    } else {
        BSource::Packed
    };
    let b = Matrix::random(k, n, 171);
    for (m, rows_split) in [(4 * mc, true), (mc - 3, false)] {
        for p in [2, 4] {
            for width in [nc, n % nc] {
                let (row_ranges, col_chunks) =
                    cell_grid(m, width, k, kc, mc, nr, p, b_source, isa, None);
                let split = if rows_split { row_ranges } else { col_chunks };
                assert!(
                    split > 1 && (row_ranges == 1) != rows_split,
                    "{m} rows on Pool({p})"
                );
            }
        }
        // (row i, depth p) of op(A), and what goes there
        let specials = [
            (1, 2, f64::NAN),
            (m - 1, kc + 2, f64::INFINITY),
            (m / 2, kc - 1, f64::NEG_INFINITY),
            (0, kc, -0.0),
            (m / 2 + 1, 5, f64::MIN_POSITIVE / 8.0),
        ];
        let mut op_a = Matrix::random(m, k, 172);
        for (i, p, x) in specials {
            op_a.set(i, p, x);
        }
        for ta in [Transpose::No, Transpose::Yes] {
            let (ar, ac) = stored_dims(ta, m, k);
            let stored = Matrix::from_fn(ar, ac, |i, j| match ta {
                Transpose::No => op_a.get(i, j),
                Transpose::Yes => op_a.get(j, i),
            });
            let a_parent = windowed(&stored, &junk);
            let a = a_parent.view().sub(2, 1, ar, ac);
            for beta in [0.0, 0.5] {
                let what = format!("{m}x{n}x{k} ta={ta:?} beta={beta}");
                let c0 = if beta == 0.0 {
                    Matrix::from_fn(m, n, junk)
                } else {
                    Matrix::random(m, n, 173)
                };
                let mut want = if beta == 0.0 {
                    Matrix::zeros(m, n)
                } else {
                    c0.clone()
                };
                let b = b.view();
                naive_gemm(ta, Transpose::No, 1.5, &a, &b, beta, &mut want.view_mut());
                assert!(
                    want.as_slice().iter().any(|x| x.is_nan())
                        && want.as_slice().iter().any(|x| x.is_infinite()),
                    "{what}: the oracle sees the specials"
                );
                let tol = gemm_tolerance(k, 4.0);
                let mut baseline: Option<Vec<u64>> = None;
                for par in [
                    Parallelism::Serial,
                    Parallelism::Pool(2),
                    Parallelism::Pool(4),
                ] {
                    let source = format!("{what} {par:?}");
                    let cfg = GemmConfig::default()
                        .with_blocks(kc, mc, nc)
                        .with_parallelism(par);
                    let mut parent = windowed(&c0, &|_, _| 0.0);
                    let mut c = parent.view_mut();
                    let mut c = c.sub_mut(2, 1, m, n);
                    try_gemm(ta, Transpose::No, 1.5, &a, &b, beta, &mut c, &cfg)
                        .unwrap_or_else(|e| panic!("{source}: {e}"));
                    for j in 0..n {
                        for i in 0..m {
                            let (got, oracle) = (parent.get(i + 2, j + 1), want.get(i, j));
                            let lands = if oracle.is_nan() {
                                got.is_nan()
                            } else if oracle.is_infinite() {
                                got == oracle
                            } else {
                                (got - oracle).abs() <= tol
                            };
                            assert!(lands, "{source}: C[{i},{j}] = {got} vs oracle {oracle}");
                        }
                    }
                    let bits: Vec<u64> = parent.as_slice().iter().map(|x| x.to_bits()).collect();
                    match &baseline {
                        None => baseline = Some(bits),
                        Some(base) => assert_eq!(&bits, base, "{source}: not the serial bits"),
                    }
                }
            }
        }
    }
}

/// Shape-adaptive dispatch must never change results. Every plan — a
/// fixed `Serial` or `Pool(4)` runtime, and the cost-model `Auto` pick —
/// must be bit-identical to the serial uncached run, for
/// every kernel, cached and uncached, on shapes where `m % mc != 0`
/// AND `n % nc != 0` AND `n % nr != 0`: ragged trailing M-band, ragged
/// trailing `jj` panel, and a ragged trailing sliver *inside* the grid
/// cells all at once.
#[test]
fn dispatch_modes_conform_on_ragged_grid_cells() {
    for kind in MicroKernelKind::ALL {
        let (mr, nr) = (kind.mr(), kind.nr());
        let (kc, mc, nc) = (16, 2 * mr, 4 * nr);
        let (m, n, k) = (2 * mc + 3, nc + 2 * nr + 1, kc + 7);
        assert!(m % mc != 0 && n % nc != 0 && n % nr != 0);
        let a = Matrix::random(m, k, 131);
        let b = Matrix::random(k, n, 132);
        let c0 = Matrix::random(m, n, 133);

        // serial uncached bitwise reference
        let mut base = c0.clone();
        let serial = GemmConfig::for_kernel(kind, 1).with_blocks(kc, mc, nc);
        try_gemm(
            Transpose::No,
            Transpose::No,
            1.25,
            &a.view(),
            &b.view(),
            -0.5,
            &mut base.view_mut(),
            &serial,
        )
        .unwrap();

        for cached in [false, true] {
            for (mode, runtime) in [
                (DispatchMode::Fixed, Parallelism::Pool(4)),
                (DispatchMode::Fixed, Parallelism::Serial),
                (DispatchMode::Auto, Parallelism::Pool(4)),
            ] {
                let cfg = GemmConfig::for_kernel(kind, 1)
                    .with_blocks(kc, mc, nc)
                    .with_parallelism(runtime)
                    .with_pack_cache(cached)
                    .with_dispatch(mode);
                let mut c = c0.clone();
                try_gemm(
                    Transpose::No,
                    Transpose::No,
                    1.25,
                    &a.view(),
                    &b.view(),
                    -0.5,
                    &mut c.view_mut(),
                    &cfg,
                )
                .unwrap_or_else(|e| panic!("{kind:?} {mode:?} {runtime:?} cached={cached}: {e}"));
                assert_eq!(
                    c.view().data(),
                    base.view().data(),
                    "{kind:?} {mode:?} {runtime:?} cached={cached} ({m}x{n}x{k}): \
                     dispatch diverges bitwise from serial uncached"
                );
            }
        }
        f64::pack_cache().invalidate(&b.view());
    }
}

/// The race the register kernels' masked store exists to prevent, named.
///
/// The pool's threads own disjoint `mc`-row bands of one C. A SIMD
/// kernel that wrote back a full vector on a ragged `m_eff < mr` tile
/// would spill into the rows below: with `m = 4·mc + 3` that is the
/// parent matrix's border under the last band, and with an `mc` that is
/// not a multiple of `mr` it is the first rows of the *next thread's*
/// band — a data race, not just a wrong answer. C is a window of a
/// parent matrix (`ld > rows`) whose border is `-0.0`: the packed
/// slivers are zero-padded, so a stray lane adds `α·(+0.0)`, which
/// leaves every value but `-0.0` (and a NaN payload) bit-intact. A stray
/// lane into the border therefore flips a sign bit deterministically;
/// one into a neighbour's band shows only as a lost update, which is why
/// the dense-sliver unit tests in `simd.rs` are the exhaustive check and
/// this one names the race at the level it would happen.
#[test]
fn pooled_ragged_tiles_stay_inside_their_bands_and_inside_c() {
    const POISON: u64 = 0x8000_0000_0000_0000;
    const PAD: usize = 8; // one full zmm of rows above and below C
    let kind = MicroKernelKind::Mk8x6;
    let base = GemmConfig::default();
    assert_eq!(base.kernel, kind);
    let ragged_bands = base.with_blocks(16, kind.mr() + kind.mr() / 2, 2 * kind.nr());
    for cfg in [base, ragged_bands] {
        let mc = cfg.blocks.mc;
        let (m, n, k) = (4 * mc + 3, 2 * kind.nr() + 1, 37);
        let a = Matrix::random(m, k, 141);
        let b = Matrix::random(k, n, 142);
        let c0 = Matrix::random(m, n, 143);
        let run = |par: Parallelism| {
            let mut parent = Matrix::from_fn(m + 2 * PAD, n + 2, |i, j| {
                if (PAD..PAD + m).contains(&i) && (1..=n).contains(&j) {
                    c0.get(i - PAD, j - 1)
                } else {
                    f64::from_bits(POISON)
                }
            });
            try_gemm(
                Transpose::No,
                Transpose::No,
                1.25,
                &a.view(),
                &b.view(),
                -0.5,
                &mut parent.view_mut().sub_mut(PAD, 1, m, n),
                &cfg.with_parallelism(par),
            )
            .unwrap_or_else(|e| panic!("{par:?} mc={mc}: {e}"));
            let bits: Vec<u64> = parent.as_slice().iter().map(|x| x.to_bits()).collect();
            for j in 0..n + 2 {
                for i in 0..m + 2 * PAD {
                    let inside = (PAD..PAD + m).contains(&i) && (1..=n).contains(&j);
                    assert!(
                        inside || bits[i + j * (m + 2 * PAD)] == POISON,
                        "{par:?} mc={mc}: parent border written at ({i},{j})"
                    );
                }
            }
            bits
        };
        assert_eq!(
            run(Parallelism::Pool(4)),
            run(Parallelism::Serial),
            "mc={mc} ({m}x{n}x{k}): pooled C differs bitwise from serial"
        );
    }
}

/// Every grid the pool cuts is the serial walk, bit for bit — not within
/// tolerance. A cell keeps the `(jj, kk)` order of every element of C it
/// owns, column chunks start on `nr` multiples and row ranges on `mc`
/// blocks, and how many blocks or slivers a cell holds changes no
/// element's arithmetic: so `Pool(p)` at any degree, over any shape,
/// transpose, B source, batch or precision, must reproduce `Serial`'s
/// bits. The shapes are the grid function's cases: square (columns),
/// the skinny call (one block: columns, B read in place — its exact
/// counters are pinned in `telemetry_properties`), `m ≫ n` with fewer
/// slivers than threads (rows), and ragged in every direction over
/// several panels.
#[test]
fn every_pool_grid_is_bit_identical_to_serial() {
    const DEGREES: [usize; 5] = [1, 2, 3, 5, 8];
    let transposes = [Transpose::No, Transpose::Yes];
    let ragged = Some((16, 24, 30));
    for ((m, n, k), blocks) in [
        ((160, 150, 70), None),
        ((8, 512, 512), None),
        ((4096, 12, 64), None),
        ((131, 77, 53), ragged),
        ((23, 100, 40), ragged),
    ] {
        for (ta, tb) in transposes
            .iter()
            .flat_map(|&ta| transposes.map(|tb| (ta, tb)))
        {
            let (ar, ac) = stored_dims(ta, m, k);
            let (br, bc) = stored_dims(tb, k, n);
            let a = Matrix::random(ar, ac, 161);
            let b = Matrix::random(br, bc, 162);
            let c0 = Matrix::random(m, n, 163);
            let run = |par: Parallelism| {
                let mut cfg = GemmConfig::default().with_parallelism(par);
                if let Some((kc, mc, nc)) = blocks {
                    cfg = cfg.with_blocks(kc, mc, nc);
                }
                let mut c = c0.clone();
                try_gemm(
                    ta,
                    tb,
                    1.25,
                    &a.view(),
                    &b.view(),
                    -0.5,
                    &mut c.view_mut(),
                    &cfg,
                )
                .unwrap_or_else(|e| panic!("{par:?} {m}x{n}x{k}: {e}"));
                c
            };
            let want = run(Parallelism::Serial);
            for p in DEGREES {
                assert_eq!(
                    run(Parallelism::Pool(p)).view().data(),
                    want.view().data(),
                    "Pool({p}) ta={ta:?} tb={tb:?} {m}x{n}x{k} blocks {blocks:?}"
                );
            }
        }
    }

    // A batch against one B, packed per call and served from a
    // PrepackedB (where the grid splits the stacked rows instead). Both
    // sides stack the batch's rows; each entry is held to its own call in
    // `every_batch_entry_is_its_own_call_bit_for_bit`.
    let (m, n, k, entries) = (20, 130, 45, 7);
    let a: Vec<Matrix> = (0..entries)
        .map(|i| Matrix::random(m, k, 170 + i))
        .collect();
    let a_views: Vec<MatrixView<'_>> = a.iter().map(Matrix::view).collect();
    let b = Matrix::random(k, n, 180);
    let c0 = Matrix::random(m, n, 181);
    for cached in [false, true] {
        let run = |par: Parallelism| {
            let cfg = GemmConfig::default()
                .with_blocks(16, 8, 60)
                .with_parallelism(par)
                .with_pack_cache(cached);
            let mut c: Vec<Matrix> = a.iter().map(|_| c0.clone()).collect();
            let mut c_views: Vec<_> = c.iter_mut().map(Matrix::view_mut).collect();
            let tb = Transpose::No;
            gemm_batch_shared_b(1.25, &a_views, tb, &b.view(), -0.5, &mut c_views, &cfg)
                .unwrap_or_else(|e| panic!("batch {par:?} cached={cached}: {e}"));
            drop(c_views);
            c
        };
        let want = run(Parallelism::Serial);
        for p in DEGREES {
            assert_eq!(
                run(Parallelism::Pool(p)),
                want,
                "batch Pool({p}) cached={cached}"
            );
        }
    }
    f64::pack_cache().invalidate(&b.view());

    // Single precision runs the same cells through its own kernels.
    let (m, n, k) = (150, 90, 70);
    let a: Matrix<f32> = Matrix::random(m, k, 190);
    let b: Matrix<f32> = Matrix::random(k, n, 191);
    let c0: Matrix<f32> = Matrix::random(m, n, 192);
    let run = |par: Parallelism| {
        let cfg = SgemmConfig::default().with_parallelism(par);
        let mut c = c0.clone();
        let (ta, tb) = (Transpose::No, Transpose::Yes);
        let bt = b.transposed();
        sgemm(
            ta,
            tb,
            1.25,
            &a.view(),
            &bt.view(),
            -0.5,
            &mut c.view_mut(),
            &cfg,
        )
        .unwrap_or_else(|e| panic!("sgemm {par:?}: {e}"));
        c
    };
    let want = run(Parallelism::Serial);
    for p in DEGREES {
        assert_eq!(run(Parallelism::Pool(p)), want, "sgemm Pool({p})");
    }
}

/// The shared-B batch against an oracle that does not stack. The walk
/// stacks a batch's rows into full `mc` blocks, so a block may straddle
/// entries and a sliver hold rows of two; every runtime, cached or not,
/// runs that same stacking, so comparing them with each other cannot
/// catch a stacking bug. Each entry is held instead to a single
/// `try_gemm` of that entry alone, to the bit. Every A is a window of a
/// taller parent, so packed runs start off row 0. Every C is a window of
/// a `-0.0`-bordered parent: a packed sliver's zero padding adds
/// `α·(+0.0)`, so a stray lane into the border flips a sign bit, and the
/// border must come back untouched.
#[test]
fn every_batch_entry_is_its_own_call_bit_for_bit() {
    const NEG_ZERO: u64 = 0x8000_0000_0000_0000;
    let (n, k, most, alpha) = (70, 45, 9, 1.25);
    let runtimes = [
        Parallelism::Serial,
        Parallelism::Pool(1),
        Parallelism::Pool(2),
        Parallelism::Pool(3),
    ];
    let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for m in [1, 5, 8, 13, 16, 57] {
        let ld = m + 2;
        let a_parents: Vec<Matrix> = (0..most)
            .map(|i| Matrix::random(m + 3, k, 300 + i as u64))
            .collect();
        let a: Vec<MatrixView<'_>> = a_parents.iter().map(|p| p.view().sub(2, 0, m, k)).collect();
        let c0: Vec<Matrix> = (0..most)
            .map(|i| Matrix::random(m, n, 320 + i as u64))
            .collect();
        for tb in [Transpose::No, Transpose::Yes] {
            let (br, bc) = stored_dims(tb, k, n);
            let b = Matrix::random(br, bc, 310);
            for blocks in [Some((16, 8, 60)), None] {
                let cfg = |par: Parallelism, cached: bool| {
                    let cfg = GemmConfig::default()
                        .with_parallelism(par)
                        .with_pack_cache(cached);
                    match blocks {
                        Some((kc, mc, nc)) => cfg.with_blocks(kc, mc, nc),
                        None => cfg,
                    }
                };
                for beta in [0.0, 1.0, -0.5] {
                    let want: Vec<Vec<u64>> = (0..most)
                        .map(|i| {
                            let mut c = c0[i].clone();
                            let serial = cfg(Parallelism::Serial, false);
                            try_gemm(
                                Transpose::No,
                                tb,
                                alpha,
                                &a[i],
                                &b.view(),
                                beta,
                                &mut c.view_mut(),
                                &serial,
                            )
                            .unwrap();
                            bits(c.as_slice())
                        })
                        .collect();
                    for (par, cached) in
                        runtimes.iter().flat_map(|&par| [(par, false), (par, true)])
                    {
                        for entries in 1..=most {
                            let case = format!(
                                "{par:?} cached={cached} tb={tb:?} blocks {blocks:?} β={beta} \
                                 {entries} x {m}x{n}x{k}"
                            );
                            let mut parents: Vec<Matrix> = c0[..entries]
                                .iter()
                                .map(|c| {
                                    Matrix::from_fn(ld, n + 2, |i, j| {
                                        let inside = (1..=m).contains(&i) && (1..=n).contains(&j);
                                        if inside {
                                            c.get(i - 1, j - 1)
                                        } else {
                                            f64::from_bits(NEG_ZERO)
                                        }
                                    })
                                })
                                .collect();
                            let mut views: Vec<MatrixViewMut<'_>> = parents
                                .iter_mut()
                                .map(|p| {
                                    MatrixViewMut::from_slice(
                                        m,
                                        n,
                                        ld,
                                        &mut p.as_mut_slice()[1 + ld..],
                                    )
                                })
                                .collect();
                            let b = b.view();
                            let cfg = cfg(par, cached);
                            gemm_batch_shared_b(
                                alpha,
                                &a[..entries],
                                tb,
                                &b,
                                beta,
                                &mut views,
                                &cfg,
                            )
                            .unwrap_or_else(|e| panic!("{case}: {e}"));
                            drop(views);
                            for (entry, parent) in parents.iter().enumerate() {
                                let got = bits(parent.as_slice());
                                for j in 0..n + 2 {
                                    for i in 0..ld {
                                        let inside = (1..=m).contains(&i) && (1..=n).contains(&j);
                                        let want = if inside {
                                            want[entry][(i - 1) + (j - 1) * m]
                                        } else {
                                            NEG_ZERO
                                        };
                                        assert_eq!(
                                            got[i + j * ld],
                                            want,
                                            "{case}: entry {entry} at ({i}, {j}) of its parent"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
            f64::pack_cache().invalidate(&b.view());
        }
    }
}

/// Figure 2 as the paper draws it, from the library's public pieces: β
/// over all of C first, then `jj` / `kk` / `ii` with B packed once per
/// `(jj, kk)` — always, also where the library reads it in place — and A
/// once per block, one full-width GEBP each. It shares the packing
/// routines and the register kernels with the library and nothing above
/// them: no cell, no grid, no B-source rule, no fallible packing.
#[allow(clippy::too_many_arguments)]
fn textbook_gemm(
    kind: MicroKernelKind,
    ta: Transpose,
    tb: Transpose,
    alpha: f64,
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    (kc, mc, nc): (usize, usize, usize),
) {
    let (m, k) = ta.apply_dims(a.rows(), a.cols());
    let n = c.cols();
    c.scale(beta);
    let (mut pa, mut pb) = (PackedA::new(kind.mr()), PackedB::new(kind.nr()));
    for jj in (0..n).step_by(nc) {
        let nc_eff = nc.min(n - jj);
        for kk in (0..k).step_by(kc) {
            let kc_eff = kc.min(k - kk);
            pb.pack(b, tb, kk, jj, kc_eff, nc_eff);
            let mut panel = c.sub_mut(0, jj, m, nc_eff);
            let ld = panel.ld();
            let mut panel = TileMut::from_slice(m, nc_eff, ld, panel.data_mut());
            for ii in (0..m).step_by(mc) {
                let mc_eff = mc.min(m - ii);
                pa.pack(a, ta, ii, kk, mc_eff, kc_eff);
                let mut tile = panel.sub_tile(ii, 0, mc_eff, nc_eff);
                gebp(kind, alpha, &pa, &pb, &mut tile);
            }
        }
    }
}

/// The bit baseline of every case above, judged by something that is not
/// it: `Parallelism::Serial`, uncached, against [`textbook_gemm`] — over
/// the remainder shapes, one ragged and one full `mc` block (B read in
/// place when it is not transposed, over two panels), a single row, and
/// the skinny call under each kernel's analytic blocking; every transpose
/// pair, β = 0, 1 and two others.
#[test]
fn the_serial_walk_is_the_textbook_nest_bit_for_bit() {
    let transposes = [Transpose::No, Transpose::Yes];
    for kind in MicroKernelKind::ALL {
        let (mr, nr) = (kind.mr(), kind.nr());
        let small = Some((16, 2 * mr, 2 * nr));
        for ((m, n, k), blocks) in [
            ((2 * mr + 3, 3 * nr + 1, 23), small),
            ((mr + 1, nr + 1, 15), small),
            ((3 * mr - 1, 2 * nr - 1, 33), small),
            ((mr + 3, 3 * nr + 1, 23), small),
            ((2 * mr, 3 * nr + 1, 16), small),
            ((1, 2 * nr + 2, 19), small),
            ((8, 512, 512), None),
        ] {
            let mut cfg = GemmConfig::for_kernel(kind, 1);
            if let Some((kc, mc, nc)) = blocks {
                cfg = cfg.with_blocks(kc, mc, nc);
            }
            let blocks = (cfg.blocks.kc, cfg.blocks.mc, cfg.blocks.nc);
            for (ta, tb) in transposes
                .iter()
                .flat_map(|&ta| transposes.map(|tb| (ta, tb)))
            {
                let (ar, ac) = stored_dims(ta, m, k);
                let (br, bc) = stored_dims(tb, k, n);
                let a = Matrix::random(ar, ac, 201);
                let b = Matrix::random(br, bc, 202);
                let c0 = Matrix::random(m, n, 203);
                for (alpha, beta) in [(1.0, 0.0), (1.25, -0.5), (1.0, 1.0), (-0.75, 3.0)] {
                    let mut want = c0.clone();
                    let (av, bv) = (a.view(), b.view());
                    let c = &mut want.view_mut();
                    textbook_gemm(kind, ta, tb, alpha, &av, &bv, beta, c, blocks);
                    let mut got = c0.clone();
                    try_gemm(ta, tb, alpha, &av, &bv, beta, &mut got.view_mut(), &cfg)
                        .unwrap_or_else(|e| panic!("{kind:?} {m}x{n}x{k}: {e}"));
                    assert_eq!(
                        got.view().data(),
                        want.view().data(),
                        "{kind:?} ta={ta:?} tb={tb:?} alpha={alpha} beta={beta} {m}x{n}x{k} \
                         blocks {blocks:?}: Serial is not the textbook nest"
                    );
                }
            }
        }
    }
}

/// Everything `GemmConfig::auto()` can return for the default kernel —
/// thread count × dispatch mode × pack cache, the three things
/// `DGEMM_NUM_THREADS`, `DGEMM_DISPATCH` and `DGEMM_PACK_CACHE` set, plus
/// either runtime fixed whatever the thread count — built explicitly, on a shape large enough to engage several layer-3
/// blocks; then `auto()` itself once, so whatever `DGEMM_*` a developer
/// has exported is honoured too. Parsing those variables is pinned where
/// it happens (`gemm.rs` unit tests).
#[test]
fn auto_config_conforms_in_this_environment() {
    let (m, n, k) = (97, 64, 51);
    let a = Matrix::random(m, k, 91);
    let b = Matrix::random(k, n, 92);
    let c0 = Matrix::random(m, n, 93);

    let mut want = c0.clone();
    naive_gemm(
        Transpose::No,
        Transpose::No,
        1.5,
        &a.view(),
        &b.view(),
        -0.25,
        &mut want.view_mut(),
    );
    let run = |cfg: &GemmConfig| {
        let mut c = c0.clone();
        try_gemm(
            Transpose::No,
            Transpose::No,
            1.5,
            &a.view(),
            &b.view(),
            -0.25,
            &mut c.view_mut(),
            cfg,
        )
        .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        c
    };
    let conforms = |cfg: GemmConfig| {
        // the serial uncached walk of the same blocking, for the bits
        let base = run(&cfg
            .with_parallelism(Parallelism::Serial)
            .with_dispatch(DispatchMode::Fixed)
            .with_pack_cache(false));
        let got = run(&cfg);
        assert!(got.max_abs_diff(&want) <= gemm_tolerance(k, 4.0), "{cfg:?}");
        assert_eq!(
            got.view().data(),
            base.view().data(),
            "{cfg:?} diverges bitwise from serial"
        );
    };

    for threads in [1, 2, 8] {
        let auto = Parallelism::from_threads(threads);
        for (mode, runtime) in [
            (DispatchMode::Fixed, auto),
            (DispatchMode::Fixed, Parallelism::Serial),
            (DispatchMode::Fixed, Parallelism::Pool(threads)),
            (DispatchMode::Auto, auto),
        ] {
            for cached in [false, true] {
                conforms(
                    GemmConfig::for_kernel(MicroKernelKind::DEFAULT, threads)
                        .with_parallelism(runtime)
                        .with_dispatch(mode)
                        .with_pack_cache(cached),
                );
            }
        }
    }
    conforms(GemmConfig::auto().expect("auto config must parse in this environment"));
    f64::pack_cache().invalidate(&b.view());
}
