//! Paired in-process A/B probe: this tree's `dgemm-core` and another
//! revision's (renamed `dgemm-core-parent` by `scripts/ab.sh`), linked
//! into one binary and timed in alternation, so the host's slow and fast
//! states fall on both sides alike.
//!
//! Before anything is timed, every case's result on each side must equal
//! that side's own `Serial` result bit for bit (a `Serial` case's: the
//! same call into a fresh C, where it ran into one full of NaN or into
//! the C the previous call left); a mismatch panics and the run fails.
//! The ratios are printed, never judged.
//!
//! ```text
//! dgemm-ab --rev LABEL [--rounds N]
//! ```

use std::time::{Duration, Instant};

/// One timed workload.
#[derive(Clone, Copy)]
enum Case {
    /// 512³ `dgemm`, `Serial` or `Pool(2)`, at this β.
    Square { pool: bool, beta: f64 },
    /// 8×512×512 `dgemm`, `Serial`, β = 0, B (or, `trans`, Bᵀ) taken
    /// from a ring of [`RING`] matrices in turn, so it is not in cache.
    Ring { trans: bool },
    /// `m`×512×512 `dgemm`, `Serial` or `Pool(2)`, β = 0, against one B
    /// (or, `trans`, Bᵀ): `m` is one of [`ROWS`].
    Rows { m: usize, trans: bool, pool: bool },
    /// Eight 16×512 entries against one `PrepackedB` of a 512×512 B,
    /// `Serial`, β = 0.
    Batch,
}

const fn square(pool: bool, beta: f64) -> Case {
    Case::Square { pool, beta }
}

const fn rows(m: usize, trans: bool, pool: bool) -> Case {
    Case::Rows { m, trans, pool }
}

/// The cases in table order, with the calls one sample takes the
/// median of.
const CASES: [(&str, Case, usize); 15] = [
    ("512³ Serial β=0", square(false, 0.0), 7),
    ("512³ Serial β=0.5", square(false, 0.5), 7),
    ("512³ Serial β=1", square(false, 1.0), 7),
    ("512³ Pool(2) β=0", square(true, 0.0), 9),
    ("512³ Pool(2) β=0.5", square(true, 0.5), 9),
    ("512³ Pool(2) β=1", square(true, 1.0), 9),
    ("8×512×512 ring of B", Case::Ring { trans: false }, 2 * RING),
    ("8×512×512 ring of Bᵀ", Case::Ring { trans: true }, 2 * RING),
    ("128×512×512 Bᵀ Serial", rows(ROWS[0], true, false), 9),
    ("2048×512×512 Serial", rows(ROWS[1], false, false), 5),
    ("2048×512×512 Pool(2)", rows(ROWS[1], false, true), 9),
    ("500×512×512 Pool(2)", rows(ROWS[2], false, true), 9),
    ("384×512×512 Pool(2)", rows(ROWS[3], false, true), 9),
    ("512³ Bᵀ Pool(2)", rows(ROWS[4], true, true), 9),
    ("8 × 16-row batch, PrepackedB", Case::Batch, 9),
];

/// The rows of A the [`Case::Rows`] cases multiply.
const ROWS: [usize; 5] = [128, 2048, 500, 384, 512];

/// B matrices in the ring: 24 MiB a side, past the last-level cache.
const RING: usize = 12;
const N: usize = 512;
const BATCH: usize = 8;
const BATCH_ROWS: usize = 16;

/// What each side provides: run a case once, and every case's checked
/// result.
trait Side {
    fn call(&mut self, case: Case);
    /// Each case's result from the same inputs, after asserting it is
    /// the side's own `Serial` result bit for bit.
    fn check(&self) -> Vec<Vec<f64>>;
}

macro_rules! side {
    ($module:ident, $lib:ident) => {
        mod $module {
            use super::{Case, BATCH, BATCH_ROWS, N, RING, ROWS};
            use $lib::batch::gemm_batch_prepacked;
            use $lib::blas::dgemm;
            use $lib::gemm::GemmConfig;
            use $lib::matrix::{Matrix, MatrixView};
            use $lib::pool::Parallelism;
            use $lib::prepack::PrepackedB;
            use $lib::Transpose::{self, No, Yes};

            /// The timed calls' outputs, apart from the inputs they read.
            pub struct Side {
                inputs: Inputs,
                c: Matrix,
                ring_c: Matrix,
                next: usize,
                rows_c: Vec<Matrix>,
                batch_c: Vec<Matrix>,
            }

            struct Inputs {
                serial: GemmConfig,
                pool: GemmConfig,
                a: Matrix,
                b: Matrix,
                c0: Matrix,
                ring_a: Matrix,
                ring_b: Vec<Matrix>,
                rows_a: Vec<Matrix>,
                batch_a: Vec<Matrix>,
                batch_b: Matrix,
                prepacked: PrepackedB,
            }

            impl Side {
                pub fn new() -> Self {
                    let serial = GemmConfig::default();
                    let pool = GemmConfig::default().with_parallelism(Parallelism::Pool(2));
                    let batch_b = Matrix::random(N, N, 7);
                    let prepacked =
                        PrepackedB::from_matrix(&serial, &batch_b.view()).expect("prepack");
                    let inputs = Inputs {
                        a: Matrix::random(N, N, 1),
                        b: Matrix::random(N, N, 2),
                        c0: Matrix::random(N, N, 3),
                        ring_a: Matrix::random(8, N, 4),
                        ring_b: (0..RING)
                            .map(|i| Matrix::random(N, N, 100 + i as u64))
                            .collect(),
                        rows_a: ROWS
                            .iter()
                            .map(|&m| Matrix::random(m, N, 300 + m as u64))
                            .collect(),
                        batch_a: (0..BATCH)
                            .map(|i| Matrix::random(BATCH_ROWS, N, 200 + i as u64))
                            .collect(),
                        batch_b,
                        prepacked,
                        serial,
                        pool,
                    };
                    Side {
                        c: inputs.c0.clone(),
                        ring_c: Matrix::zeros(8, N),
                        next: 0,
                        rows_c: ROWS.iter().map(|&m| Matrix::zeros(m, N)).collect(),
                        batch_c: (0..BATCH).map(|_| Matrix::zeros(BATCH_ROWS, N)).collect(),
                        inputs,
                    }
                }
            }

            impl Inputs {
                fn square(&self, pool: bool, beta: f64, c: &mut Matrix) {
                    let cfg = if pool { &self.pool } else { &self.serial };
                    let (a, b) = (self.a.view(), self.b.view());
                    dgemm(No, No, 1.0, &a, &b, beta, &mut c.view_mut(), cfg).expect("dgemm");
                }

                fn ring(&self, i: usize, trans: bool, c: &mut Matrix) {
                    let (a, b) = (self.ring_a.view(), self.ring_b[i].view());
                    dgemm(
                        No,
                        op(trans),
                        1.0,
                        &a,
                        &b,
                        0.0,
                        &mut c.view_mut(),
                        &self.serial,
                    )
                    .expect("dgemm");
                }

                fn rows(&self, m: usize, trans: bool, pool: bool, c: &mut Matrix) {
                    let cfg = if pool { &self.pool } else { &self.serial };
                    let a = self.rows_a[row_case(m)].view();
                    let (b, c) = (self.b.view(), &mut c.view_mut());
                    dgemm(No, op(trans), 1.0, &a, &b, 0.0, c, cfg).expect("dgemm");
                }

                fn batch(&self, c: &mut [Matrix]) {
                    let a: Vec<MatrixView<'_>> = self.batch_a.iter().map(Matrix::view).collect();
                    let mut c: Vec<_> = c.iter_mut().map(Matrix::view_mut).collect();
                    gemm_batch_prepacked(1.0, &a, &self.prepacked, 0.0, &mut c, &self.serial)
                        .expect("batch");
                }
            }

            fn op(trans: bool) -> Transpose {
                if trans {
                    Yes
                } else {
                    No
                }
            }

            /// Which of [`ROWS`] a [`Case::Rows`] multiplies.
            fn row_case(m: usize) -> usize {
                ROWS.iter()
                    .position(|&r| r == m)
                    .expect("a row count of ROWS")
            }

            fn same(got: &[f64], want: &[f64], what: &str) {
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(got) == bits(want),
                    "{}: {what} is not the Serial result bit for bit",
                    stringify!($lib)
                );
            }

            impl super::Side for Side {
                fn call(&mut self, case: Case) {
                    match case {
                        Case::Square { pool, beta } => {
                            self.inputs.square(pool, beta, &mut self.c);
                        }
                        Case::Ring { trans } => {
                            self.inputs.ring(self.next % RING, trans, &mut self.ring_c);
                            self.next += 1;
                        }
                        Case::Rows { m, trans, pool } => {
                            self.inputs
                                .rows(m, trans, pool, &mut self.rows_c[row_case(m)]);
                        }
                        Case::Batch => self.inputs.batch(&mut self.batch_c),
                    }
                }

                fn check(&self) -> Vec<Vec<f64>> {
                    let inputs = &self.inputs;
                    super::CASES
                        .iter()
                        .map(|&(what, case, _)| match case {
                            Case::Square { pool, beta } => {
                                let (mut got, mut want) = (inputs.c0.clone(), inputs.c0.clone());
                                inputs.square(pool, beta, &mut got);
                                inputs.square(false, beta, &mut want);
                                same(got.as_slice(), want.as_slice(), what);
                                got.as_slice().to_vec()
                            }
                            Case::Ring { trans } => {
                                // each call into the C the previous one left,
                                // against a call into a fresh one
                                let mut got = Matrix::from_fn(8, N, |_, _| f64::NAN);
                                let mut all = Vec::new();
                                for i in 0..RING {
                                    let mut want = Matrix::zeros(8, N);
                                    inputs.ring(i, trans, &mut got);
                                    inputs.ring(i, trans, &mut want);
                                    same(got.as_slice(), want.as_slice(), what);
                                    all.extend_from_slice(got.as_slice());
                                }
                                all
                            }
                            Case::Rows { m, trans, pool } => {
                                // into a NaN C, against a Serial call into a
                                // fresh one
                                let mut got = Matrix::from_fn(m, N, |_, _| f64::NAN);
                                let mut want = Matrix::zeros(m, N);
                                inputs.rows(m, trans, pool, &mut got);
                                inputs.rows(m, trans, false, &mut want);
                                same(got.as_slice(), want.as_slice(), what);
                                got.as_slice().to_vec()
                            }
                            Case::Batch => {
                                let nan = || Matrix::from_fn(BATCH_ROWS, N, |_, _| f64::NAN);
                                let mut got: Vec<Matrix> = (0..BATCH).map(|_| nan()).collect();
                                inputs.batch(&mut got);
                                let mut all = Vec::new();
                                for (a, got) in inputs.batch_a.iter().zip(&got) {
                                    let mut want = Matrix::zeros(BATCH_ROWS, N);
                                    let (a, b) = (a.view(), inputs.batch_b.view());
                                    let c = &mut want.view_mut();
                                    dgemm(No, No, 1.0, &a, &b, 0.0, c, &inputs.serial)
                                        .expect("dgemm");
                                    same(got.as_slice(), want.as_slice(), what);
                                    all.extend_from_slice(got.as_slice());
                                }
                                all
                            }
                        })
                        .collect()
                }
            }
        }
    };
}

side!(this, dgemm_core);
side!(rev, dgemm_core_parent);

/// The median of `reps` calls' seconds, after one untimed call and a
/// pause that lets the other side's pool threads park.
fn sample(side: &mut dyn Side, case: Case, reps: usize) -> f64 {
    std::thread::sleep(Duration::from_millis(5));
    side.call(case);
    let times = (0..reps).map(|_| {
        let t0 = Instant::now();
        side.call(case);
        t0.elapsed().as_secs_f64()
    });
    median(times.collect())
}

/// The `p`-quantile of sorted `x`, linearly interpolated.
fn quantile(x: &[f64], p: f64) -> f64 {
    let at = p * (x.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    x[lo] + (x[hi] - x[lo]) * (at - lo as f64)
}

fn median(mut x: Vec<f64>) -> f64 {
    x.sort_by(f64::total_cmp);
    quantile(&x, 0.5)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut rev_label, mut rounds) = ("REV".to_string(), 15usize);
    while let Some(arg) = args.next() {
        let value = args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
        match arg.as_str() {
            "--rev" => rev_label = value,
            "--rounds" => rounds = value.parse().expect("--rounds takes a count"),
            _ => panic!("unknown argument {arg}; usage: dgemm-ab --rev LABEL [--rounds N]"),
        }
    }
    assert!(rounds > 0, "--rounds must be positive");

    let (mut this, mut rev) = (this::Side::new(), rev::Side::new());
    let (mine, theirs) = (Side::check(&this), Side::check(&rev));
    let agree: Vec<bool> = mine.iter().zip(&theirs).map(|(x, y)| x == y).collect();

    // times[case] = (this tree's, REV's) seconds per call, one per round
    let mut times = vec![Vec::with_capacity(rounds); CASES.len()];
    let n = CASES.len();
    for round in 0..rounds {
        // Each round starts one case later, so whatever the first slot
        // of a round costs falls on every case in turn, and on each side
        // first in turn; a case alternates sides from round to round.
        for i in (0..n).map(|slot| (round + slot) % n) {
            let (_, case, reps) = CASES[i];
            let this_first = (round + i + round / n).is_multiple_of(2);
            let (t_this, t_rev) = if this_first {
                let t = sample(&mut this, case, reps);
                (t, sample(&mut rev, case, reps))
            } else {
                let t = sample(&mut rev, case, reps);
                (sample(&mut this, case, reps), t)
            };
            times[i].push((t_this, t_rev));
        }
    }

    println!(
        "this tree against {rev_label}, {rounds} rounds; ratio = {rev_label}'s time per call \
         over this tree's (> 1: this tree faster); bits = REV: every result equals \
         {rev_label}'s bit for bit\n"
    );
    println!("| case | this ms | REV ms | ratio (median) | IQR | this faster | bits = REV |");
    println!("|---|---|---|---|---|---|---|");
    for (i, &(what, _, _)) in CASES.iter().enumerate() {
        let mut ratios: Vec<f64> = times[i].iter().map(|&(t, r)| r / t).collect();
        ratios.sort_by(f64::total_cmp);
        let faster = ratios.iter().filter(|&&r| r > 1.0).count();
        println!(
            "| {what} | {:.3} | {:.3} | {:.3} | {:.3}–{:.3} | {faster}/{rounds} | {} |",
            1e3 * median(times[i].iter().map(|t| t.0).collect()),
            1e3 * median(times[i].iter().map(|t| t.1).collect()),
            quantile(&ratios, 0.5),
            quantile(&ratios, 0.25),
            quantile(&ratios, 0.75),
            if agree[i] { "yes" } else { "no" },
        );
    }
}
