//! Cross-crate integration tests: the generated A64 kernel streams, the
//! portable microkernels and the naive oracle must all compute the same
//! numbers; the analytic model, the simulator and the library must agree
//! on the configuration they describe.

use armsim::core::CoreSim;
use armsim::machine::SimMachine;
use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::{run_microkernel, KernelSet, MicroKernelKind};
use dgemm_core::pack::{PackedA, PackedB};
use dgemm_core::reference::naive_gemm;
use dgemm_core::tile::TileMut;
use dgemm_core::util::{gemm_tolerance, SplitMix64};
use dgemm_core::Transpose;
use kernels::regkernel::{
    generate_microkernel_call, padded_a_bytes, padded_b_bytes, GebpAddrs, KernelSpec,
};
use perfmodel::cacheblock::solve_blocking;
use perfmodel::MachineDesc;

/// The generated (simulated-assembly) kernel and the portable Rust
/// microkernel must agree to rounding error. (Not bitwise: the A64
/// kernel accumulates into the loaded C tile with fused multiply-adds,
/// while the portable kernel sums into a zero accumulator and folds C in
/// once at write-back — same k-order, different rounding points.)
#[test]
fn simulated_kernel_matches_portable_microkernel() {
    let cases = [
        (KernelSpec::paper_8x6(Some(512)), MicroKernelKind::Mk8x6),
        (
            KernelSpec::paper_8x6_no_rotation(None),
            MicroKernelKind::Mk8x6,
        ),
        (KernelSpec::paper_8x4(), MicroKernelKind::Mk8x4),
        (KernelSpec::paper_4x4(), MicroKernelKind::Mk4x4),
    ];
    for (spec, kind) in cases {
        let (mr, nr) = (kind.mr(), kind.nr());
        let kc = 96usize;
        let a = Matrix::random(mr, kc, 10);
        let b = Matrix::random(kc, nr, 11);
        let c0 = Matrix::random(mr, nr, 12);

        // portable path
        let mut pa = PackedA::new(mr);
        pa.pack(&a.view(), Transpose::No, 0, 0, mr, kc);
        let mut pb = PackedB::new(nr);
        pb.pack(&b.view(), Transpose::No, 0, 0, kc, nr);
        let mut c_port = c0.clone();
        {
            let mut tile = TileMut::from_slice(mr, nr, mr, c_port.as_mut_slice());
            run_microkernel(kind, kc, pa.sliver(0), pb.sliver(0), 1.0, &mut tile, mr, nr);
        }

        // simulated path: same packed data placed in simulated memory
        let mut core = CoreSim::new(0, 16 << 20);
        let a_addr = core.mem.alloc(padded_a_bytes(mr, kc), 64);
        let b_addr = core.mem.alloc(padded_b_bytes(nr, kc), 64);
        let c_addr = core.mem.alloc(mr * nr * 8, 64);
        core.mem.store_slice(a_addr, pa.sliver(0));
        core.mem.store_slice(b_addr, pb.sliver(0));
        core.mem.store_slice(c_addr, c0.as_slice());
        let stream = generate_microkernel_call(
            &spec,
            kc,
            &GebpAddrs {
                a: a_addr,
                b: b_addr,
                c: c_addr,
                ldc_bytes: (mr * 8) as u64,
            },
        );
        let mut machine = SimMachine::xgene();
        core.run(&stream, &mut machine);
        let c_sim = core.mem.load_slice(c_addr, mr * nr);

        for (s, p) in c_sim.iter().zip(c_port.as_slice()) {
            assert!(
                (s - p).abs() <= 1e-12 * (1.0 + p.abs()),
                "{}: simulated {s} vs portable {p}",
                kind.label()
            );
        }
    }
}

/// Full blocked DGEMM vs the naive oracle across a randomized matrix of
/// shapes, kernels, transposes, scalars and thread counts.
#[test]
fn randomized_dgemm_against_oracle() {
    let mut rng = SplitMix64::new(20260706);
    for trial in 0..40 {
        let m = 1 + rng.next_below(160);
        let n = 1 + rng.next_below(160);
        let k = 1 + rng.next_below(160);
        let kind = MicroKernelKind::ALL[rng.next_below(4)];
        let ta = if rng.next_below(2) == 0 {
            Transpose::No
        } else {
            Transpose::Yes
        };
        let tb = if rng.next_below(2) == 0 {
            Transpose::No
        } else {
            Transpose::Yes
        };
        let alpha = (rng.next_f64() - 0.5) * 4.0;
        let beta = [0.0, 1.0, -1.5][rng.next_below(3)];
        let threads = [1, 2, 4][rng.next_below(3)];

        let (ar, ac) = match ta {
            Transpose::No => (m, k),
            Transpose::Yes => (k, m),
        };
        let (br, bc) = match tb {
            Transpose::No => (k, n),
            Transpose::Yes => (n, k),
        };
        let a = Matrix::random(ar, ac, 100 + trial);
        let b = Matrix::random(br, bc, 200 + trial);
        let c0 = Matrix::random(m, n, 300 + trial);

        let mut want = c0.clone();
        naive_gemm(
            ta,
            tb,
            alpha,
            &a.view(),
            &b.view(),
            beta,
            &mut want.view_mut(),
        );

        let mut got = c0.clone();
        let mut cfg = GemmConfig::for_kernel(kind, threads);
        // small blocks to cross boundaries often
        cfg = cfg.with_blocks(
            17 + rng.next_below(40),
            kind.mr() * (1 + rng.next_below(4)),
            kind.nr() * (1 + rng.next_below(6)),
        );
        gemm(
            ta,
            tb,
            alpha,
            &a.view(),
            &b.view(),
            beta,
            &mut got.view_mut(),
            &cfg,
        );

        let err = got.max_abs_diff(&want);
        let tol = gemm_tolerance(k, 4.0);
        assert!(
            err < tol,
            "trial {trial}: {} m={m} n={n} k={k} ta={ta:?} tb={tb:?} alpha={alpha} \
             beta={beta} threads={threads} blocks={}: err {err} > tol {tol}",
            kind.label(),
            cfg.blocks.label()
        );
    }
}

/// The analytic model reproduces Table III, serial and at eight threads,
/// and the library's configurations keep its `kc` and `nc`. Their `mc`
/// comes from the host's L2: whole 8-row slivers of the kernel's row
/// group, or Table III's own value where there is no L2 to read (the
/// exact value is pinned where the rule lives, `gemm`'s unit tests).
#[test]
fn configurations_match_paper_tables() {
    let xgene = MachineDesc::xgene();
    for (threads, table) in [(1, "8x6x512x56x1920"), (8, "8x6x512x24x1792")] {
        let paper = solve_blocking(8, 6, threads, &xgene).unwrap();
        assert_eq!(paper.label(), table);
        let kernel = MicroKernelKind::Mk8x6;
        let ours = GemmConfig::for_kernel(kernel, threads).blocks;
        assert_eq!(
            (ours.kc, ours.nc),
            (paper.kc, paper.nc),
            "{threads} thread(s)"
        );
        let tile = kernel.mr() * KernelSet::<f64>::row_group(&kernel);
        assert!(
            ours.mc == paper.mc || (ours.mc > 0 && ours.mc.is_multiple_of(tile)),
            "{threads} thread(s): mc {} is neither Table III's nor whole {tile}-row tiles",
            ours.mc
        );
    }
    let serial = GemmConfig::default().blocks;
    assert_eq!((serial.kc, serial.nc), (512, 1920));
}

/// A large single multiplication through the paper's full blocking
/// (several kc panels and mc blocks) against the oracle.
#[test]
fn large_problem_full_paper_blocking() {
    let (m, n, k) = (300, 250, 1200);
    let a = Matrix::random(m, k, 5);
    let b = Matrix::random(k, n, 6);
    let mut want = Matrix::zeros(m, n);
    naive_gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &b.view(),
        0.0,
        &mut want.view_mut(),
    );
    for threads in [1usize, 8] {
        let mut got = Matrix::zeros(m, n);
        let cfg = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, threads);
        gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut got.view_mut(),
            &cfg,
        );
        assert!(got.max_abs_diff(&want) < gemm_tolerance(k, 1.0));
    }
}
