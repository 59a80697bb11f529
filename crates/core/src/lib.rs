//! # dgemm-core
//!
//! A production-quality implementation of the paper's DGEMM: the layered
//! Goto algorithm (Figure 2, layers 1–7) with packing, analytically
//! blocked for the ARMv8 memory hierarchy, with the paper's 8×6 register
//! kernel (plus the 8×4, 4×4 comparison kernels and a 5×5 ATLAS-like
//! baseline) and layer-3 multi-threading. The register kernels run as
//! AVX-512 / AVX2+FMA code where the host has it and as portable Rust
//! everywhere else.
//!
//! The library computes `C := α·op(A)·op(B) + β·C` for column-major
//! double-precision matrices, exactly like BLAS `dgemm`.
//!
//! ```
//! use dgemm_core::{blas::dgemm, gemm::GemmConfig, matrix::Matrix, Transpose};
//!
//! let a = Matrix::from_fn(30, 20, |i, j| (i * 20 + j) as f64 * 0.01);
//! let b = Matrix::from_fn(20, 25, |i, j| (i as f64 - j as f64) * 0.1);
//! let mut c = Matrix::zeros(30, 25);
//! dgemm(
//!     Transpose::No,
//!     Transpose::No,
//!     1.0,
//!     &a.view(),
//!     &b.view(),
//!     0.0,
//!     &mut c.view_mut(),
//!     &GemmConfig::default(),
//! )
//! .unwrap();
//! ```
//!
//! ## Architecture
//!
//! | module | paper layer | role |
//! |--------|-------------|------|
//! | [`matrix`] | — | column-major owned/borrowed matrix types |
//! | [`pack`] | layer 4 | packing A into `mr`-slivers, B into `nr`-slivers |
//! | [`microkernel`] | layer 7 | the `mr×nr` rank-1-update register kernels |
//! | [`simd`] | layer 7 | the same kernels as runtime-detected `std::arch` SIMD+FMA code |
//! | [`gebp`] | layers 4–6 | GEBP / GEBS / GESS loop nest over packed data |
//! | [`gemm`] | layers 1–3 | configuration (kernel, `kc`/`mc`/`nc` blocking, runtime), entry points, the one driver around the walk |
//! | [`parallel`] | layer 3 | balanced band partitioning (Section IV-C) |
//! | [`pool`] | layers 1–3 | the one walk over panels and cells — a serial call is one cell — the persistent worker pool, the cell grid every thread packs and computes its share of, buffer arenas |
//! | [`prepack`] | layer 4 | pre-packed B operands and the weight-reuse pack cache |
//! | [`blas`] | — | BLAS-style checked entry points |
//! | [`level3`] | — | DSYRK/DSYMM/DTRSM built on the same GEBP engine |
//! | [`lu`] | — | blocked LU with partial pivoting (the LINPACK workload) |
//! | [`cholesky`] | — | blocked Cholesky factorization |
//! | [`batch`] | — | batched GEMM with shared-operand packing reuse |
//! | [`sgemm`] | — | single-precision GEMM from the same analytic design (12×8, γ=9.6) |
//! | [`telemetry`] | — | the span stream: per-thread counters and rings of phase and request-lifecycle records, model-vs-measured attribution |
//! | [`trace`] | — | trace IDs, the chrome-trace renderer, latency histograms, health-event journal |
//! | [`metricsd`] | — | dependency-free `/metrics` + `/status` scrape endpoint |
//! | [`json`] | — | the one JSON value type, compact renderer and parser behind every document the crate writes or reads |
//! | [`autotune`] | — | closed-loop, model-seeded autotuner with a persistent per-host tuning DB |
//! | [`store`] | — | versioned on-disk format for pre-packed weights (zero-pack warm start) |
//! | [`mod@reference`] | — | naive triple-loop oracle for validation |

#![warn(missing_docs)]
// unsafe is confined to three modules: `tile` (the C-tile view whose
// checked API hands out one column segment of a rectangle of C at a
// time, and splits a tile into two that share no element, each free to
// go to its own thread), `simd` (the `std::arch` register kernels: called only after
// feature detection, A/B read through chunked slices, C reached only
// through `TileMut::col_seg_mut` with a masked store) and `lease` (the
// one lifetime erasure: a call's operands lent to pool jobs behind a
// gate the call cannot return past). Every other module carries
// `#![forbid(unsafe_code)]`.
#![deny(unsafe_op_in_unsafe_fn)]
// Library code must propagate failures as typed errors; panicking
// shortcuts are reserved for tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod autotune;
pub mod batch;
pub mod blas;
pub mod cholesky;
pub mod dispatch;
mod env;
pub mod faults;
pub mod gebp;
pub mod gemm;
pub mod json;
mod lease;
pub mod level3;
pub mod lu;
pub mod matrix;
pub mod metricsd;
pub mod microkernel;
pub mod pack;
pub mod parallel;
pub mod pool;
pub mod prepack;
mod probe;
pub mod reference;
pub mod scalar;
pub mod service;
pub mod sgemm;
pub mod simd;
pub mod store;
pub mod telemetry;
pub mod tile;
pub mod trace;
pub mod util;

pub use pool::Parallelism;

/// Transposition selector for a GEMM operand, as in BLAS.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Transpose {
    /// Use the operand as stored.
    #[default]
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Transpose {
    /// Dimensions of `op(X)` given the stored dimensions of `X`.
    #[must_use]
    pub fn apply_dims(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            Transpose::No => (rows, cols),
            Transpose::Yes => (cols, rows),
        }
    }
}

/// Errors reported by the checked BLAS-style entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GemmError {
    /// Inner dimensions of `op(A)` and `op(B)` disagree.
    InnerDimMismatch {
        /// Columns of `op(A)`.
        a_cols: usize,
        /// Rows of `op(B)`.
        b_rows: usize,
    },
    /// `C` has the wrong shape for `op(A)·op(B)`.
    OutputDimMismatch {
        /// Expected shape of C.
        expected: (usize, usize),
        /// Actual shape of C.
        actual: (usize, usize),
    },
    /// A configuration value or an argument is unusable: a zero block
    /// size, a malformed `DGEMM_*` variable, or a slice entry's operand
    /// whose leading dimension or slice does not fit its rows.
    BadConfig(&'static str),
    /// A pool worker panicked while computing an `mc`-block and the
    /// caller's serial re-execution of that block panicked too.
    ///
    /// The runtime contains a single worker panic by recomputing the
    /// block inline (see DESIGN.md §10); this variant means even the
    /// retry failed, so `C` must be considered unspecified.
    WorkerFault {
        /// Batch entry of the failed block's first row (0 for plain
        /// GEMM). A batch's rows are cut into blocks stacked, so the
        /// block may run on into the next entries.
        entry: usize,
        /// That row within its entry: `(entry, row0)` is the first
        /// stacked row of the failed `mc`-block.
        row0: usize,
    },
    /// A layer-3 epoch exceeded [`crate::gemm::GemmConfig::epoch_timeout`].
    ///
    /// The caller stopped waiting, recomputed the missing blocks
    /// serially (so `C` is still bit-identical to the serial result),
    /// and reports the stall so the operator can inspect the pool.
    EpochTimeout {
        /// The deadline that expired, in milliseconds.
        timeout_ms: u64,
        /// How many block results were still outstanding at expiry.
        missing_blocks: usize,
        /// Live pool workers at the moment of expiry (diagnostic).
        workers_alive: usize,
    },
    /// Memory for a packing buffer could not be reserved, even after
    /// degrading to smaller chunks.
    AllocFailure {
        /// Which buffer failed (e.g. `"packed A"`, `"packed B"`).
        what: &'static str,
    },
    /// A serialized weight-store blob failed validation: truncated,
    /// corrupt (checksum mismatch), version-skewed, wrong dtype, or
    /// geometry-inconsistent (see DESIGN.md §17). The blob was rejected
    /// before any panel was consumed, so results are never affected.
    BadStore(&'static str),
}

impl core::fmt::Display for GemmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GemmError::InnerDimMismatch { a_cols, b_rows } => {
                write!(f, "op(A) has {a_cols} columns but op(B) has {b_rows} rows")
            }
            GemmError::OutputDimMismatch { expected, actual } => write!(
                f,
                "C is {}x{} but op(A)*op(B) is {}x{}",
                actual.0, actual.1, expected.0, expected.1
            ),
            GemmError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            GemmError::WorkerFault { entry, row0 } => write!(
                f,
                "worker panic on block (entry {entry}, rows {row0}..) and serial retry failed"
            ),
            GemmError::EpochTimeout {
                timeout_ms,
                missing_blocks,
                workers_alive,
            } => write!(
                f,
                "layer-3 epoch exceeded {timeout_ms} ms with {missing_blocks} block(s) \
                 outstanding ({workers_alive} workers alive); missing blocks were \
                 recomputed serially"
            ),
            GemmError::AllocFailure { what } => {
                write!(f, "failed to allocate memory for {what}")
            }
            GemmError::BadStore(msg) => write!(f, "bad weight store: {msg}"),
        }
    }
}

impl std::error::Error for GemmError {}

#[cfg(test)]
mod tests {
    /// Each source file's name and code lines: comments and the file's
    /// `mod tests` left out.
    fn sources() -> Vec<(String, Vec<String>)> {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&src).expect("the crate's sources are readable") {
            let path = entry.expect("directory entry").path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("utf-8 file name");
            let Some(stem) = name.strip_suffix(".rs") else {
                continue;
            };
            let text = std::fs::read_to_string(&path).expect("source file is utf-8");
            // While in a `mod tests`, the line that closes it.
            let (mut lines, mut tests_end) = (Vec::new(), None);
            for line in text.lines() {
                let code = line.trim_start();
                if tests_end.is_some() {
                    tests_end = tests_end.filter(|end: &String| end != line);
                } else if code.ends_with("mod tests {") {
                    tests_end = Some(format!("{}}}", &line[..line.len() - code.len()]));
                } else if !code.starts_with("//") {
                    lines.push(code.to_owned());
                }
            }
            files.push((format!("{stem}.rs"), lines));
        }
        files.sort();
        files
    }

    /// The keyword `unsafe` as a word of its own, then `{`, `fn` or `impl`.
    fn uses_unsafe(line: &str) -> bool {
        let words: Vec<&str> = line
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '{'))
            .filter(|w| !w.is_empty())
            .collect();
        words
            .windows(2)
            .any(|w| w[0] == "unsafe" && matches!(w[1], "{" | "fn" | "impl"))
    }

    /// One decision, one module: outside comments and test modules, each
    /// row's pattern occurs only in the files the row allows.
    /// - `unsafe` code lives in `lease.rs`, `simd.rs` and `tile.rs` (the
    ///   attribute comment at the top of this file), and every other
    ///   module carries `#![forbid(unsafe_code)]`. This file cannot carry
    ///   it — at the crate root the attribute would cover the three — so
    ///   it is only checked to hold no unsafe code.
    /// - `env.rs` is the only reader of the environment.
    /// - `json.rs` is the only JSON writer: no JSON object or key literal
    ///   in a format string elsewhere.
    /// - The process-wide pack cache is `prepack.rs`'s, held per element
    ///   type in `pool.rs` and looked up only on the GEMM entries' path
    ///   (`gemm.rs`, `batch.rs`); every other caller holds its weights'
    ///   panels.
    #[test]
    fn each_pattern_lives_only_in_the_modules_that_own_it() {
        let env_read = |l: &str| l.contains("env::var");
        let json_literal = |l: &str| l.contains("{{\\\"") || l.contains("\\\":");
        let pack_cache = |l: &str| l.contains("PackCache");
        type Row = (&'static str, fn(&str) -> bool, &'static [&'static str]);
        let rows: [Row; 4] = [
            (
                "unsafe code",
                uses_unsafe,
                &["lease.rs", "simd.rs", "tile.rs"],
            ),
            ("an environment read", env_read, &["env.rs"]),
            ("a JSON literal", json_literal, &["json.rs"]),
            (
                "PackCache",
                pack_cache,
                &["prepack.rs", "gemm.rs", "batch.rs", "pool.rs"],
            ),
        ];
        let files = sources();
        for (what, holds, allowed) in rows {
            let outside: Vec<&str> = files
                .iter()
                .filter(|(name, lines)| {
                    !allowed.contains(&name.as_str()) && lines.iter().any(|l| holds(l))
                })
                .map(|(name, _)| name.as_str())
                .collect();
            assert!(
                outside.is_empty(),
                "{what} outside {allowed:?}: {outside:?}"
            );
        }
        for (name, lines) in files {
            if name != "lib.rs" && !lines.iter().any(|l| uses_unsafe(l)) {
                assert!(
                    lines.iter().any(|line| line == "#![forbid(unsafe_code)]"),
                    "{name} holds no unsafe code, so it must carry #![forbid(unsafe_code)]"
                );
            }
        }
    }
}
