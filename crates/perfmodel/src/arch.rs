//! Machine description for the analytic model.
//!
//! The paper's platform (Section II-A, Figure 1) is an eight-core 64-bit
//! ARMv8 SoC: per-core 32 KB 4-way L1D, 256 KB 16-way L2 shared by the two
//! cores of a *dual-core module*, 8 MB 16-way L3 shared by all four modules,
//! one NEON FMA pipeline per core at 2.4 GHz giving 4.8 Gflops/core peak
//! (i.e. one 128-bit `fmla v.2d` — 4 flops — every two cycles).

/// One level of a set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLevel {
    /// Total capacity in bytes.
    pub size: usize,
    /// Number of ways (set associativity).
    pub assoc: usize,
    /// Cache-line size in bytes.
    pub line: usize,
}

impl CacheLevel {
    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.size / (self.assoc * self.line)
    }

    /// Bytes held by `k` ways across all sets — the capacity available to a
    /// data structure confined to a `k`-way partition of the cache, as used
    /// by the paper's blocking constraints (equations (15), (17), (18)).
    #[must_use]
    pub fn way_bytes(&self, k: usize) -> usize {
        k * self.size / self.assoc
    }
}

/// The machine parameters consumed by the analytic model.
#[derive(Clone, Debug)]
pub struct MachineDesc {
    /// Number of architectural floating-point/NEON registers (`nf`).
    pub nf: usize,
    /// Size of one floating-point register in bytes (`pf`); 16 for NEON q-regs.
    pub vreg_bytes: usize,
    /// Size of one matrix element in bytes; 8 for double precision.
    pub element_bytes: usize,
    /// L1 data cache (per core).
    pub l1: CacheLevel,
    /// L2 cache (shared by the cores of one module).
    pub l2: CacheLevel,
    /// L3 cache (shared by all cores).
    pub l3: CacheLevel,
    /// Total number of cores.
    pub cores: usize,
    /// Cores per dual-core module (sharing one L2).
    pub cores_per_module: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Peak double-precision flops per cycle per core (2.0 on this machine:
    /// one 2-lane FMA — 4 flops — every 2 cycles).
    pub flops_per_cycle: f64,
}

impl MachineDesc {
    /// The paper's evaluation platform (Table II / Section II-A).
    #[must_use]
    pub fn xgene() -> Self {
        MachineDesc {
            nf: 32,
            vreg_bytes: 16,
            element_bytes: 8,
            l1: CacheLevel {
                size: 32 * 1024,
                assoc: 4,
                line: 64,
            },
            l2: CacheLevel {
                size: 256 * 1024,
                assoc: 16,
                line: 64,
            },
            l3: CacheLevel {
                size: 8 * 1024 * 1024,
                assoc: 16,
                line: 64,
            },
            cores: 8,
            cores_per_module: 2,
            freq_ghz: 2.4,
            flops_per_cycle: 2.0,
        }
    }

    /// The register file of an x86-64 core with AVX2 + FMA: 16 `ymm`
    /// registers of 32 bytes, two FMA pipes (16 flops/cycle). Only the
    /// register-level fields describe the x86 core; the cache geometry
    /// stays the paper's until a probed description exists.
    #[must_use]
    pub fn x86_avx2() -> Self {
        MachineDesc {
            nf: 16,
            vreg_bytes: 32,
            flops_per_cycle: 16.0,
            ..Self::xgene()
        }
    }

    /// As [`MachineDesc::x86_avx2`] for AVX-512F: 32 `zmm` registers of
    /// 64 bytes, two FMA pipes (32 flops/cycle).
    #[must_use]
    pub fn x86_avx512() -> Self {
        MachineDesc {
            nf: 32,
            vreg_bytes: 64,
            flops_per_cycle: 32.0,
            ..Self::xgene()
        }
    }

    /// Peak double-precision Gflops of one core.
    #[must_use]
    pub fn peak_gflops_per_core(&self) -> f64 {
        self.freq_ghz * self.flops_per_cycle
    }

    /// Peak double-precision Gflops of `threads` cores.
    #[must_use]
    pub fn peak_gflops(&self, threads: usize) -> f64 {
        self.peak_gflops_per_core() * threads as f64
    }

    /// Number of dual-core modules.
    #[must_use]
    pub fn modules(&self) -> usize {
        self.cores / self.cores_per_module
    }

    /// How many of `threads` threads end up sharing one L2 cache, assuming
    /// the scheduler spreads threads across modules first (Section V:
    /// "in the case of 2 and 4 threads, different threads always run on
    /// different modules").
    #[must_use]
    pub fn l2_sharers(&self, threads: usize) -> usize {
        let modules = self.modules();
        if threads <= modules {
            1
        } else {
            threads.div_ceil(modules).min(self.cores_per_module)
        }
    }

    /// Doubles per cache line (8 on this machine), the natural granularity
    /// for `nc` rounding.
    #[must_use]
    pub fn doubles_per_line(&self) -> usize {
        self.l1.line / self.element_bytes
    }
}

impl Default for MachineDesc {
    fn default() -> Self {
        Self::xgene()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xgene_geometry_matches_paper() {
        let m = MachineDesc::xgene();
        assert_eq!(m.l1.sets(), 128);
        assert_eq!(m.l2.sets(), 256);
        assert_eq!(m.l3.sets(), 8192);
        assert_eq!(m.modules(), 4);
        assert!((m.peak_gflops_per_core() - 4.8).abs() < 1e-12);
        assert!((m.peak_gflops(8) - 38.4).abs() < 1e-12);
    }

    #[test]
    fn way_bytes_partitions() {
        let m = MachineDesc::xgene();
        // 3 of 4 ways of the 32 KB L1 = 24 KB, the share the paper gives to
        // the kc x nr sliver of B ("fills 3/4 of the L1 data cache").
        assert_eq!(m.l1.way_bytes(3), 24 * 1024);
        assert_eq!(m.l1.way_bytes(m.l1.assoc), m.l1.size);
    }

    #[test]
    fn l2_sharers_by_thread_count() {
        let m = MachineDesc::xgene();
        assert_eq!(m.l2_sharers(1), 1);
        assert_eq!(m.l2_sharers(2), 1); // spread over modules
        assert_eq!(m.l2_sharers(4), 1); // one per module
        assert_eq!(m.l2_sharers(8), 2); // both cores of every module busy
    }

    #[test]
    fn doubles_per_line_is_eight() {
        assert_eq!(MachineDesc::xgene().doubles_per_line(), 8);
    }
}
