//! Small self-contained utilities: a deterministic RNG (so the library
//! has no RNG dependency), numeric helpers shared by tests and benches,
//! and the crate's JSON string escaper.

#![forbid(unsafe_code)]

/// SplitMix64 — tiny, fast, deterministic PRNG (public-domain algorithm by
/// Sebastiano Vigna). Used only for reproducible test/benchmark data.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // take the top 53 bits for a uniform double
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`; `bound` must be nonzero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0);
        (self.next_u64() % bound as u64) as usize
    }
}

/// Flop count of an `m×n×k` GEMM (`2mnk`, the convention the paper and
/// LINPACK use).
#[must_use]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Tolerance for comparing a blocked GEMM against the naive oracle:
/// both accumulate `k` products, so the error scales with `k`, the
/// magnitudes of the inputs and the unit roundoff.
#[must_use]
pub fn gemm_tolerance(k: usize, scale: f64) -> f64 {
    let k = k.max(1) as f64;
    // generous constant: reassociation across blocking changes the
    // summation order, but error stays O(k·eps·scale)
    32.0 * k * f64::EPSILON * scale.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0 (cross-checked against the reference
        // C implementation).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(123);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SplitMix64::new(7);
        for bound in [1, 2, 17, 1000] {
            for _ in 0..100 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn flops_formula() {
        assert_eq!(gemm_flops(10, 20, 30), 12000.0);
    }

    #[test]
    fn tolerance_scales_with_k() {
        assert!(gemm_tolerance(1000, 1.0) > gemm_tolerance(10, 1.0));
        assert!(gemm_tolerance(10, 100.0) > gemm_tolerance(10, 1.0));
    }
}
