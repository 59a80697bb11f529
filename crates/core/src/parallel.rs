//! Layer 3 (Section IV-C, Figure 9): dealing the loop over `mc`-blocks
//! of A out in balanced shares.
//!
//! In the paper every thread packs and multiplies its own `mc×kc` blocks
//! of A against the packed `kc×nc` panel of B and updates its own rows
//! of C. [`partition_rows`] is the balanced partitioner behind that: the
//! walk in [`crate::pool`] cuts a panel into cells — runs of `mc`-blocks
//! by runs of B slivers, both dealt out by it — and the simulated machine
//! (`simgemm::estimate`) splits its rows with it.

#![forbid(unsafe_code)]

/// Split `m` rows into at most `threads` contiguous bands of whole
/// `unit`-row blocks (so no band ever splits a block), balanced to
/// within one block. The pool deals out both axes of its cell grid with
/// it: row tasks one at a time, a panel's columns in `nr`-slivers. Returns
/// `(start, len)` pairs; fewer bands than `threads` when there are fewer
/// blocks.
#[must_use]
pub fn partition_rows(m: usize, unit: usize, threads: usize) -> Vec<(usize, usize)> {
    assert!(unit > 0 && threads > 0);
    let mc = unit;
    let blocks = m.div_ceil(mc);
    let workers = threads.min(blocks).max(1);
    if blocks == 0 {
        return Vec::new();
    }
    let mut bands = Vec::with_capacity(workers);
    let per = blocks / workers;
    let extra = blocks % workers;
    let mut block = 0usize;
    for t in 0..workers {
        let nblocks = per + usize::from(t < extra);
        let start = block * mc;
        let end = ((block + nblocks) * mc).min(m);
        bands.push((start, end - start));
        block += nblocks;
    }
    bands
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_exact_blocks() {
        // 8 blocks of 24 rows over 4 threads: 2 blocks each
        let bands = partition_rows(192, 24, 4);
        assert_eq!(bands, vec![(0, 48), (48, 48), (96, 48), (144, 48)]);
    }

    #[test]
    fn partition_uneven_blocks() {
        // 5 blocks over 2 threads: 3 + 2
        let bands = partition_rows(5 * 16, 16, 2);
        assert_eq!(bands, vec![(0, 48), (48, 32)]);
    }

    #[test]
    fn partition_mr_granularity_balances_well() {
        // 2560 rows at mr=8 over 8 threads: exactly 320 each
        let bands = partition_rows(2560, 8, 8);
        assert_eq!(bands.len(), 8);
        assert!(bands.iter().all(|&(_, l)| l == 320));
    }

    #[test]
    fn partition_ragged_tail() {
        // 100 rows, unit 24 -> blocks of 24,24,24,24,4; 3 threads: 2/2/1
        let bands = partition_rows(100, 24, 3);
        assert_eq!(bands, vec![(0, 48), (48, 48), (96, 4)]);
        let total: usize = bands.iter().map(|b| b.1).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn partition_more_threads_than_blocks() {
        let bands = partition_rows(30, 24, 8);
        assert_eq!(bands.len(), 2);
        assert_eq!(bands, vec![(0, 24), (24, 6)]);
    }

    #[test]
    fn partition_covers_everything_disjointly() {
        for m in [1, 7, 24, 100, 513] {
            for mc in [8, 24, 56] {
                for threads in [1, 2, 3, 8] {
                    let bands = partition_rows(m, mc, threads);
                    let mut next = 0;
                    for (s, l) in bands {
                        assert_eq!(s, next);
                        assert!(l > 0);
                        next = s + l;
                    }
                    assert_eq!(next, m);
                }
            }
        }
    }
}
